"""Run all five linking heuristics over a synthetic trace and combine them.

The generator plants one behavior per user, records the links each
behavior leaks, and embeds true balances, so every number printed here
can be checked against ground truth.  Watch the combined column: it is
never larger than the best single heuristic.
"""

from fractions import Fraction

from anonset import build_index, combine, generate_trace
from anonset.heuristics import HEURISTIC_TAGS, pool_view, run_heuristics
from anonset.metrics import (
    advantage_increase_from_reduction,
    relative_advantage_increase,
    render_percent,
)
from anonset.synth import BEHAVIORS, BehaviorProfile, GeneratorConfig, standard_pools

config = GeneratorConfig(
    profile=BehaviorProfile.from_weights({b: 1 for b in BEHAVIORS}),
    pools=standard_pools(),
    user_count=160,
    block_span=20_000,
)
trace = generate_trace(config, seed=2718)
t = trace.last_block
index = build_index(trace.transfers, trace.token_transfers, trace.events,
                    dict(trace.labels))
planted = frozenset().union(*trace.ground_truth.links_by_heuristic.values())

print(f"trace: {len(trace.events)} pool events, {len(trace.transfers)} transfers, "
      f"{len(planted)} planted links\n")
print(f"{'pool':<6} {'observed':>8} {'h1':>6} {'h2':>6} {'h3':>6} {'h4':>6} "
      f"{'h5':>6} {'combined':>9} {'adv gain':>9}")

# one view per pool: its events, state and actor sets at the cut, shared
# by every heuristic
views = [pool_view(index, pool, t) for pool in trace.pools]
by_pool_tag = run_heuristics(HEURISTIC_TAGS, views)
combined_reductions = []
for view in views:
    results = [by_pool_tag[(view.pool.pool_id, tag)] for tag in HEURISTIC_TAGS]
    merged = combine(view, results)
    observed = len(view.depositors)
    sizes = " ".join(f"{r.size:>6}" for r in results)
    gain = relative_advantage_increase(observed, merged.size)
    print(f"{view.pool.pool_id:<6} {observed:>8} {sizes} "
          f"{merged.size:>9} {render_percent(gain):>9}")
    combined_reductions.append(Fraction(observed - merged.size, observed))

mean = sum(combined_reductions, Fraction(0)) / len(combined_reductions)
print(f"\nmean combined reduction: {render_percent(mean)}")
print(f"implied linkability gain: "
      f"{render_percent(advantage_increase_from_reduction(mean))}")

found = frozenset().union(*(r.link_pairs for r in by_pool_tag.values()))
print(f"\nplanted links recovered: {len(found & planted)}/{len(planted)}, "
      f"spurious: {len(found - planted)}")
