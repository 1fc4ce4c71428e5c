"""Run all five linking heuristics over a synthetic trace and combine them.

The generator plants one behavior per user, records the links each
behavior leaks, and embeds true balances, so every number printed here
can be checked against ground truth.  Watch the combined column: it is
never larger than the best single heuristic.
"""

from anonset.heuristics import HEURISTICS, pool_view, run_heuristics
from anonset.indexing import build_index
from anonset.metrics import (
    advantage_increase_from_reduction,
    anonymity_sets,
    render_percent,
)
from anonset.synth import (
    BEHAVIORS,
    BehaviorProfile,
    GeneratorConfig,
    generate_trace,
    standard_pools,
)

config = GeneratorConfig(
    profile=BehaviorProfile.from_weights({b: 1 for b in BEHAVIORS}),
    pools=standard_pools(),
    user_count=160,
    block_span=20_000,
)
trace = generate_trace(config, seed=2718)
index = build_index(trace.transfers, trace.token_transfers, trace.events,
                    dict(trace.labels))
planted = frozenset().union(*trace.ground_truth.links_by_heuristic.values())

print(f"trace: {len(trace.events)} pool events, {len(trace.transfers)} transfers, "
      f"{len(planted)} planted links\n")
print(f"{'pool':<6} {'observed':>8} {'h1':>6} {'h2':>6} {'h3':>6} {'h4':>6} "
      f"{'h5':>6} {'combined':>9} {'adv gain':>9}")

# one view per pool: its events, state and actor sets over the whole
# trace, shared by every heuristic
tags = tuple(HEURISTICS)
views = [pool_view(index, pool) for pool in trace.pools]
links = run_heuristics(tags, views)
found = frozenset().union(*(pairs for mine in links.values() for pairs in mine.values()))
# combining is reducing once under the union of every heuristic's links
for mine in links.values():
    mine["combined"] = frozenset().union(*mine.values())
sets, means = anonymity_sets(views, links)
for pool_id, (observed, reduced) in sets.items():
    sizes = " ".join(f"{reduced[tag][0]:>6}" for tag in tags)
    merged, reduction = reduced["combined"]
    gain = advantage_increase_from_reduction(reduction)
    print(f"{pool_id:<6} {observed:>8} {sizes} "
          f"{merged:>9} {render_percent(gain):>9}")

mean = means["combined"]
print(f"\nmean combined reduction: {render_percent(mean)}")
print(f"implied linkability gain: "
      f"{render_percent(advantage_increase_from_reduction(mean))}")

print(f"\nplanted links recovered: {len(found & planted)}/{len(planted)}, "
      f"spurious: {len(found - planted)}")
