"""Recover withdrawal times from mining-reward claims.

Reward points accrue as pool-weight times the deposited duration in
blocks, and converting them publishes the exact total.  With the deposit
blocks public, a single-deposit claimant's withdrawal block is just
arithmetic; a multi-deposit claimant needs a bounded subset-sum search
over the pool's withdrawal history.
"""

from anonset.mining import (
    classify_claimant,
    solve_multi_claim,
    solve_single_claim,
)
from anonset.synth import (
    AM_SPECULATOR,
    BehaviorProfile,
    GeneratorConfig,
    generate_trace,
    standard_pools,
)

config = GeneratorConfig(
    profile=BehaviorProfile.pure(AM_SPECULATOR),
    pools=standard_pools(),
    user_count=12,
    block_span=4_000,
)
trace = generate_trace(config, seed=99)

deposits = [e for e in trace.events if e.kind == "deposit"]
withdrawals_by_pool = {
    p.pool_id: sorted(e.height for e in trace.events
                      if e.pool_id == p.pool_id and e.kind == "withdrawal")
    for p in trace.pools}
weights = {p.pool_id: p.am_weight for p in trace.pools}
truth = {r.recipient: r for r in trace.ground_truth.am_truth}

print(f"{len(trace.ap_claims)} reward claims over "
      f"{sum(len(v) for v in withdrawals_by_pool.values())} withdrawals\n")

recovered = 0
for claim in sorted(trace.ap_claims, key=lambda c: c.block):
    category = classify_claimant(claim.recipient, deposits, trace.ap_claims)
    record = truth[claim.recipient]
    own = sorted(e.height for e in deposits if e.actor == claim.recipient)
    pool_withdrawals = withdrawals_by_pool[record.pool_id]
    if category == "one-one-one":
        solution = solve_single_claim(own[0], claim, weights[record.pool_id],
                                      pool_withdrawals)
    else:
        solution = solve_multi_claim(own, claim, weights[record.pool_id],
                                     pool_withdrawals)
    hit = tuple(sorted(record.withdrawal_blocks)) in solution.solutions
    recovered += hit
    print(f"  …{claim.recipient[-8:]}  {category:<11} ap={claim.ap:>7} "
          f"-> {solution.status}, {len(solution.solutions)} candidate tuple(s), "
          f"true blocks {'recovered' if hit else 'missed'}")

print(f"\n{recovered}/{len(trace.ap_claims)} claimants had their withdrawal "
      f"blocks among the exact solutions")
print("every solution reproduces the claimed points bit for bit; a claim is "
      "a timing oracle")
