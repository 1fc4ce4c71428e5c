from __future__ import annotations

import random
from collections.abc import Sequence
from itertools import combinations

import pytest

from anonset.errors import DomainError, InputError
from anonset.ledger import DEPOSIT
from anonset.mining import (
    DEFAULT_AM_WEIGHTS,
    EXACT,
    INCONCLUSIVE,
    N_N_N,
    N_ONE_ONE,
    NON_DEPOSITOR,
    NONE,
    ONE_ONE_ONE,
    APClaim,
    anonymity_points,
    classify_claimant,
    solve_multi_claim,
    solve_single_claim,
)
from anonset.synth import BEHAVIORS, BehaviorProfile, GeneratorConfig, generate_trace, standard_pools

from .conftest import addr, deposit


def oracle_multi(deposit_blocks, claim, weight, withdrawal_blocks):
    """Exhaustive enumeration over withdrawal-event subsets."""
    if claim.ap % weight != 0:
        return set()
    deps = sorted(deposit_blocks)
    events = [b for b in withdrawal_blocks if b < claim.block]
    target = claim.ap // weight
    found = set()
    for combo in combinations(range(len(events)), len(deps)):
        blocks = sorted(events[i] for i in combo)
        if all(b > d for b, d in zip(blocks, deps)) and \
                sum(b - d for b, d in zip(blocks, deps)) == target:
            found.add(tuple(blocks))
    return found


def test_default_weight_table():
    assert DEFAULT_AM_WEIGHTS == {"0.1": 10, "1": 20, "10": 50, "100": 400}


class TestAnonymityPoints:
    def test_worked_scenario_totals_86000(self):
        # two weight-20 pairs with gaps 200 and 100, one weight-400 pair with gap 200
        points = anonymity_points(
            deposit_blocks={"1": [11_476_000, 11_476_100], "100": [11_476_000]},
            withdrawal_blocks={"1": [11_476_200, 11_476_200], "100": [11_476_200]},
            weights=DEFAULT_AM_WEIGHTS)
        assert points == 86_000

    def test_zero_elapsed_blocks(self):
        assert anonymity_points({"1": [5]}, {"1": [5]}, DEFAULT_AM_WEIGHTS) == 0

    def test_single_pair_by_hand(self):
        assert anonymity_points({"100": [10]}, {"100": [15]}, DEFAULT_AM_WEIGHTS) == 2_000

    def test_withdrawal_before_deposit_rejected(self):
        with pytest.raises(DomainError):
            anonymity_points({"1": [10]}, {"1": [9]}, DEFAULT_AM_WEIGHTS)

    def test_unpaired_counts_rejected(self):
        with pytest.raises(InputError):
            anonymity_points({"1": [10, 11]}, {"1": [12]}, DEFAULT_AM_WEIGHTS)

    def test_additive_across_pools_and_linear_in_weight(self):
        rng = random.Random(2)
        for _ in range(20):
            pools = {}
            for key in ("0.1", "1", "10"):
                deps = sorted(rng.sample(range(1, 500), 3))
                gaps = [rng.randrange(1, 50) for _ in deps]
                pools[key] = (deps, [d + g for d, g in zip(deps, gaps)])
            total = anonymity_points({k: v[0] for k, v in pools.items()},
                                     {k: v[1] for k, v in pools.items()},
                                     DEFAULT_AM_WEIGHTS)
            by_pool = sum(
                anonymity_points({k: pools[k][0]}, {k: pools[k][1]}, DEFAULT_AM_WEIGHTS)
                for k in pools)
            assert total == by_pool
            doubled = anonymity_points(
                {k: v[0] for k, v in pools.items()},
                {k: v[1] for k, v in pools.items()},
                {k: 2 * w for k, w in DEFAULT_AM_WEIGHTS.items()})
            assert doubled == 2 * total


class TestClassifyClaimant:
    def test_categories(self):
        a = addr("cl")
        claim = APClaim(recipient=a, block=100, ap=40)
        one = [deposit("P1", a, 5)]
        assert classify_claimant(a, one, [claim]) == ONE_ONE_ONE
        many = [deposit("P1", a, 5), deposit("P1", a, 6), deposit("P1", a, 7)]
        assert classify_claimant(a, many, [claim]) == N_ONE_ONE
        cross = [deposit("P1", a, 5), deposit("P10", a, 6)]
        assert classify_claimant(a, cross, [claim]) == N_N_N
        second = APClaim(recipient=a, block=120, ap=4)
        assert classify_claimant(a, one, [claim, second]) == N_N_N
        assert classify_claimant(a, [], [claim]) == NON_DEPOSITOR

    def test_requires_a_claim(self):
        with pytest.raises(InputError):
            classify_claimant(addr("cl"), [], [])

    @pytest.mark.parametrize("seed", [4, 11])
    def test_own_deposits_classify_like_all_deposits(self, seed):
        """The CLI passes each claimant only its own deposits."""
        profile = BehaviorProfile.from_weights({b: 1 for b in BEHAVIORS})
        trace = generate_trace(GeneratorConfig(profile=profile, pools=standard_pools(),
                                               user_count=120, block_span=3000), seed)
        own: dict[str, list] = {}
        for e in trace.events:
            if e.kind == DEPOSIT:
                own.setdefault(e.actor, []).append(e)
        cross_pool = min(a for a, deps in own.items()
                         if len({e.pool_id for e in deps}) > 1)
        first = trace.ap_claims[0]
        claims = list(trace.ap_claims) + [
            APClaim(recipient=addr("stranger"), block=first.block, ap=40),
            APClaim(recipient=first.recipient, block=first.block + 1, ap=40),
            APClaim(recipient=cross_pool, block=first.block, ap=40)]
        categories = set()
        for address in sorted({c.recipient for c in claims}):
            category = classify_claimant(address, trace.events, claims)
            assert classify_claimant(address, own.get(address, []), claims) == category
            categories.add(category)
        assert categories == {ONE_ONE_ONE, N_ONE_ONE, N_N_N, NON_DEPOSITOR}


class TestSolveSingleClaim:
    def test_exact_recovery(self):
        claim = APClaim(recipient=addr("s1"), block=2_000, ap=2_000)
        sol = solve_single_claim(1_000, claim, 400, [990, 1_005, 1_200])
        assert sol.status == EXACT
        assert sol.solutions == ((1_005,),)
        assert sol.multiplicity == 1

    def test_indivisible_points(self):
        claim = APClaim(recipient=addr("s1"), block=2_000, ap=2_001)
        assert solve_single_claim(1_000, claim, 400, [1_005]).status == NONE

    def test_candidate_at_or_after_claim_rejected(self):
        claim = APClaim(recipient=addr("s1"), block=1_005, ap=2_000)
        assert solve_single_claim(1_000, claim, 400, [1_005]).status == NONE

    def test_no_withdrawal_in_block(self):
        claim = APClaim(recipient=addr("s1"), block=2_000, ap=2_000)
        assert solve_single_claim(1_000, claim, 400, [1_004, 1_006]).status == NONE

    def test_multiplicity_counts_shared_blocks(self):
        claim = APClaim(recipient=addr("s1"), block=2_000, ap=400)
        sol = solve_single_claim(1_000, claim, 400, [1_001, 1_001, 1_001])
        assert sol.status == EXACT
        assert sol.multiplicity == 3

    def test_recovered_pair_reproduces_points(self):
        rng = random.Random(9)
        for _ in range(100):
            t_d = rng.randrange(1, 10_000)
            gap = rng.randrange(1, 400)
            weight = rng.choice([10, 20, 50, 400])
            claim = APClaim(recipient=addr("s1"), block=t_d + gap + rng.randrange(1, 50),
                            ap=weight * gap)
            ws = sorted(rng.sample(range(1, 11_000), 15) + [t_d + gap])
            sol = solve_single_claim(t_d, claim, weight, ws)
            assert sol.status == EXACT
            (tw,) = sol.solutions[0]
            assert anonymity_points({"p": [t_d]}, {"p": [tw]}, {"p": weight}) == claim.ap


class CountedHeights(Sequence):
    """Sorted withdrawal heights that count every element read into
    ``reads``; a slice reads through to the same count."""

    def __init__(self, heights: list[int], reads: list[int]):
        self.heights = heights
        self.reads = reads

    def __len__(self) -> int:
        return len(self.heights)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return CountedHeights(self.heights[index], self.reads)
        self.reads[0] += 1
        return self.heights[index]


def heights_read(claims: int) -> int:
    """Heights the solver reads for ``claims`` two-deposit claims against
    ``10 * claims`` withdrawals, each claim solved by the last two."""
    w = 10 * claims
    reads = [0]
    heights = CountedHeights(list(range(1, w + 1)), reads)
    for c in range(claims):
        # gaps (w - 1) - (w - 4) and w - (w - 3): 6 points, one solution
        claim = APClaim(recipient=addr(f"c{c}"), block=w + 1, ap=6)
        sol = solve_multi_claim([w - 4, w - 3], claim, 1, heights)
        assert sol.solutions == ((w - 1, w),)
    return reads[0]


class TestSolveMultiClaim:
    def test_heights_read_grow_with_claims_not_claims_times_withdrawals(self):
        # a guard that needs no clock: each claim's candidates sit at the
        # end of the pool, so a scan from the start reads every height for
        # every claim, 16x the reads for 4x the claims and withdrawals;
        # bisection reads about log(withdrawals) per search node
        small, large = heights_read(20), heights_read(80)
        assert 0 < small < large < 8 * small

    def test_worked_pair(self):
        claim = APClaim(recipient=addr("m1"), block=300, ap=110)
        sol = solve_multi_claim([100, 200], claim, 1, [150, 260])
        assert sol.status == EXACT
        assert sol.solutions == ((150, 260),)

    def test_no_solution(self):
        claim = APClaim(recipient=addr("m1"), block=300, ap=111)
        assert solve_multi_claim([100, 200], claim, 1, [150, 260]).status == NONE

    def test_cap_marks_inconclusive(self):
        # target sits mid-range, so bounds cannot collapse the search
        claim = APClaim(recipient=addr("m1"), block=10_000, ap=174)
        sol = solve_multi_claim([1, 2, 3], claim, 1,
                                list(range(10, 110)), search_cap=10)
        assert sol.status == INCONCLUSIVE
        assert sol.explored <= 11

    def test_deep_claimant_is_solved(self):
        # more deposits than the interpreter's default recursion limit
        u = 1500
        deps = list(range(1, u + 1))
        ws = list(range(u + 1, 2 * u + 1))
        claim = APClaim(recipient=addr("m3"), block=2 * u + 1, ap=10 * u * u)
        sol = solve_multi_claim(deps, claim, 10, ws)
        assert sol.status == EXACT
        assert sol.solutions == (tuple(ws),)
        assert sol.explored == u + 1

    def test_single_deposit_rejected(self):
        claim = APClaim(recipient=addr("m1"), block=300, ap=110)
        with pytest.raises(InputError):
            solve_multi_claim([100], claim, 1, [150])

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(31)
        for trial in range(120):
            u = rng.randrange(2, 5)
            deps = sorted(rng.sample(range(1, 80), u))
            n_wd = rng.randrange(u, 21)
            ws = sorted(rng.choice(range(1, 140)) for _ in range(n_wd))
            weight = rng.choice([1, 10, 20])
            claim_block = 200
            if trial % 3 == 0:
                # plant a feasible tuple so exact cases occur often
                planted = sorted(d + rng.randrange(1, 30) for d in deps)
                ws = sorted(ws + planted)
                ap = weight * sum(b - d for b, d in zip(planted, deps))
            else:
                ap = weight * rng.randrange(1, 200)
            claim = APClaim(recipient=addr("m2"), block=claim_block, ap=ap)
            sol = solve_multi_claim(deps, claim, weight, ws)
            expected = oracle_multi(deps, claim, weight, ws)
            assert sol.status != INCONCLUSIVE
            assert set(sol.solutions) == expected
            assert (sol.status == EXACT) == bool(expected)
            for tup in sol.solutions:
                points = anonymity_points({"p": deps}, {"p": list(tup)}, {"p": weight})
                assert points == claim.ap

