from __future__ import annotations

from fractions import Fraction

import pytest

from anonset.errors import DomainError, InputError
from anonset.heuristics import h1_reuse
from anonset.indexing import LabelBook
from anonset.ledger import LinkPair, PoolConfig, pool_state
from anonset.metrics import (
    adversary_advantage,
    advantage_increase_from_reduction,
    anonymity_sets,
    cluster_size_histogram,
    count_relayers,
    fund_then_deposit_flags,
    relayer_usage,
    render_percent,
    render_ratio,
    withdraw_first,
)

from .conftest import D1, D2, W1, addr, deposit, reduced, view, withdrawal

NO_LABELS = LabelBook({})


class TestAnonymitySets:
    def test_observed_is_unique_deposit_addresses(self, p100, p100_events):
        assert view(p100, p100_events, t=100).depositors == {D1, D2}

    def test_duplicate_depositor_counted_once(self, p100):
        events = [deposit("P100", D1, 1), deposit("P100", D1, 2)]
        assert view(p100, events, t=10).depositors == {D1}

    def test_true_set_is_positive_balances(self, p100, p100_events):
        state = pool_state(p100, p100_events)
        assert {a for a, b in state.items() if b > 0} == {D1, D2}

    def test_true_set_of_drained_pool_is_empty(self):
        state = {D1: 0, W1: -100}
        assert {a for a, b in state.items() if b > 0} == set()


class TestAdvantage:
    def test_uniform_guessing(self):
        assert adversary_advantage(4) == Fraction(1, 4)
        assert adversary_advantage(1) == 1

    def test_empty_set_rejected(self):
        with pytest.raises(DomainError):
            adversary_advantage(0)

    def test_increase_from_reduction_is_the_exact_size_ratio(self):
        # 1/(1 - (o-s)/o) - 1 == o/s - 1 exactly, so a report renders the
        # same gain from the sizes or from the reduction
        for o in range(1, 61):
            for s in range(1, o + 1):
                assert advantage_increase_from_reduction(Fraction(o - s, o)) == Fraction(o, s) - 1
        assert advantage_increase_from_reduction(Fraction(4108 - 3476, 4108)) == \
            Fraction(4108, 3476) - 1

    def test_reduced_set_larger_than_observed_or_empty_rejected(self):
        for o, s in ((5, 6), (5, 0)):
            with pytest.raises(DomainError):
                advantage_increase_from_reduction(Fraction(o - s, o))

    def test_headline_arithmetic(self):
        # 34.18% reduction -> 51.94% advantage gain; 52.07% -> 108.63%
        gain = advantage_increase_from_reduction(Fraction("0.3418"))
        assert abs(gain * 100 - Fraction("51.94")) <= Fraction("0.05")
        gain = advantage_increase_from_reduction(Fraction("0.5207"))
        assert abs(gain * 100 - Fraction("108.63")) <= Fraction("0.05")

    def test_increase_monotone_in_reduction(self):
        gains = [advantage_increase_from_reduction(Fraction(k, 100)) for k in range(0, 90, 7)]
        assert gains == sorted(gains)
        assert gains[0] == 0


class TestAnonymityEngine:
    """``anonymity_sets``: per pool its observed size and, per name, the
    reduced size and its exact reduction; per name, the mean of the
    reductions that are defined."""

    P10 = PoolConfig(pool_id="P10", coin="ETH", denomination=100)
    LINK = frozenset({LinkPair(D1, W1)})

    def test_idle_pool_has_no_reduction(self, p100):
        idle = view(p100, [deposit("P100", D1, 50)], t=10)
        sets, means = anonymity_sets([idle], {"P100": {"h2": self.LINK, "h3": frozenset()}})
        assert sets == {"P100": (0, {"h2": (0, None), "h3": (0, None)})}
        assert means == {}

    def test_emptied_set_is_left_out_of_its_own_mean_only(self, p100, p100_events):
        drained = view(self.P10, [deposit("P10", D1, 1), withdrawal("P10", W1, 2)], t=10)
        names = {"h2": self.LINK, "h3": frozenset()}
        sets, means = anonymity_sets([drained, view(p100, p100_events, 100)],
                                     {"P10": names, "P100": names})
        assert sets["P10"] == (1, {"h2": (0, None), "h3": (1, 0)})
        assert sets["P100"] == (2, {"h2": (1, Fraction(1, 2)), "h3": (2, 0)})
        assert list(sets) == ["P10", "P100"]
        assert means == {"h2": Fraction(1, 2), "h3": 0}

    def test_mean_is_the_exact_fraction_mean(self, p100, p100_events):
        events = [deposit("P10", D1, 1), deposit("P10", D2, 2), deposit("P10", addr("d3"), 3),
                  withdrawal("P10", W1, 4)]
        views = [view(p100, p100_events, 100), view(self.P10, events, 10)]
        sets, means = anonymity_sets(views, {v.pool.pool_id: {"h3": self.LINK} for v in views})
        assert [reduced["h3"] for _, reduced in sets.values()] == \
            [(1, Fraction(1, 2)), (2, Fraction(1, 3))]
        assert type(means["h3"]) is Fraction and means["h3"] == Fraction(5, 12)

    def test_combined_is_one_more_name(self, p100, p100_events):
        names = {"h1": frozenset(), "h2": self.LINK, "combined": self.LINK}
        sets, means = anonymity_sets([view(p100, p100_events, 100)], {"P100": names})
        _, reduced = sets["P100"]
        assert list(reduced) == list(means) == list(names)
        assert reduced["combined"] == reduced["h2"] == (1, Fraction(1, 2))
        assert means["combined"] == means["h2"]

    def test_means_keep_the_order_of_the_names(self, p100, p100_events):
        # the first pool's h2 set is emptied, so h3 has a reduction first
        drained = view(self.P10, [deposit("P10", D1, 1), withdrawal("P10", W1, 2)], t=10)
        names = {"h2": self.LINK, "h3": frozenset()}
        _, means = anonymity_sets([drained, view(p100, p100_events, 100)],
                                  {"P10": names, "P100": names})
        assert list(means) == ["h2", "h3"]


class TestHistogram:
    def test_single_pair_cluster(self):
        assert cluster_size_histogram([(D1, W1)]) == {2: 1}

    def test_counting(self):
        clusters = [tuple(addr(f"x{i}{j}") for j in range(size))
                    for i, size in enumerate((5, 2, 2))]
        histogram = cluster_size_histogram(clusters)
        assert histogram == {2: 2, 5: 1}
        assert list(histogram) == [2, 5]  # ascending size
        assert sum(Fraction(n, len(clusters)) for n in histogram.values()) == 1


class TestRelayerUsage:
    def test_all_relayed(self, p100):
        r = addr("rr")
        events = [withdrawal("P100", W1, 5, relayer=r),
                  withdrawal("P100", D2, 6, relayer=r)]
        (usage,) = relayer_usage([p100], count_relayers(events))
        assert usage.relayers == 1
        assert usage.relayed_withdrawal_share == 1
        assert usage.relayed_withdrawer_share == 1

    def test_no_relayers(self, p100, p100_events):
        (usage,) = relayer_usage([p100], count_relayers(p100_events))
        assert usage.relayers == 0
        assert usage.relayed_withdrawal_share == 0

    def test_no_withdrawal_has_no_share(self, p100, p100_events):
        deposits = [e for e in p100_events if e.kind == "deposit"]
        (usage,) = relayer_usage([p100], count_relayers(deposits))
        assert (usage.withdrawals, usage.withdrawers) == (0, 0)
        assert usage.relayed_withdrawal_share is None
        assert usage.relayed_withdrawer_share is None

    def test_mixed_counts(self, p100):
        r = addr("rr")
        events = [withdrawal("P100", W1, 5, relayer=r),
                  withdrawal("P100", W1, 6, relayer=r),
                  withdrawal("P100", D2, 7)]
        (usage,) = relayer_usage([p100], count_relayers(events))
        assert usage.relayed_withdrawal_share == Fraction(2, 3)
        assert usage.relayed_withdrawer_share == Fraction(1, 2)

    @pytest.mark.parametrize("kind", ["withdrawal", "deposit"])
    def test_event_of_another_pool_is_rejected(self, p100, kind):
        other = withdrawal("P10", D2, 6) if kind == "withdrawal" else deposit("P10", D2, 6)
        events = [withdrawal("P100", W1, 5), other]
        with pytest.raises(InputError, match="event for pool 'P10' passed to pool 'P100'"):
            relayer_usage([p100], count_relayers(events))

    def test_each_pool_counted_apart_in_the_order_given(self, p100):
        p10 = PoolConfig(pool_id="P10", coin="ETH", denomination=10)
        idle = PoolConfig(pool_id="P1", coin="ETH", denomination=1)
        r = addr("rr")
        events = [deposit("P10", D1, 4), withdrawal("P100", W1, 5, relayer=r),
                  withdrawal("P10", D2, 6), withdrawal("P100", D2, 7)]
        usage = relayer_usage([p10, idle, p100], count_relayers(events))
        assert [u.pool_id for u in usage] == ["P10", "P1", "P100"]
        assert [(u.relayers, u.withdrawals, u.relayed_withdrawals, u.withdrawers,
                 u.relayed_withdrawers) for u in usage] == [
            (0, 1, 0, 1, 0), (0, 0, 0, 0, 0), (1, 2, 1, 2, 1)]
        assert relayer_usage([], count_relayers([])) == ()


class TestFundThenDeposit:
    def _pools(self):
        return [PoolConfig(pool_id="P10", coin="ETH", denomination=10),
                PoolConfig(pool_id="P5855", coin="ETH", denomination=5855)]

    def test_withdraw_first_big_deposit_flagged(self):
        a = addr("atk")
        events = [withdrawal("P10", a, 100), deposit("P5855", a, 500)]
        (flag,) = fund_then_deposit_flags(self._pools(), withdraw_first(events), NO_LABELS,
                                          min_deposit=1000)
        assert flag.address == a
        assert flag.total_deposited == 5855
        assert flag.first_withdrawal.height == 100

    def test_deposit_first_not_flagged(self):
        a = addr("atk")
        events = [deposit("P5855", a, 100), withdrawal("P10", a, 500)]
        assert fund_then_deposit_flags(self._pools(), withdraw_first(events), NO_LABELS,
                                       min_deposit=1000) == ()

    def test_same_block_order_is_the_transaction_order(self):
        a = addr("atk")
        deposit_later = deposit("P5855", a, 10, tx=1)
        withdrawal_first = withdrawal("P10", a, 10, tx=0)
        (flag,) = fund_then_deposit_flags(self._pools(),
                                          withdraw_first([withdrawal_first, deposit_later]),
                                          NO_LABELS, min_deposit=1000)
        assert flag.first_withdrawal == withdrawal_first
        assert flag.first_deposit == deposit_later
        events = [deposit("P5855", a, 10, tx=0), withdrawal("P10", a, 10, tx=1)]
        assert fund_then_deposit_flags(self._pools(), withdraw_first(events), NO_LABELS,
                                       min_deposit=1000) == ()

    def test_a_deposit_at_the_withdrawals_own_position_does_not_follow_it(self):
        # record order puts P10's withdrawal first, but neither is before the other
        a = addr("atk")
        events = [withdrawal("P10", a, 10), deposit("P5855", a, 10), deposit("P5855", a, 11)]
        assert fund_then_deposit_flags(self._pools(), withdraw_first(events), NO_LABELS,
                                       min_deposit=1000) == ()

    def test_a_deposit_of_an_unknown_pool_is_rejected(self):
        a = addr("atk")
        events = [withdrawal("P10", a, 100), deposit("P7", a, 500)]
        with pytest.raises(InputError, match="event for unknown pool 'P7'"):
            fund_then_deposit_flags(self._pools(), withdraw_first(events), NO_LABELS)

    def test_below_threshold_not_flagged(self):
        a = addr("atk")
        events = [withdrawal("P10", a, 100), deposit("P10", a, 500)]
        for threshold, expect in ((11, 0), (10, 1), (9, 1)):
            flags = fund_then_deposit_flags(self._pools(), withdraw_first(events), NO_LABELS,
                                            min_deposit=threshold)
            assert len(flags) == expect

    def test_volume_is_counted_per_coin(self):
        # 1500 ETH units and 1000 BNB units are not 2500 of anything
        pools = [PoolConfig(pool_id="PA", coin="ETH", denomination=1500),
                 PoolConfig(pool_id="PB", coin="BNB", denomination=1000)]
        a = addr("atk")
        events = [withdrawal("PA", a, 100), deposit("PA", a, 200), deposit("PB", a, 300)]
        assert fund_then_deposit_flags(pools, withdraw_first(events), NO_LABELS) == ()
        events.append(deposit("PA", a, 400))
        (flag,) = fund_then_deposit_flags(pools, withdraw_first(events), NO_LABELS)
        assert flag.total_deposited == 3000


class TestReport:
    def test_report_fields_are_exact(self, p100, p100_events):
        v = view(p100, p100_events, 100)
        observed, size = len(v.depositors), len(reduced(v, h1_reuse(v).link_pairs))
        assert observed == 2
        assert adversary_advantage(observed) == Fraction(1, 2)
        assert advantage_increase_from_reduction(Fraction(observed - size, observed)) == \
            Fraction(observed, size) - 1

    def test_drained_pool_raises(self, p100):
        events = [deposit("P100", D1, 1), withdrawal("P100", D1, 2)]
        v = view(p100, events, 10)
        with pytest.raises(DomainError):
            adversary_advantage(len(reduced(v, h1_reuse(v).link_pairs)))


class TestRendering:
    @pytest.mark.parametrize("value,expect", [
        (Fraction(229, 613), "0.37"),
        (Fraction(458, 842), "0.54"),
        (Fraction(50, 53), "0.94"),
        (Fraction(50, 126), "0.40"),
        (Fraction(100, 179), "0.56"),
        (Fraction(1, 1), "1.00"),
        (Fraction(1, 8), "0.13"),      # half rounds up
        (Fraction(-1, 8), "-0.13"),
    ])
    def test_two_decimal_half_up(self, value, expect):
        assert render_ratio(value) == expect

    def test_percent(self):
        assert render_percent(Fraction(3418, 10000)) == "34.18%"
