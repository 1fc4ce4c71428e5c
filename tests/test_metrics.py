from __future__ import annotations

from fractions import Fraction

import pytest

from anonset.errors import DomainError, InputError
from anonset.heuristics import h1_reuse
from anonset.indexing import LabelBook
from anonset.ledger import PoolConfig, pool_state
from anonset.metrics import (
    adversary_advantage,
    advantage_increase_from_reduction,
    cluster_size_histogram,
    fund_then_deposit_flags,
    relative_advantage_increase,
    relayer_usage,
    render_percent,
    render_ratio,
)

from .conftest import D1, D2, W1, addr, deposit, view, withdrawal

NO_LABELS = LabelBook({})


class TestAnonymitySets:
    def test_observed_is_unique_deposit_addresses(self, p100, p100_events):
        assert view(p100, p100_events, t=100).depositors == {D1, D2}

    def test_duplicate_depositor_counted_once(self, p100):
        events = [deposit("P100", D1, 1), deposit("P100", D1, 2)]
        assert view(p100, events, t=10).depositors == {D1}

    def test_true_set_is_positive_balances(self, p100, p100_events):
        state = pool_state(p100, p100_events, t=100)
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

    def test_relative_increase_is_exact_ratio(self):
        assert relative_advantage_increase(4108, 3476) == Fraction(4108, 3476) - 1
        assert relative_advantage_increase(10, 10) == 0

    def test_reduced_set_larger_than_observed_rejected(self):
        with pytest.raises(InputError):
            relative_advantage_increase(5, 6)
        with pytest.raises(DomainError):
            relative_advantage_increase(5, 0)

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
        usage = relayer_usage(p100, events)
        assert usage.relayers == 1
        assert usage.relayed_withdrawal_share == 1
        assert usage.relayed_withdrawer_share == 1

    def test_no_relayers(self, p100, p100_events):
        usage = relayer_usage(p100, p100_events)
        assert usage.relayers == 0
        assert usage.relayed_withdrawal_share == 0

    def test_mixed_counts(self, p100):
        r = addr("rr")
        events = [withdrawal("P100", W1, 5, relayer=r),
                  withdrawal("P100", W1, 6, relayer=r),
                  withdrawal("P100", D2, 7)]
        usage = relayer_usage(p100, events)
        assert usage.relayed_withdrawal_share == Fraction(2, 3)
        assert usage.relayed_withdrawer_share == Fraction(1, 2)


class TestFundThenDeposit:
    def _pools(self):
        return [PoolConfig(pool_id="P10", coin="ETH", denomination=10),
                PoolConfig(pool_id="P5855", coin="ETH", denomination=5855)]

    def test_withdraw_first_big_deposit_flagged(self):
        a = addr("atk")
        events = [withdrawal("P10", a, 100), deposit("P5855", a, 500)]
        (flag,) = fund_then_deposit_flags(self._pools(), events, NO_LABELS,
                                          min_deposit=1000)
        assert flag.address == a
        assert flag.total_deposited == 5855
        assert flag.first_withdrawal.block.height == 100

    def test_deposit_first_not_flagged(self):
        a = addr("atk")
        events = [deposit("P5855", a, 100), withdrawal("P10", a, 500)]
        assert fund_then_deposit_flags(self._pools(), events, NO_LABELS,
                                       min_deposit=1000) == ()

    def test_below_threshold_not_flagged(self):
        a = addr("atk")
        events = [withdrawal("P10", a, 100), deposit("P10", a, 500)]
        for threshold, expect in ((11, 0), (10, 1), (9, 1)):
            flags = fund_then_deposit_flags(self._pools(), events, NO_LABELS,
                                            min_deposit=threshold)
            assert len(flags) == expect

    def test_volume_is_counted_per_coin(self):
        # 1500 ETH units and 1000 BNB units are not 2500 of anything
        pools = [PoolConfig(pool_id="PA", coin="ETH", denomination=1500),
                 PoolConfig(pool_id="PB", coin="BNB", denomination=1000)]
        a = addr("atk")
        events = [withdrawal("PA", a, 100), deposit("PA", a, 200), deposit("PB", a, 300)]
        assert fund_then_deposit_flags(pools, events, NO_LABELS) == ()
        (flag,) = fund_then_deposit_flags(pools, events + [deposit("PA", a, 400)], NO_LABELS)
        assert flag.total_deposited == 3000


class TestReport:
    def test_report_fields_are_exact(self, p100, p100_events):
        v = view(p100, p100_events, 100)
        observed, reduced = len(v.depositors), h1_reuse(v).size
        assert observed == 2
        assert adversary_advantage(observed) == Fraction(1, 2)
        assert relative_advantage_increase(observed, reduced) == Fraction(observed, reduced) - 1

    def test_drained_pool_raises(self, p100):
        events = [deposit("P100", D1, 1), withdrawal("P100", D1, 2)]
        v = view(p100, events, 10)
        with pytest.raises(DomainError):
            adversary_advantage(h1_reuse(v).size)


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
