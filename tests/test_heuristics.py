from __future__ import annotations

import random

import pytest

from anonset.errors import InputError
from anonset.heuristics import (
    combine,
    h1_reuse,
    h2_improper_sender,
    h3_related_pair,
    h4_intermediary,
    h5_cross_pool,
    pool_view,
)
from anonset.indexing import LabelBook, build_index
from anonset.ledger import (
    LinkPair,
    PoolConfig,
    deposit_actors,
    pool_state,
    simplify_state,
    withdrawal_actors,
)

from .conftest import addr, deposit, transfer, view, withdrawal

D, W, R, F = addr("hd"), addr("hw"), addr("hr"), addr("hf")


class TestH1Reuse:
    def test_partial_withdrawer_stays(self, p100):
        events = [deposit("P100", D, 1), deposit("P100", D, 2),
                  withdrawal("P100", D, 3)]
        result = h1_reuse(view(p100, events, 10))
        assert D in result.anonymity_set
        assert result.link_pairs == frozenset()

    def test_fully_withdrawn_reuser_drops_out(self, p100):
        events = [deposit("P100", D, 1), withdrawal("P100", D, 3)]
        result = h1_reuse(view(p100, events, 10))
        assert D not in result.anonymity_set

    def test_set_is_positive_balance_depositors(self, p100, p100_events):
        result = h1_reuse(view(p100, p100_events, 100))
        state = pool_state(p100, p100_events, t=100)
        assert result.anonymity_set == {a for a, b in state.items() if b > 0}


class TestH2ImproperSender:
    def test_depositor_signing_for_another_recipient_links(self, p100):
        events = [deposit("P100", D, 1),
                  withdrawal("P100", W, 5, sender=D)]
        result = h2_improper_sender(view(p100, events, 10))
        assert result.link_pairs == {LinkPair(D, W)}

    def test_registered_relayer_excluded(self, p100):
        events = [deposit("P100", D, 1), deposit("P100", R, 2),
                  withdrawal("P100", W, 5, sender=R)]
        labels = LabelBook({R: ["relayer"]})
        assert h2_improper_sender(view(p100, events, 10, labels=labels)).link_pairs == frozenset()

    def test_relayed_event_excluded_even_if_unregistered(self, p100):
        events = [deposit("P100", R, 2),
                  withdrawal("P100", W, 5, relayer=R)]
        assert h2_improper_sender(view(p100, events, 10)).link_pairs == frozenset()

    def test_self_withdrawal_is_not_h2(self, p100):
        events = [deposit("P100", D, 1), withdrawal("P100", D, 5)]
        assert h2_improper_sender(view(p100, events, 10)).link_pairs == frozenset()

    def test_nondepositor_sender_ignored(self, p100):
        events = [withdrawal("P100", W, 5, sender=D)]
        assert h2_improper_sender(view(p100, events, 10)).link_pairs == frozenset()


class TestH3RelatedPair:
    def test_token_transfer_links(self, p100):
        events = [deposit("P100", D, 1), withdrawal("P100", W, 5)]
        index = build_index([], [transfer(D, W, 7, 8, coin="UNI")], events, None)
        result = h3_related_pair(pool_view(index, p100, 10))
        assert result.link_pairs == {LinkPair(D, W)}

    def test_transfer_after_cut_ignored(self, p100):
        events = [deposit("P100", D, 1), withdrawal("P100", W, 5)]
        index = build_index([], [transfer(D, W, 7, 30, coin="UNI")], events, None)
        assert h3_related_pair(pool_view(index, p100, 10)).link_pairs == frozenset()

    def test_reverse_direction_native_links(self, p100):
        events = [deposit("P100", D, 1), withdrawal("P100", W, 5)]
        index = build_index([transfer(W, D, 7, 8)], [], events, None)
        assert h3_related_pair(pool_view(index, p100, 10)).link_pairs == {LinkPair(D, W)}

    def test_matches_pairwise_scan_oracle(self, p100):
        rng = random.Random(5)
        actors = [addr(f"h3{i}") for i in range(10)]
        events = []
        for i, a in enumerate(actors):
            if i % 2 == 0:
                events.append(deposit("P100", a, i + 1))
            else:
                events.append(withdrawal("P100", a, i + 1))
        transfers, tokens = [], []
        for h in range(30):
            a, b = rng.sample(actors, 2)
            rec = transfer(a, b, rng.randrange(1, 9), h, coin=rng.choice(["ETH", "UNI"]))
            (transfers if rec.coin == "ETH" else tokens).append(rec)
        t = 22
        index = build_index(transfers, tokens, events, None)
        got = h3_related_pair(pool_view(index, p100, t)).link_pairs
        deps = deposit_actors(events, t)
        wds = withdrawal_actors(events, t)
        expected = set()
        for d in deps:
            for w in wds:
                if d == w:
                    continue
                for tr in transfers + tokens:
                    if tr.block.height <= t and {tr.sender, tr.recipient} == {d, w}:
                        expected.add(LinkPair(d, w))
        assert got == expected


class TestH4Intermediary:
    def test_single_eoa_funder_links_and_cluster_counts_once(self, p100):
        events = [deposit("P100", D, 5)]
        index = build_index([transfer(F, D, 100, 2)], [], events, None)
        result = h4_intermediary(pool_view(index, p100, 10))
        assert result.link_pairs == {LinkPair(D, F)}
        # the funder cluster appears once, represented inside the depositor set
        assert result.anonymity_set == {D}

    def test_two_funders_no_link(self, p100):
        events = [deposit("P100", D, 5)]
        index = build_index([transfer(F, D, 60, 2), transfer(W, D, 40, 3)],
                            [], events, None)
        assert h4_intermediary(pool_view(index, p100, 10)).link_pairs == frozenset()

    def test_exchange_funder_excluded(self, p100):
        events = [deposit("P100", D, 5)]
        labels = LabelBook({F: ["exchange"]})
        index = build_index([transfer(F, D, 100, 2)], [], events, labels)
        assert h4_intermediary(pool_view(index, p100, 10)).link_pairs == frozenset()

    def test_self_transfers_ignored(self, p100):
        events = [deposit("P100", D, 5)]
        index = build_index([transfer(D, D, 40, 1), transfer(F, D, 100, 2)],
                            [], events, None)
        result = h4_intermediary(pool_view(index, p100, 10))
        assert result.link_pairs == {LinkPair(D, F)}

    def test_funding_after_cut_not_counted(self, p100):
        events = [deposit("P100", D, 5)]
        index = build_index([transfer(F, D, 100, 50)], [], events, None)
        assert h4_intermediary(pool_view(index, p100, 10)).link_pairs == frozenset()


def _two_pools():
    return (PoolConfig(pool_id="PA", coin="ETH", denomination=100),
            PoolConfig(pool_id="PB", coin="ETH", denomination=7))


def _views(pools, events, t):
    index = build_index([], [], events)
    return [pool_view(index, p, t) for p in pools]


class TestH5CrossPool:
    def test_matching_pattern_links(self):
        pa, pb = _two_pools()
        events = [deposit("PA", D, 1), deposit("PB", D, 2),
                  withdrawal("PA", W, 5), withdrawal("PB", W, 6)]
        results = h5_cross_pool(_views([pa, pb], events, 10))
        assert results["PA"].link_pairs == {LinkPair(D, W)}
        assert results["PB"].link_pairs == {LinkPair(D, W)}

    def test_withdrawal_before_deposit_breaks_match(self):
        pa, pb = _two_pools()
        events = [deposit("PA", D, 1), deposit("PB", D, 7),
                  withdrawal("PA", W, 5), withdrawal("PB", W, 6)]
        results = h5_cross_pool(_views([pa, pb], events, 10))
        assert results["PA"].link_pairs == frozenset()

    def test_single_shared_pool_is_not_enough(self):
        pa, pb = _two_pools()
        events = [deposit("PA", D, 1), withdrawal("PA", W, 5)]
        results = h5_cross_pool(_views([pa, pb], events, 10))
        assert results["PA"].link_pairs == frozenset()

    def test_per_pool_counts_must_match(self):
        pa, pb = _two_pools()
        events = [deposit("PA", D, 1), deposit("PA", D, 2), deposit("PB", D, 3),
                  withdrawal("PA", W, 5), withdrawal("PB", W, 6)]
        results = h5_cross_pool(_views([pa, pb], events, 10))
        assert results["PA"].link_pairs == frozenset()

    def test_needs_two_pools(self):
        pa, _ = _two_pools()
        with pytest.raises(InputError):
            h5_cross_pool(_views([pa], [], 10))


class TestCombine:
    def test_self_combination_is_idempotent(self, p100):
        events = [deposit("P100", D, 1), withdrawal("P100", W, 5, sender=D)]
        v = view(p100, events, 10)
        r = h2_improper_sender(v)
        combined = combine(v, [r, r])
        assert combined.link_pairs == r.link_pairs
        assert combined.anonymity_set == r.anonymity_set

    def test_disjoint_links_equal_sequential_simplification(self, p100):
        a, b, c, d = (addr(f"cm{i}") for i in range(4))
        events = [deposit("P100", a, 1), deposit("P100", c, 2),
                  withdrawal("P100", b, 5), withdrawal("P100", d, 6)]
        pair_ab, pair_cd = LinkPair(a, b), LinkPair(c, d)
        state = pool_state(p100, events, t=10)
        sequential = simplify_state(simplify_state(state, [pair_ab]), [pair_cd])
        import dataclasses

        v = view(p100, events, 10)
        r1 = dataclasses.replace(h1_reuse(v), heuristic="x", link_pairs=frozenset({pair_ab}))
        r2 = dataclasses.replace(h1_reuse(v), heuristic="y", link_pairs=frozenset({pair_cd}))
        combined = combine(v, [r1, r2])
        positive = {a for a, b in sequential.items() if b > 0}
        assert len(combined.anonymity_set) == len(positive)

    def test_mixed_cuts_rejected(self, p100, p100_events):
        r1 = h1_reuse(view(p100, p100_events, 10))
        r2 = h1_reuse(view(p100, p100_events, 20))
        with pytest.raises(InputError):
            combine(view(p100, p100_events, 10), [r1, r2])

    def test_combined_never_larger_than_inputs(self, p100):
        events = [deposit("P100", D, 1), deposit("P100", F, 2),
                  withdrawal("P100", W, 5, sender=D)]
        v = view(p100, events, 10, transfers=[transfer(F, W, 3, 6)])
        r2 = h2_improper_sender(v)
        r3 = h3_related_pair(v)
        combined = combine(v, [r2, r3])
        assert combined.size <= min(r2.size, r3.size)


class TestContainmentInvariants:
    def test_every_heuristic_set_is_subset_of_observed(self, p100):
        events = [deposit("P100", D, 1), deposit("P100", F, 2),
                  withdrawal("P100", W, 5, sender=D),
                  withdrawal("P100", D, 6)]
        v = view(p100, events, 10, transfers=[transfer(F, W, 3, 7)])
        observed = deposit_actors(events, 10)
        results = [h1_reuse(v), h2_improper_sender(v), h3_related_pair(v), h4_intermediary(v)]
        for r in results:
            assert r.anonymity_set <= observed
