from __future__ import annotations

import random
from collections import Counter
from collections.abc import Sequence
from itertools import chain

import pytest

from anonset.errors import InputError
from anonset.heuristics import (
    h1_reuse,
    h2_improper_sender,
    h3_related_pair,
    h4_intermediary,
    h5_cross_pool,
    pool_view,
)
from anonset.indexing import LabelBook, LedgerIndex, build_index
from anonset.ledger import (
    DEPOSIT,
    WITHDRAWAL,
    LinkPair,
    PoolConfig,
    event_order,
    pool_state,
    position,
    reduced_set,
    up_to,
)

from anonset.synth import (
    BEHAVIORS,
    BehaviorProfile,
    GeneratorConfig,
    generate_trace,
    standard_pools,
)

from .conftest import addr, deposit, reduced, transfer, view, withdrawal

D, W, R, F = addr("hd"), addr("hw"), addr("hr"), addr("hf")


class TestPoolViewMatchesReplay:
    """``pool_view`` reads the index's per-actor counts; a replay of the
    pool's events by ``pool_state`` and two actor-set comprehensions is its
    oracle, on seeded traces cut at every tenth of their block span.  The
    per-actor lists, merged, are the pool's events in index order."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_mixed_trace_at_every_tenth(self, seed):
        cfg = GeneratorConfig(profile=BehaviorProfile.from_weights({b: 1 for b in BEHAVIORS}),
                              pools=standard_pools(), user_count=48, block_span=2400)
        trace = generate_trace(cfg, seed)
        first, last = trace.first_block, trace.last_block
        # a pool nobody uses, and an address that only withdraws
        idle = PoolConfig(pool_id="P-idle", coin="ETH", denomination=3)
        pool, loner = trace.pools[0], addr("withdraws-only")
        events = [*trace.events, withdrawal(pool.pool_id, loner, first + (last - first) // 2)]
        negative = 0
        for step in range(11):
            t = first + (last - first) * step // 10
            history = up_to(events, t)
            index = build_index(up_to(trace.transfers, t), up_to(trace.token_transfers, t),
                                history)
            for p in (*trace.pools, idle):
                v = pool_view(index, p)
                own = [e for e in history if e.pool_id == p.pool_id]
                assert v.state == pool_state(p, own), (seed, t, p.pool_id)
                assert v.depositors == {e.actor for e in own if e.kind == DEPOSIT}
                assert v.withdrawers == {e.actor for e in own if e.kind == WITHDRAWAL}
                lists = [*index.actor_events(p.pool_id, DEPOSIT).values(),
                         *index.actor_events(p.pool_id, WITHDRAWAL).values()]
                assert all(events == sorted(events, key=event_order) for events in lists)
                assert sorted(chain.from_iterable(lists), key=event_order) == \
                    sorted(own, key=event_order)
            idle_view = pool_view(index, idle)
            assert idle_view.state == {} and not idle_view.depositors | idle_view.withdrawers
            negative += pool_view(index, pool).state.get(loner, 0) < 0
        assert negative == 6  # the cuts from the middle on


class TestH1Reuse:
    def test_partial_withdrawer_stays(self, p100):
        events = [deposit("P100", D, 1), deposit("P100", D, 2),
                  withdrawal("P100", D, 3)]
        v = view(p100, events, 10)
        result = h1_reuse(v)
        assert D in reduced(v, result.link_pairs)
        assert result.link_pairs == frozenset()

    def test_fully_withdrawn_reuser_drops_out(self, p100):
        events = [deposit("P100", D, 1), withdrawal("P100", D, 3)]
        v = view(p100, events, 10)
        assert D not in reduced(v, h1_reuse(v).link_pairs)

    def test_set_is_positive_balance_depositors(self, p100, p100_events):
        v = view(p100, p100_events, 100)
        state = pool_state(p100, p100_events)
        assert reduced(v, h1_reuse(v).link_pairs) == {a for a, b in state.items() if b > 0}


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
        result = h3_related_pair(pool_view(index, p100))
        assert result.link_pairs == {LinkPair(D, W)}

    def test_transfer_after_cut_ignored(self, p100):
        events = [deposit("P100", D, 1), withdrawal("P100", W, 5)]
        v = view(p100, events, 10, tokens=[transfer(D, W, 7, 30, coin="UNI")])
        assert h3_related_pair(v).link_pairs == frozenset()

    def test_reverse_direction_native_links(self, p100):
        events = [deposit("P100", D, 1), withdrawal("P100", W, 5)]
        index = build_index([transfer(W, D, 7, 8)], [], events, None)
        assert h3_related_pair(pool_view(index, p100)).link_pairs == {LinkPair(D, W)}

    def test_one_scan_serves_every_pool_of_an_index(self, p100):
        p10 = PoolConfig(pool_id="P10", coin="ETH", denomination=10)
        d, w, other, outsider = (addr(f"h3{tag}") for tag in ("d", "w", "o", "x"))
        events = [deposit("P100", d, 1), withdrawal("P100", w, 2),
                  deposit("P10", other, 3), withdrawal("P10", d, 4)]
        transfers = [transfer(d, w, 5, 5), transfer(other, other, 5, 6),
                     transfer(outsider, d, 5, 7), transfer(w, other, 5, 8)]
        index = build_index(transfers, [transfer(other, d, 1, 9, coin="UNI")], events, None)
        assert index.actor_transfer_pairs == {(d, w), (w, other), (other, d)}
        assert index.actor_transfer_pairs is index.actor_transfer_pairs
        assert h3_related_pair(pool_view(index, p100)).link_pairs == {LinkPair(d, w)}
        assert h3_related_pair(pool_view(index, p10)).link_pairs == {LinkPair(other, d)}

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
        got = h3_related_pair(view(p100, events, t, transfers, tokens)).link_pairs
        deps = {e.actor for e in up_to(events, t) if e.kind == DEPOSIT}
        wds = {e.actor for e in up_to(events, t) if e.kind == WITHDRAWAL}
        expected = set()
        for d in deps:
            for w in wds:
                if d == w:
                    continue
                for tr in transfers + tokens:
                    if tr.height <= t and {tr.sender, tr.recipient} == {d, w}:
                        expected.add(LinkPair(d, w))
        assert got == expected


class TestH4Intermediary:
    def test_single_eoa_funder_links_and_cluster_counts_once(self, p100):
        events = [deposit("P100", D, 5)]
        index = build_index([transfer(F, D, 100, 2)], [], events, None)
        v = pool_view(index, p100)
        result = h4_intermediary(v)
        assert result.link_pairs == {LinkPair(D, F)}
        # the funder cluster appears once, represented inside the depositor set
        assert reduced(v, result.link_pairs) == {D}

    def test_two_funders_no_link(self, p100):
        events = [deposit("P100", D, 5)]
        index = build_index([transfer(F, D, 60, 2), transfer(W, D, 40, 3)],
                            [], events, None)
        assert h4_intermediary(pool_view(index, p100)).link_pairs == frozenset()

    def test_exchange_funder_excluded(self, p100):
        events = [deposit("P100", D, 5)]
        labels = LabelBook({F: ["exchange"]})
        index = build_index([transfer(F, D, 100, 2)], [], events, labels)
        assert h4_intermediary(pool_view(index, p100)).link_pairs == frozenset()

    def test_self_transfers_ignored(self, p100):
        events = [deposit("P100", D, 5)]
        index = build_index([transfer(D, D, 40, 1), transfer(F, D, 100, 2)],
                            [], events, None)
        result = h4_intermediary(pool_view(index, p100))
        assert result.link_pairs == {LinkPair(D, F)}

    def test_funding_after_cut_not_counted(self, p100):
        events = [deposit("P100", D, 5)]
        v = view(p100, events, 10, transfers=[transfer(F, D, 100, 50)])
        assert h4_intermediary(v).link_pairs == frozenset()


def oracle_sole_funder(index: LedgerIndex, address: str) -> str | None:
    """The per-depositor rule h4 ran before its per-index map: the positive,
    non-self native funders of ``address`` are one user account."""
    funders = {tr.sender for tr in index.native_transfers
               if tr.recipient == address and tr.amount > 0 and tr.sender != address}
    if len(funders) != 1:
        return None
    (funder,) = funders
    return funder if index.labels.is_user_account(funder) else None


def assert_sole_funders_match(index: LedgerIndex, pools) -> int:
    """Check ``index.sole_funders`` and h4 on every pool against the
    oracle; returns how many h4 links the pools get."""
    addresses = {a for t in index.native_transfers for a in (t.sender, t.recipient)}
    addresses |= {e.actor for e in index.pool_events}
    expected = {a: f for a in addresses if (f := oracle_sole_funder(index, a))}
    assert dict(index.sole_funders) == expected
    links = 0
    for pool in pools:
        v = pool_view(index, pool)
        pairs = {LinkPair(d, f) for d in v.depositors
                 if (f := oracle_sole_funder(index, d))}
        assert h4_intermediary(v).link_pairs == pairs, pool.pool_id
        links += len(pairs)
    return links


class TestSoleFundersMatchThePerDepositorRule:
    """``LedgerIndex.sole_funders``, one pass per index, against the rule h4
    applied to each depositor, on seeded traces and on the edge cases."""

    @pytest.mark.parametrize("seed", [4, 17])
    def test_mixed_trace_at_every_tenth(self, seed):
        cfg = GeneratorConfig(profile=BehaviorProfile.from_weights({b: 1 for b in BEHAVIORS}),
                              pools=standard_pools(), user_count=60, block_span=2400)
        trace = generate_trace(cfg, seed)
        first, last = trace.first_block, trace.last_block
        links = []
        for step in range(11):
            t = first + (last - first) * step // 10
            index = build_index(up_to(trace.transfers, t), up_to(trace.token_transfers, t),
                                up_to(trace.events, t), dict(trace.labels))
            links.append(assert_sole_funders_match(index, trace.pools))
        assert links[-1] > 0

    def test_edge_cases(self, p100):
        d_late, d_self, d_zero, d_exch, d_contract, funder = (
            addr(f"e{i}") for i in range(6))
        f1, f2, exchange, contract = addr("f1"), addr("f2"), addr("ex"), addr("ct")
        labels = LabelBook({exchange: ["exchange"], contract: ["contract"]})
        events = [deposit("P100", d, 10 + i) for i, d in enumerate(
            (d_late, d_self, d_zero, d_exch, d_contract, funder))]
        transfers = [
            transfer(f1, d_late, 100, 2), transfer(f2, d_late, 5, 30),  # a later second funder
            transfer(d_self, d_self, 50, 1), transfer(f1, d_self, 100, 3),  # a self-transfer
            transfer(f2, d_zero, 0, 1), transfer(f1, d_zero, 100, 4),  # a zero amount
            transfer(exchange, d_exch, 100, 5),  # an exchange funder
            transfer(contract, d_contract, 100, 6),  # a contract funder
            transfer(funder, d_contract, 1, 7),  # ... and a user account beside it
            transfer(f2, funder, 100, 1), transfer(funder, d_exch, 0, 8),
        ]
        # a funder that is itself a depositor
        transfers.append(transfer(funder, addr("e6"), 100, 9))
        events.append(deposit("P100", addr("e6"), 20))
        before, after = (build_index(up_to(transfers, t), [], up_to(events, t), labels)
                         for t in (25, 40))
        assert assert_sole_funders_match(before, [p100]) == 5
        assert assert_sole_funders_match(after, [p100]) == 4
        sole = after.sole_funders
        assert (sole[d_self], sole[d_zero], sole[funder], sole[addr("e6")]) == (
            f1, f1, f2, funder)
        assert d_late not in sole and d_exch not in sole and d_contract not in sole
        assert before.sole_funders[d_late] == f1


def _two_pools():
    return (PoolConfig(pool_id="PA", coin="ETH", denomination=100),
            PoolConfig(pool_id="PB", coin="ETH", denomination=7))


def _views(pools, events):
    index = build_index([], [], events)
    return [pool_view(index, p) for p in pools]


class TestH5CrossPool:
    def test_matching_pattern_links(self):
        pa, pb = _two_pools()
        events = [deposit("PA", D, 1), deposit("PB", D, 2),
                  withdrawal("PA", W, 5), withdrawal("PB", W, 6)]
        results = h5_cross_pool(_views([pa, pb], events))
        assert results["PA"].link_pairs == {LinkPair(D, W)}
        assert results["PB"].link_pairs == {LinkPair(D, W)}

    def test_withdrawal_before_deposit_breaks_match(self):
        pa, pb = _two_pools()
        events = [deposit("PA", D, 1), deposit("PB", D, 7),
                  withdrawal("PA", W, 5), withdrawal("PB", W, 6)]
        results = h5_cross_pool(_views([pa, pb], events))
        assert results["PA"].link_pairs == frozenset()

    def test_same_block_order_is_the_transaction_order(self):
        pa, pb = _two_pools()
        # PA's deposit and withdrawal share block 10; only the transaction
        # index says which came first
        wd_first = [deposit("PA", D, 10, tx=1), deposit("PB", D, 2),
                    withdrawal("PA", W, 10, tx=0), withdrawal("PB", W, 6)]
        assert h5_cross_pool(_views([pa, pb], wd_first))["PA"].link_pairs == frozenset()
        dep_first = [deposit("PA", D, 10, tx=0), deposit("PB", D, 2),
                     withdrawal("PA", W, 10, tx=1), withdrawal("PB", W, 6)]
        results = h5_cross_pool(_views([pa, pb], dep_first))
        assert results["PA"].link_pairs == {LinkPair(D, W)}
        assert results["PB"].link_pairs == {LinkPair(D, W)}

    def test_single_shared_pool_is_not_enough(self):
        pa, pb = _two_pools()
        events = [deposit("PA", D, 1), withdrawal("PA", W, 5)]
        results = h5_cross_pool(_views([pa, pb], events))
        assert results["PA"].link_pairs == frozenset()

    def test_per_pool_counts_must_match(self):
        pa, pb = _two_pools()
        events = [deposit("PA", D, 1), deposit("PA", D, 2), deposit("PB", D, 3),
                  withdrawal("PA", W, 5), withdrawal("PB", W, 6)]
        results = h5_cross_pool(_views([pa, pb], events))
        assert results["PA"].link_pairs == frozenset()

    def test_needs_two_pools(self):
        pa, _ = _two_pools()
        with pytest.raises(InputError):
            h5_cross_pool(_views([pa], []))

    def test_views_from_two_indexes_rejected(self):
        pa, pb = _two_pools()
        events = [deposit("PA", D, 1), deposit("PB", D, 2),
                  withdrawal("PA", W, 5), withdrawal("PB", W, 6)]
        with pytest.raises(InputError, match="one index"):
            h5_cross_pool([view(pa, events, 5), view(pb, events, 10)])


class _CountedEvents(Sequence):
    """An index's event list that counts every read of it."""

    def __init__(self, events):
        self.events, self.reads = events, 0

    def __getitem__(self, i):
        self.reads += 1
        return self.events[i]

    def __len__(self):
        self.reads += 1
        return len(self.events)

    def __iter__(self):
        self.reads += 1
        return iter(self.events)


class TestH5ReadsTheIndex:
    """A guard that needs no clock: h2 and h5 build no per-actor event list,
    and each walks the index's full event list at most once per index: h2
    for its one list of the withdrawals signed for another address, shared
    by every pool, and h5 for the events of the addresses its signatures
    match."""

    def test_each_walks_the_events_at_most_once(self):
        cfg = GeneratorConfig(profile=BehaviorProfile.from_weights({b: 1 for b in BEHAVIORS}),
                              pools=standard_pools(), user_count=150, block_span=3000)
        trace = generate_trace(cfg, 11)

        def views_of_a_new_index():
            index = build_index(trace.transfers, trace.token_transfers, trace.events,
                                dict(trace.labels))
            return index, [pool_view(index, p) for p in trace.pools]

        _, views = views_of_a_new_index()
        expected = h5_cross_pool(views), [h2_improper_sender(v) for v in views]
        index, views = views_of_a_new_index()
        index.pool_events = counted = _CountedEvents(index.pool_events)
        assert [h2_improper_sender(v) for v in views] == expected[1]
        assert [h2_improper_sender(v) for v in views] == expected[1]
        assert counted.reads == 1
        got = h5_cross_pool(views)
        assert counted.reads == 2
        assert got == expected[0]
        assert any(r.link_pairs for r in got.values())
        assert any(r.link_pairs for r in expected[1])
        assert "_lists" not in vars(index)


def h5_every_actor(views) -> dict[str, frozenset[LinkPair]]:
    """h5 as it was before the cross-pool prefilter: a per-pool event table
    for every actor of the index, of which only those in two or more pools
    of one coin are kept.  Slow in memory, and plainly the rule."""
    view_list = sorted(views, key=lambda v: v.pool.pool_id)
    index = view_list[0].index

    def signature(per_pool):
        return tuple(sorted((pid, len(events)) for pid, events in per_pool.items()))

    coin_of = {v.pool.pool_id: v.pool.coin for v in view_list}
    pairs_by_pool = {pid: set() for pid in coin_of}
    dep_events, wd_events = {}, {}
    for pid, coin in coin_of.items():
        for kind, table in ((DEPOSIT, dep_events), (WITHDRAWAL, wd_events)):
            for actor, events in index.actor_events(pid, kind).items():
                table.setdefault((coin, actor), {})[pid] = events
    by_sig_d, by_sig_w = {}, {}
    for d, per_pool in dep_events.items():
        if len(per_pool) > 1:
            by_sig_d.setdefault(signature(per_pool), []).append(d)
    for w, per_pool in wd_events.items():
        if len(per_pool) > 1:
            by_sig_w.setdefault(signature(per_pool), []).append(w)
    for sig, ds in by_sig_d.items():
        for w in by_sig_w.get(sig, []):
            for d in ds:
                if d == w:
                    continue
                if all(all(position(dep) < position(wd)
                           for dep, wd in zip(dep_events[d][pid], wd_events[w][pid]))
                       for pid, _count in sig):
                    for pid, _count in sig:
                        pairs_by_pool[pid].add(LinkPair(d[1], w[1]))
    return {pid: frozenset(pairs) for pid, pairs in pairs_by_pool.items()}


# four ETH pools, three BNB pools and one pool alone in its coin
CROSS_POOLS = tuple(PoolConfig(pool_id=pid, coin=coin, denomination=1) for pid, coin in (
    ("E1", "ETH"), ("E2", "ETH"), ("E3", "ETH"), ("E4", "ETH"),
    ("B1", "BNB"), ("B2", "BNB"), ("B3", "BNB"), ("X1", "XDAI")))


def cross_pool_events(rng: random.Random, owners: int = 8, rounds: int = 12) -> list:
    """Seeded events of few owners, each round a depositor and a withdrawer
    (the same address at times) using one to all pools of one coin with
    one or two events per pool, at few heights and transaction indexes,
    so counts collide, positions tie and addresses span both coins."""
    people = [addr(f"x5{i}") for i in range(owners)]
    events = []
    for _ in range(rounds):
        coin = rng.choice(("ETH", "BNB", "XDAI"))
        pools = [p.pool_id for p in CROSS_POOLS if p.coin == coin]
        d, w = rng.choice(people), rng.choice(people)
        for pid in rng.sample(pools, rng.randint(1, len(pools))):
            for _ in range(rng.randint(1, 2)):
                events.append(deposit(pid, d, rng.randrange(1, 12), tx=rng.randrange(2)))
                events.append(withdrawal(pid, w, rng.randrange(1, 12), tx=rng.randrange(2)))
    return list(dict.fromkeys(events))


class TestH5MatchesEveryActorOracle:
    def test_random_traces(self):
        linked = self_matched = tied = across_coins = 0
        for seed in range(300):
            rng = random.Random(seed)
            events = cross_pool_events(rng)
            index = build_index([], [], events)
            pools = CROSS_POOLS if seed % 3 else rng.sample(CROSS_POOLS, rng.randint(2, 5))
            views = [pool_view(index, p) for p in pools]
            got = {pid: r.link_pairs for pid, r in h5_cross_pool(views).items()}
            assert got == h5_every_actor(views), seed
            linked += any(got.values())
            positions = [position(e) for e in events]
            tied += len(set(positions)) < len(positions)
            # per address, coin (a pool id's first letter) and kind: events per pool
            counts: dict[tuple, Counter] = {}
            for e in events:
                counts.setdefault((e.actor, e.pool_id[0], e.kind), Counter())[e.pool_id] += 1
            self_matched += any(len(c) > 1 and c == counts.get((a, coin, DEPOSIT))
                                for (a, coin, kind), c in counts.items() if kind == WITHDRAWAL)
            across_coins += len({(a, coin) for a, coin, _ in counts}) > len(
                {a for a, _, _ in counts})
        # links, an address matching itself (d == w), tied positions and
        # addresses in two coins all occur
        assert linked > 30 and self_matched > 30 and tied > 250 and across_coins > 250

    @staticmethod
    def linked(events) -> dict[str, frozenset[LinkPair]]:
        """h5's links on every pool with any, checked against the oracle."""
        index = build_index([], [], events)
        views = [pool_view(index, p) for p in CROSS_POOLS]
        got = {pid: r.link_pairs for pid, r in h5_cross_pool(views).items()}
        assert got == h5_every_actor(views)
        return {pid: pairs for pid, pairs in got.items() if pairs}

    def test_a_withdrawal_at_its_deposits_position_does_not_link(self):
        d, w = addr("t5d"), addr("t5w")
        # the tie in the first pool ranked, then at the last deposit and
        # the first withdrawal, where all deposits come first but for it
        for events in ([deposit("E1", d, 5), deposit("E2", d, 6),
                        withdrawal("E1", w, 5), withdrawal("E2", w, 7)],
                       [deposit("E1", d, 3), deposit("E2", d, 5, tx=1),
                        withdrawal("E2", w, 5, tx=1), withdrawal("E1", w, 8)]):
            assert self.linked(events) == {}
            later = [e._replace(tx_index=e.tx_index + 1) if e.kind == WITHDRAWAL else e
                     for e in events]
            assert self.linked(later) == {"E1": {LinkPair(d, w)}, "E2": {LinkPair(d, w)}}

    def test_two_coins(self):
        d, w, v = addr("c5d"), addr("c5w"), addr("c5v")
        # d's events span both coins, so each group reads its own pools' only
        events = [deposit("E1", d, 1), deposit("E2", d, 2), deposit("B1", d, 3),
                  deposit("B2", d, 4), deposit("B2", d, 5),
                  withdrawal("E1", w, 6), withdrawal("E2", w, 7),
                  withdrawal("B1", v, 8), withdrawal("B2", v, 9), withdrawal("B2", v, 10),
                  # w in the BNB pools with other counts than d: no link there
                  withdrawal("B1", w, 11), withdrawal("B2", w, 12)]
        assert self.linked(events) == {"E1": {LinkPair(d, w)}, "E2": {LinkPair(d, w)},
                                       "B1": {LinkPair(d, v)}, "B2": {LinkPair(d, v)}}

    def test_an_address_that_deposits_and_withdraws_across_pools(self):
        a, b, c = addr("s5a"), addr("s5b"), addr("s5c")
        # a withdraws what it deposited (not a link), b withdraws after a's
        # deposits, and c's deposits come before a's withdrawals
        events = [deposit("E1", c, 1), deposit("E3", c, 2),
                  deposit("E1", a, 3), deposit("E3", a, 4),
                  withdrawal("E1", a, 5), withdrawal("E3", a, 6),
                  withdrawal("E1", b, 7), withdrawal("E3", b, 8)]
        pairs = {LinkPair(a, b), LinkPair(c, a), LinkPair(c, b)}
        assert self.linked(events) == {"E1": pairs, "E3": pairs}

    def test_five_depositors_and_five_withdrawers_of_one_signature(self):
        ds = [addr(f"g5d{i}") for i in range(5)]
        ws = [addr(f"g5w{i}") for i in range(5)]
        # depositor i deposits at heights 10i+1 and 10i+2; withdrawer j
        # withdraws at 10j+5 and 10j+6, so i links j exactly when i <= j
        events = [*(deposit(pid, d, 10 * i + k) for i, d in enumerate(ds)
                    for k, pid in ((1, "B1"), (2, "B3"))),
                  *(withdrawal(pid, w, 10 * j + k) for j, w in enumerate(ws)
                    for k, pid in ((5, "B3"), (6, "B1")))]
        pairs = {LinkPair(d, w) for i, d in enumerate(ds) for j, w in enumerate(ws) if i <= j}
        assert len(pairs) == 15
        assert self.linked(events) == {"B1": pairs, "B3": pairs}


class _CountedActors(dict):
    """One pool and kind's per-actor event counts that count every lookup."""

    lookups = 0

    def __getitem__(self, actor):
        _CountedActors.lookups += 1
        return dict.__getitem__(self, actor)

    def get(self, actor, default=None):
        _CountedActors.lookups += 1
        return dict.get(self, actor, default)


class TestH5LookupCost:
    """A guard that needs no clock: h5 looks up per-actor event counts only
    for addresses that use two pools of one coin, so addresses that use one
    pool add no lookup."""

    def lookups(self, monkeypatch, events):
        index = build_index([], [], events)
        original = LedgerIndex.actor_counts
        monkeypatch.setattr(LedgerIndex, "actor_counts",
                            lambda self, pid, kind: _CountedActors(original(self, pid, kind)))
        _CountedActors.lookups = 0
        got = h5_cross_pool([pool_view(index, p) for p in CROSS_POOLS])
        monkeypatch.undo()
        assert "_lists" not in vars(index)
        return _CountedActors.lookups, got

    def test_single_pool_actors_add_no_lookup(self, monkeypatch):
        events = cross_pool_events(random.Random(1))
        loners = [event(p.pool_id, addr(f"x6{i}"), 20 + i)
                  for i in range(200) for p in CROSS_POOLS[i % 8:i % 8 + 1]
                  for event in (deposit, withdrawal)]
        base, base_links = self.lookups(monkeypatch, events)
        more, more_links = self.lookups(monkeypatch, events + loners)
        assert base > 0
        assert more == base
        assert more_links == base_links


class TestCombine:
    def test_self_combination_is_idempotent(self, p100):
        events = [deposit("P100", D, 1), withdrawal("P100", W, 5, sender=D)]
        v = view(p100, events, 10)
        links = h2_improper_sender(v).link_pairs
        assert reduced(v, links, links) == reduced(v, links)

    def test_disjoint_links_equal_sequential_simplification(self, p100):
        a, b, c, d = (addr(f"cm{i}") for i in range(4))
        events = [deposit("P100", a, 1), deposit("P100", c, 2), deposit("P100", c, 3),
                  withdrawal("P100", b, 5), withdrawal("P100", d, 6)]
        pair_ab, pair_cd = LinkPair(a, b), LinkPair(c, d)
        v = view(p100, events, 10)
        # merge a with b first: the merged state holds the pair's sum at a
        first = {x: n for x, n in v.state.items() if x not in pair_ab}
        first[a] = v.state[a] + v.state[b]
        sequential = reduced_set(first, [pair_cd], v.depositors)
        assert reduced(v, {pair_ab}, {pair_cd}) == sequential == {c}

    def test_combined_never_larger_than_inputs(self, p100):
        events = [deposit("P100", D, 1), deposit("P100", F, 2),
                  withdrawal("P100", W, 5, sender=D)]
        v = view(p100, events, 10, transfers=[transfer(F, W, 3, 6)])
        r2 = h2_improper_sender(v).link_pairs
        r3 = h3_related_pair(v).link_pairs
        assert len(reduced(v, r2, r3)) <= min(len(reduced(v, r2)), len(reduced(v, r3)))


class TestContainmentInvariants:
    def test_every_heuristic_set_is_subset_of_observed(self, p100):
        events = [deposit("P100", D, 1), deposit("P100", F, 2),
                  withdrawal("P100", W, 5, sender=D),
                  withdrawal("P100", D, 6)]
        v = view(p100, events, 10, transfers=[transfer(F, W, 3, 7)])
        observed = {e.actor for e in events if e.kind == DEPOSIT}
        results = [h1_reuse(v), h2_improper_sender(v), h3_related_pair(v), h4_intermediary(v)]
        for r in results:
            assert reduced(v, r.link_pairs) <= observed
