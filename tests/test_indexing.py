from __future__ import annotations

import json
import operator
import random
from collections import Counter

import pytest

import anonset.indexing as indexing_module
from anonset.cli import main
from anonset.dataset import RECORD_FILES, Dataset
from anonset.errors import InputError
from anonset.indexing import LabelBook, LedgerIndex, TransferCover, build_index
from anonset.ledger import (
    DEPOSIT,
    WITHDRAWAL,
    PoolConfig,
    PoolEvent,
    Transfer,
    position,
    up_to,
)
from anonset.synth import BEHAVIORS, BehaviorProfile, GeneratorConfig, generate_trace, standard_pools

from .conftest import D1, D2, W1, addr, deposit, transfer, withdrawal

X, Y = addr("x2"), addr("y2")


@pytest.fixture
def fixture_index(p100_events):
    transfers = [
        transfer(X, D1, 100, 5),     # funds d1 before its deposit at 10
        transfer(W1, Y, 100, 25),    # w1 moves out after withdrawing at 20
    ]
    return build_index(transfers, [], p100_events, None)


def index_at(t, transfers, events):
    """The index of the native transfers and pool events up to the cut ``t``."""
    return build_index(up_to(transfers, t), [], up_to(events, t), None)


class TestLabelBook:
    def test_unlabeled_defaults_to_user_account(self):
        book = LabelBook({})
        assert book.labels_for(D1) == frozenset({"user-account"})
        assert book.is_user_account(D1)

    def test_exchange_and_contract_are_not_user_accounts(self):
        book = LabelBook({D1: ["exchange"], D2: ["contract"], W1: ["malicious"]})
        assert not book.is_user_account(D1)
        assert not book.is_user_account(D2)
        assert book.is_user_account(W1)

    def test_unknown_label_rejected(self):
        with pytest.raises(InputError):
            LabelBook({D1: ["wizard"]})


class TestBuildIndex:
    def test_empty_inputs(self):
        index = build_index([], [], [], None)
        assert index.native_transfers == ()
        assert index.pool_events == ()
        assert index.actor_events("P", DEPOSIT) == {}

    def test_multiset_round_trip(self):
        a, b = addr("ra"), addr("rb")
        records = [transfer(a, b, 1, 3), transfer(b, a, 2, 1), transfer(a, b, 3, 2)]
        index = build_index(records, [], [], None)
        flattened = sorted(
            (t for addr_ in (a, b) for t in index._incoming.get(addr_, ())),
            key=position)
        assert flattened == sorted(records, key=position)

    def test_same_block_events_ordered_by_tx_index(self):
        e1 = deposit("P", D1, 5, tx=2)
        e2 = deposit("P", D2, 5, tx=1)
        index = build_index([], [], [e1, e2], None)
        assert index.pool_events == (e2, e1)
        assert list(index.actor_events("P", DEPOSIT)) == [D2, D1]

    def test_determinism_under_permutation(self):
        rng = random.Random(3)
        transfers = [transfer(addr(f"s{i%4}"), addr(f"r{i%3}"), i + 1, i) for i in range(12)]
        events = [deposit("P", addr(f"s{i%4}"), i) for i in range(8)]
        base = build_index(transfers, [], events, None)
        for _ in range(5):
            shuffled_t = transfers[:]
            shuffled_e = events[:]
            rng.shuffle(shuffled_t)
            rng.shuffle(shuffled_e)
            other = build_index(shuffled_t, [], shuffled_e, None)
            assert other.native_transfers == base.native_transfers
            assert other.pool_events == base.pool_events
            assert other.actor_events("P", DEPOSIT) == base.actor_events("P", DEPOSIT)


class TestActorCountsMatchACounter:
    """The count maps equal a ``Counter`` of the index's events per pool,
    kind and actor, keyed in index order, at every tenth of seeded traces'
    block span, for an idle pool, and at a cut before a pool's first event;
    wherever the per-actor lists are built too, their lengths are the
    counts, whichever table was built first."""

    @pytest.mark.parametrize("seed", [3, 17])
    def test_seeded_traces(self, seed):
        cfg = GeneratorConfig(profile=BehaviorProfile.from_weights({b: 1 for b in BEHAVIORS}),
                              pools=standard_pools(), user_count=48, block_span=2400)
        trace = generate_trace(cfg, seed)
        first, last = trace.first_block, trace.last_block
        starts = {p.pool_id: min(e.height for e in trace.events if e.pool_id == p.pool_id)
                  for p in trace.pools}
        late = max(starts, key=starts.get)
        assert starts[late] > first
        pool_ids = [*starts, "P-idle"]
        cuts = [first + (last - first) * step // 10 for step in range(11)]
        for i, t in enumerate([*cuts, starts[late] - 1]):
            index = build_index(up_to(trace.transfers, t), [], up_to(trace.events, t), None)
            if i % 2:
                index.actor_events(late, DEPOSIT)  # the lists first, then the counts
            expected = Counter((e.pool_id, e.kind, e.actor) for e in index.pool_events)
            for pool_id in pool_ids:
                for kind in (DEPOSIT, WITHDRAWAL):
                    counts = index.actor_counts(pool_id, kind)
                    assert list(counts.items()) == [
                        (actor, n) for (p, k, actor), n in expected.items()
                        if (p, k) == (pool_id, kind)], (seed, t, pool_id, kind)
                    if i % 2:
                        lists = index.actor_events(pool_id, kind)
                        assert {a: len(events) for a, events in lists.items()} == counts
            assert ("_lists" in vars(index)) == bool(i % 2)
        # the last cut: the late pool is idle, the others are not
        assert not index.actor_counts(late, DEPOSIT) and not index.actor_counts(late, WITHDRAWAL)
        assert any(index.actor_counts(p, DEPOSIT) for p in starts)


class TestFlatSortKeys:
    """Records order by ``position``, (height, tx_index, log_index), before
    any other field."""

    # later positions get alphabetically earlier senders and actors, so an
    # order that skipped a position field would come out different
    POSITIONS = [(5, 1, 0), (5, 0, 2), (5, 0, 1), (4, 9, 9)]
    NAMES = [addr("a1"), addr("b1"), addr("c1"), addr("d1")]

    def test_transfers(self):
        records = [Transfer(height=h, tx_index=tx, log_index=log, sender=name,
                            recipient=D1, amount=1, coin="ETH")
                   for (h, tx, log), name in zip(self.POSITIONS, self.NAMES)]
        index = build_index(records, records, [], None)
        expected = tuple(sorted(records, key=position))
        assert [position(tr) for tr in expected] == sorted(self.POSITIONS)
        assert index.native_transfers == expected
        assert index.token_transfers == expected
        assert tuple(index._incoming[D1]) == expected

    def test_events(self):
        records = [PoolEvent(pool_id="P", kind=DEPOSIT, height=h, tx_index=tx,
                             log_index=log, actor=name, tx_sender=name)
                   for (h, tx, log), name in zip(self.POSITIONS, self.NAMES)]
        index = build_index([], [], records, None)
        expected = tuple(sorted(records, key=position))
        assert index.pool_events == expected
        assert tuple(index.actor_events("P", DEPOSIT)) == tuple(e.actor for e in expected)

    def test_position_fields_distinguish_records(self):
        base = transfer(D1, D2, 5, 3)
        other_log = base._replace(log_index=1)
        other_tx = base._replace(tx_index=1)
        index = build_index([other_tx, other_log, base], [], [], None)
        assert index.native_transfers == (base, other_log, other_tx)
        event = deposit("P", D1, 3)
        later = event._replace(log_index=1)
        assert build_index([], [], [later, event], None).pool_events == (event, later)


class TestDistanceExtensions:
    def test_distance_one_is_deposit_actor_set(self, fixture_index, p100, p100_events):
        got = fixture_index.depositors_at_distance(p100, 1)[-1]
        assert got == {D1, D2}
        assert got == {e.actor for e in p100_events if e.kind == DEPOSIT}

    def test_distance_two_includes_funder(self, fixture_index, p100):
        assert X in fixture_index.depositors_at_distance(p100, 2)[-1]

    def test_transfer_after_cut_excluded(self, p100, p100_events):
        index = index_at(40, [transfer(X, D1, 100, 50)], p100_events)
        assert X not in index.depositors_at_distance(p100, 2)[-1]

    def test_distance_zero_rejected(self, fixture_index, p100):
        with pytest.raises(InputError):
            fixture_index.depositors_at_distance(p100, 0)
        with pytest.raises(InputError):
            fixture_index.withdrawers_at_distance(p100, 0)

    def test_withdrawers_distance_one_and_two(self, fixture_index, p100):
        assert fixture_index.withdrawers_at_distance(p100, 1) == ({W1},)
        assert Y in fixture_index.withdrawers_at_distance(p100, 2)[-1]

    def test_no_outgoing_means_empty_distance_two(self, p100, p100_events):
        index = build_index([], [], p100_events, None)
        assert index.withdrawers_at_distance(p100, 2) == ({W1}, frozenset())

    def test_monotone_in_cut(self, p100, p100_events):
        transfers = [transfer(addr(f"f{i}"), D1, 10, h) for i, h in enumerate((2, 4, 6, 8))]
        for n in (1, 2):
            previous: frozenset = frozenset()
            for t in range(0, 120, 10):
                current = index_at(t, transfers, p100_events).depositors_at_distance(p100, n)[-1]
                assert previous <= current
                previous = current


class TestDistanceThree:
    """A native transfer chain three hops into and out of one pool, so the
    third frontier of each direction is not empty: two depositors funded by
    one address each, one of which was funded by two more, and one
    withdrawer whose coins go out and then split."""

    POOL = PoolConfig(pool_id="P100", coin="ETH", denomination=100)
    F1, F2, G1, G2 = addr("f1"), addr("f2"), addr("g1"), addr("g2")
    S1, S2, S3 = addr("s1"), addr("s2"), addr("s3")
    TRANSFERS = [transfer(G1, F1, 60, 1), transfer(G2, F1, 60, 2),
                 transfer(F1, D1, 100, 3), transfer(F2, D2, 100, 4),
                 transfer(W1, S1, 100, 30), transfer(S1, S2, 50, 31),
                 transfer(S1, S3, 50, 32)]
    EVENTS = [deposit("P100", D1, 10), deposit("P100", D2, 11), withdrawal("P100", W1, 20)]

    def test_at_distance(self):
        index = build_index(self.TRANSFERS, [], self.EVENTS, None)
        assert index.depositors_at_distance(self.POOL, 3) == (
            {D1, D2}, {self.F1, self.F2}, {self.G1, self.G2})
        assert index.withdrawers_at_distance(self.POOL, 3) == (
            {W1}, {self.S1}, {self.S2, self.S3})

    def test_flows_report(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "out"
        data.mkdir()
        (data / "manifest.json").write_text('{"first_block": 0, "last_block": 40}')

        def write(name, rows):
            (data / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))

        for name in RECORD_FILES:
            write(name, [])
        write("pools", [{"pool_id": "P100", "coin": "ETH", "denomination": "100"}])
        write("pool_events", [e._asdict() | {"block": e.height} for e in self.EVENTS])
        write("transfers", [t._asdict() | {"block": t.height, "amount": str(t.amount)}
                            for t in self.TRANSFERS])
        assert main(["flows", "--distance", "3", "--data", str(data),
                     "--out", str(out)]) == 0
        (pool,) = json.loads((out / "flows.json").read_text())["pools"]
        assert pool["depositors"] == {"1": 2, "2": 2, "3": 2}
        assert pool["withdrawers"] == {"1": 1, "2": 1, "3": 2}
        assert pool["uncovered_inflow"] == pool["uncovered_outflow"] == "0"
        assert pool["inflow_sources"] == [{"address": a, "value": "100"}
                                          for a in sorted((self.F1, self.F2))]
        assert pool["outflow_sinks"] == [{"address": self.S1, "value": "100"}]


class TestSourceTransfers:
    def test_single_exact_cover(self, p100):
        events = [deposit("P100", D1, 10)]
        incoming = transfer(X, D1, 100, 5)
        index = build_index([incoming], [], events, None)
        (cover,) = index.source_transfers(D1, p100)
        assert cover.claims == (incoming,)
        assert cover.shortfall == 0

    def test_second_claim_clipped_to_residual(self, p100):
        events = [deposit("P100", D1, 10)]
        t60 = transfer(X, D1, 60, 4)
        t70 = transfer(Y, D1, 70, 6)
        index = build_index([t60, t70], [], events, None)
        (cover,) = index.source_transfers(D1, p100)
        assert [c.amount for c in cover.claims] == [60, 40]
        assert [c.sender for c in cover.claims] == [X, Y]
        assert sum(c.amount for c in cover.claims) == 100

    def test_transfer_claimable_once_across_deposits(self, p100):
        events = [deposit("P100", D1, 10), deposit("P100", D1, 20)]
        index = build_index([transfer(X, D1, 100, 5)], [], events, None)
        first, second = index.source_transfers(D1, p100)
        assert first.shortfall == 0
        assert second.claims == ()
        assert second.shortfall == 100

    def test_same_block_order_is_the_transaction_order(self, p100):
        events = [deposit("P100", D1, 10, tx=1)]
        before = transfer(X, D1, 100, 10, tx=0)
        after = transfer(Y, D1, 100, 10, tx=2)
        index = build_index([before, after], [], events, None)
        (cover,) = index.source_transfers(D1, p100)
        assert cover.claims == (before,)
        assert cover.shortfall == 0

    def test_requires_a_deposit(self, p100):
        index = build_index([], [], [deposit("P100", D1, 10)], None)
        with pytest.raises(InputError):
            index.source_transfers(D2, p100)

    def test_oversized_older_transfer_absorbs_the_cover(self, p100):
        # backward scan claims the recent 10 first, then the 200; the
        # chronological attribution gives the 200 the whole cover
        events = [deposit("P100", D1, 10)]
        big = transfer(X, D1, 200, 4)
        small = transfer(Y, D1, 10, 8)
        index = build_index([big, small], [], events, None)
        (cover,) = index.source_transfers(D1, p100)
        assert [(c.sender, c.amount) for c in cover.claims] == [(X, 100), (Y, 0)]
        assert sum(c.amount for c in cover.claims) == 100

    def test_claims_sum_to_denomination_or_shortfall(self, p100):
        rng = random.Random(11)
        for _ in range(40):
            heights = sorted(rng.sample(range(1, 40), rng.randrange(1, 6)))
            incoming = [transfer(addr(f"s{i}"), D1, rng.randrange(10, 140), h)
                        for i, h in enumerate(heights)]
            deposits = [deposit("P100", D1, h) for h in sorted(rng.sample(range(2, 45), 2))]
            index = build_index(incoming, [], deposits, None)
            for cover in index.source_transfers(D1, p100):
                assert sum(c.amount for c in cover.claims) + cover.shortfall == 100


class TestSinkTransfers:
    def test_single_outgoing_claimed(self, p100):
        events = [withdrawal("P100", W1, 20)]
        out = transfer(W1, Y, 100, 30)
        index = build_index([out], [], events, None)
        (cover,) = index.sink_transfers(W1, p100)
        assert cover.claims == (out,)
        assert cover.shortfall == 0

    def test_forward_greedy_clips_second(self, p100):
        events = [withdrawal("P100", W1, 20)]
        t30 = transfer(W1, X, 30, 25)
        t80 = transfer(W1, Y, 80, 28)
        index = build_index([t30, t80], [], events, None)
        (cover,) = index.sink_transfers(W1, p100)
        assert [c.amount for c in cover.claims] == [30, 70]

    def test_same_block_order_is_the_transaction_order(self, p100):
        events = [withdrawal("P100", W1, 20, tx=1)]
        before = transfer(W1, X, 100, 20, tx=0)
        after = transfer(W1, Y, 100, 20, tx=2)
        index = build_index([before, after], [], events, None)
        (cover,) = index.sink_transfers(W1, p100)
        assert cover.claims == (after,)
        assert cover.shortfall == 0

    def test_no_outgoing_is_full_shortfall(self, p100):
        index = build_index([], [], [withdrawal("P100", W1, 20)], None)
        (cover,) = index.sink_transfers(W1, p100)
        assert cover.claims == ()
        assert cover.shortfall == 100

    def test_outgoing_after_cut_not_claimed(self, p100):
        events = [withdrawal("P100", W1, 20)]
        index = index_at(50, [transfer(W1, Y, 100, 60)], events)
        (cover,) = index.sink_transfers(W1, p100)
        assert cover.shortfall == 100


def oracle_covers(index, kind, actor, pool, t):
    """The cover scan written over full-pool and full-ledger filters, or
    ``None`` when ``actor`` has no ``kind`` event in the pool by ``t``."""
    anchors = [e for e in index.pool_events
               if e.pool_id == pool.pool_id and e.kind == kind and e.actor == actor and e.height <= t]
    if not anchors:
        return None
    backward = kind == DEPOSIT
    unclaimed = [tr for tr in index.native_transfers
                 if (tr.recipient if backward else tr.sender) == actor
                 and tr.amount > 0 and tr.height <= t]
    if backward:
        unclaimed.reverse()
    covers = []
    for anchor in anchors:
        chosen, acc = [], 0
        for tr in unclaimed:
            if ((position(tr) < position(anchor)) if backward
                    else (position(tr) > position(anchor))):
                chosen.append(tr)
                acc += tr.amount
                if acc >= pool.denomination:
                    break
        unclaimed = [tr for tr in unclaimed if tr not in chosen]
        claims, remaining = [], pool.denomination
        for tr in sorted(chosen, key=lambda tr: (position(tr), tr.sender, tr.recipient,
                                                 tr.amount, tr.coin)):
            take = min(tr.amount, remaining)
            claims.append(tr._replace(amount=take))
            remaining -= take
        covers.append(TransferCover(claims=tuple(claims),
                                    shortfall=max(pool.denomination - acc, 0)))
    return tuple(covers)


def mixed_index(seed: int, users: int = 150):
    cfg = GeneratorConfig(profile=BehaviorProfile.from_weights({b: 1 for b in BEHAVIORS}),
                          pools=standard_pools(), user_count=users, block_span=3000)
    trace = generate_trace(cfg, seed)
    index = build_index(trace.transfers, trace.token_transfers, trace.events,
                        dict(trace.labels))
    return trace, index


class TestCoversMatchTheFullScanOracle:
    @pytest.mark.parametrize("seed", [2, 9, 14])
    def test_every_actor_of_every_pool_at_several_cuts(self, seed):
        trace, index = mixed_index(seed)
        # cuts inside the pools' busy span, where some actors are yet to come
        heights = sorted(e.height for e in trace.events)
        cuts = [heights[len(heights) * q // 4] for q in (1, 2, 3)] + [trace.last_block]
        claimed = shortfall = refused = 0
        for t in cuts:
            cut_index = build_index(up_to(trace.transfers, t), up_to(trace.token_transfers, t),
                                    up_to(trace.events, t), dict(trace.labels))
            for pool in trace.pools:
                actors = {e.actor for e in index.pool_events if e.pool_id == pool.pool_id}
                for actor in sorted(actors):
                    for kind, scan in ((DEPOSIT, cut_index.source_transfers),
                                       (WITHDRAWAL, cut_index.sink_transfers)):
                        expected = oracle_covers(index, kind, actor, pool, t)
                        if expected is None:
                            with pytest.raises(InputError):
                                scan(actor, pool)
                            refused += 1
                            continue
                        got = scan(actor, pool)
                        assert got == expected, (seed, t, pool.pool_id, actor, kind)
                        claimed += sum(len(c.claims) for c in got)
                        shortfall += sum(c.shortfall for c in got)
        # the traces exercise claims, shortfalls and refusals alike
        assert claimed and shortfall and refused


class TestAnonymityBuildsOnlyWhatItReads:
    """A guard that needs no clock: ``anonymity``, ``clusters`` and
    ``validate`` leave their index with no per-actor event list and no
    per-pool event list, and (but for ``validate``, whose funder side
    walks transfers) no per-address transfer map, while ``flows`` builds
    the transfer maps and the per-actor lists on first use, no count map,
    and gets the covers of the full-scan oracle from them."""

    def built(self, tmp_path, monkeypatch, argv) -> list[tuple[Dataset, int, LedgerIndex]]:
        indexes = []
        build = Dataset.build_index

        def captured(dataset, t):
            index = build(dataset, t)
            indexes.append((dataset, t, index))
            return index

        with monkeypatch.context() as patch:
            patch.setattr(Dataset, "build_index", captured)
            assert main([*argv, "--data", str(tmp_path / "data"),
                         "--out", str(tmp_path / "out")]) == 0
        return indexes

    def test_anonymity_and_clusters_build_no_unread_table(self, tmp_path, monkeypatch):
        assert main(["synth", "--profile", "mixed", "--seed", "5", "--users", "60",
                     "--blocks", "720", "--out", str(tmp_path / "data")]) == 0
        for argv in (["anonymity", "--combine", "--tas"], ["clusters"],
                     ["validate", "--gt", "debank"]):
            ((dataset, _, index),) = self.built(tmp_path, monkeypatch, argv)
            held = vars(index)
            assert "_counts" in held and "_lists" not in held, argv
            if argv[0] != "validate":
                assert "_incoming" not in held and "_outgoing" not in held, argv
            pool_ids = {p.pool_id for p in dataset.pools}
            assert not any(isinstance(table, dict) and table and set(table) <= pool_ids
                           for table in held.values()), argv
            assert "sole_funders" in held  # h4 ran, from its one map

        ((dataset, t, index),) = self.built(tmp_path, monkeypatch, ["flows"])
        held = vars(index)
        assert "_incoming" in held and "_outgoing" in held and "_lists" in held
        assert "_counts" not in held
        checked = 0
        for pool in dataset.pools:
            for kind, covers in ((DEPOSIT, index.source_transfers),
                                 (WITHDRAWAL, index.sink_transfers)):
                for actor in index.actor_events(pool.pool_id, kind):
                    assert covers(actor, pool) == oracle_covers(index, kind, actor, pool, t)
                    checked += 1
        assert checked > 0


class TestCoverLookupCost:
    """A complexity guard that needs no clock: ``flows`` builds the
    per-actor list table once and reads each pool's maps of it a number of
    times set by the pools and the directions, not by how many addresses
    use the pools; it reads no count map."""

    def pool_reads(self, tmp_path, monkeypatch, users: int) -> Counter:
        data, out = tmp_path / f"data{users}", tmp_path / f"out{users}"
        assert main(["synth", "--profile", "mixed", "--seed", "5",
                     "--users", str(users), "--blocks", str(12 * users),
                     "--out", str(data)]) == 0
        calls = Counter({"actor_events": 0, "actor_counts": 0, "_by_actor": 0})

        def counted(name):
            original = getattr(LedgerIndex, name)

            def read(self, *args, **kwargs):
                calls[name] += 1
                return original(self, *args, **kwargs)
            return read

        with monkeypatch.context() as patch:
            for name in list(calls):
                patch.setattr(LedgerIndex, name, counted(name))
            assert main(["flows", "--distance", "2", "--data", str(data),
                         "--out", str(out)]) == 0
        return calls

    def test_calls_do_not_grow_with_actors(self, tmp_path, monkeypatch):
        small = self.pool_reads(tmp_path, monkeypatch, users=40)
        large = self.pool_reads(tmp_path, monkeypatch, users=120)
        assert small["actor_events"] > 0
        assert small["_by_actor"] == 1 and small["actor_counts"] == 0
        assert large == small


class TestDistanceWalkCost:
    """A complexity guard that needs no clock: ``flows --distance N`` walks
    each pool's transfers once per direction and keeps every frontier, so
    doubling N about doubles the hops, where a walk restarted from
    distance 1 for every n makes them grow with N squared."""

    def hop_lookups(self, data, out, monkeypatch, distance: int) -> int:
        lookups = []

        class Counted(dict):
            def get(self, address, default=None):
                lookups.append(address)
                return dict.get(self, address, default)

        build = LedgerIndex.__init__

        def counted(self, *args):
            build(self, *args)
            self._incoming, self._outgoing = Counted(self._incoming), Counted(self._outgoing)

        with monkeypatch.context() as patch:
            patch.setattr(LedgerIndex, "__init__", counted)
            assert main(["flows", "--distance", str(distance), "--data", str(data),
                         "--out", str(out / str(distance))]) == 0
        return len(lookups)

    def test_hops_grow_linearly_in_distance(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        assert main(["synth", "--profile", "mixed", "--seed", "5", "--users", "40",
                     "--blocks", "480", "--out", str(data)]) == 0
        # 60 funders of the first depositor, each in a two-cycle with an
        # address of its own, so every frontier past distance 1 holds 60
        # addresses however far the walk goes
        first = json.loads((data / "pool_events.jsonl").read_text().splitlines()[0])
        funders = [f"0x{i:040x}" for i in range(1, 61)]
        partners = [f"0x{i:040x}" for i in range(61, 121)]
        hops = [*((a, first["actor"]) for a in funders), *zip(funders, partners),
                *zip(partners, funders)]
        with (data / "transfers.jsonl").open("a") as f:
            for i, (sender, recipient) in enumerate(hops):
                f.write(json.dumps({"amount": "1", "block": first["block"], "coin": "ETH",
                                    "log_index": 0, "recipient": recipient,
                                    "sender": sender, "tx_index": 900 + i}) + "\n")
        at_n = self.hop_lookups(data, tmp_path, monkeypatch, 8)
        at_2n = self.hop_lookups(data, tmp_path, monkeypatch, 16)
        assert at_n > 0
        assert at_2n <= 2.2 * at_n


def rescan_covers(index, kind, actor, pool):
    """The cover scan as it was before the stack and the pointer: every
    anchor walks the address's whole transfer list again, skipping what an
    earlier anchor claimed.  Quadratic per address, and plainly the rule."""
    anchors = index.actor_events(pool.pool_id, kind).get(actor)
    if not anchors:
        raise InputError(f"{actor} has no {kind} in pool {pool.pool_id} before the cut")
    backward = kind == DEPOSIT
    candidates = [tr for tr in index.native_transfers
                  if (tr.recipient if backward else tr.sender) == actor and tr.amount > 0]
    if backward:
        candidates.reverse()
    usable = operator.lt if backward else operator.gt
    claimed: set[int] = set()
    covers = []
    for anchor in anchors:
        chosen: list[int] = []
        acc = 0
        for i, tr in enumerate(candidates):
            if i in claimed or not usable(position(tr), position(anchor)):
                continue
            chosen.append(i)
            acc += tr.amount
            if acc >= pool.denomination:
                break
        claimed.update(chosen)
        if backward:  # the claims in index order
            chosen.reverse()
        claims, remaining = [], pool.denomination
        for tr in (candidates[i] for i in chosen):
            take = min(tr.amount, remaining)
            claims.append(tr if take == tr.amount else tr._replace(amount=take))
            remaining -= take
        covers.append(TransferCover(claims=tuple(claims),
                                    shortfall=max(pool.denomination - acc, 0)))
    return tuple(covers)


def outcome(scan, *args):
    """What a cover query gives: its covers, or the refusal it raises."""
    try:
        return scan(*args)
    except InputError as exc:
        return "refused", str(exc)


HOT, FAR, MID = addr("hot"), addr("far"), addr("mid")


def random_address(rng: random.Random):
    """One address's history over a few heights, so positions tie: 0-14
    transfers, zero amounts and self-transfers among them, and 1-8 events
    of either kind, most of them the address's own."""
    pool = PoolConfig(pool_id="P", coin="ETH", denomination=rng.randint(1, 10))
    parties = (HOT, HOT, FAR, MID)

    def spot() -> dict:
        return dict(height=rng.randint(1, 4), tx_index=rng.randint(0, 1),
                    log_index=rng.randint(0, 1))

    transfers = [Transfer(sender=rng.choice(parties), recipient=rng.choice(parties),
                          amount=rng.randint(0, 6), coin="ETH", **spot())
                 for _ in range(rng.randint(0, 14))]
    events = []
    for _ in range(rng.randint(1, 8)):
        actor = rng.choice(parties)
        events.append(PoolEvent(pool_id="P", kind=rng.choice((DEPOSIT, WITHDRAWAL)),
                                actor=actor, tx_sender=actor, **spot()))
    return pool, build_index(transfers, [], events, None)


class TestCoversMatchTheRescan:
    def test_seeded_random_addresses(self):
        seen = {"claims": 0, "shortfall": 0, "refused": 0, "tie": 0, "zero": 0, "self": 0}
        for seed in range(2500):
            pool, index = random_address(random.Random(seed))
            for kind, scan in ((DEPOSIT, index.source_transfers),
                               (WITHDRAWAL, index.sink_transfers)):
                got = outcome(scan, HOT, pool)
                assert got == outcome(rescan_covers, index, kind, HOT, pool), (seed, kind)
                if got[0] == "refused":
                    seen["refused"] += 1
                else:
                    seen["claims"] += sum(len(c.claims) for c in got)
                    seen["shortfall"] += sum(c.shortfall > 0 for c in got)
            transfers = index.native_transfers
            anchors = {position(e) for e in index.pool_events if e.actor == HOT}
            seen["tie"] += any(position(tr) in anchors for tr in transfers)
            seen["zero"] += any(tr.amount == 0 for tr in transfers)
            seen["self"] += any(tr.sender == tr.recipient == HOT for tr in transfers)
        # the cases reach every branch the rule has
        assert min(seen.values()) > 100, seen


def hot_address(k: int):
    """One address with k deposits, each after 4 incoming transfers of a
    quarter of the denomination, then k withdrawals, each followed by one
    outgoing transfer of the denomination."""
    pool = PoolConfig(pool_id="P100", coin="ETH", denomination=100)
    transfers, events = [], []
    for i in range(k):
        transfers += [transfer(X, HOT, 25, 10 * i + 1, tx) for tx in range(4)]
        events.append(deposit("P100", HOT, 10 * i + 2))
    for i in range(k, 2 * k):
        events.append(withdrawal("P100", HOT, 10 * i + 1))
        transfers.append(transfer(HOT, Y, 100, 10 * i + 2))
    return pool, build_index(transfers, [], events, None)


class TestCoverCostIsLinear:
    """Complexity guards that need no clock: the position reads of the
    cover scan (``indexing.position`` serves nothing else) may grow by at
    most 2.2 times when the input doubles."""

    @staticmethod
    def position_calls(monkeypatch, run) -> int:
        calls = 0

        def counted(record):
            nonlocal calls
            calls += 1
            return position(record)

        with monkeypatch.context() as patch:
            patch.setattr(indexing_module, "position", counted)
            run()
        return calls

    def test_hot_address(self, monkeypatch):
        def covers(k: int):
            pool, index = hot_address(k)

            def run():
                sources = index.source_transfers(HOT, pool)
                sinks = index.sink_transfers(HOT, pool)
                assert len(sources) == len(sinks) == k
                assert all(len(c.claims) == 4 and not c.shortfall for c in sources)
                assert all(len(c.claims) == 1 and not c.shortfall for c in sinks)
            return run

        small = self.position_calls(monkeypatch, covers(500))
        large = self.position_calls(monkeypatch, covers(1000))
        assert 0 < large <= 2.2 * small, (small, large)

    def test_synthetic_flows(self, tmp_path, monkeypatch):
        def flows(users: int):
            data, out = tmp_path / f"data{users}", tmp_path / f"out{users}"
            assert main(["synth", "--profile", "mixed", "--seed", "5",
                         "--users", str(users), "--blocks", str(12 * users),
                         "--out", str(data)]) == 0

            def run():
                assert main(["flows", "--distance", "2", "--data", str(data),
                             "--out", str(out)]) == 0
            return run

        small = self.position_calls(monkeypatch, flows(300))
        large = self.position_calls(monkeypatch, flows(600))
        assert 0 < large <= 2.2 * small, (small, large)
