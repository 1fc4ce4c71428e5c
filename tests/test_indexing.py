from __future__ import annotations

import random
from dataclasses import replace

import pytest

from anonset.cli import main
from anonset.errors import IngestError, InputError
from anonset.indexing import LabelBook, LedgerIndex, TransferCover, build_index
from anonset.ledger import (
    DEPOSIT,
    WITHDRAWAL,
    BlockPosition,
    PoolEvent,
    Transfer,
    deposit_actors,
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
        assert index.events_for("P") == []

    def test_multiset_round_trip(self):
        a, b = addr("ra"), addr("rb")
        records = [transfer(a, b, 1, 3), transfer(b, a, 2, 1), transfer(a, b, 3, 2)]
        index = build_index(records, [], [], None)
        flattened = sorted(
            (t for addr_ in (a, b) for t in index.incoming_native(addr_)),
            key=lambda t: t.block)
        assert flattened == sorted(records, key=lambda t: t.block)

    def test_same_block_events_ordered_by_tx_index(self):
        e1 = deposit("P", D1, 5, tx=2)
        e2 = deposit("P", D2, 5, tx=1)
        index = build_index([], [], [e1, e2], None)
        assert list(index.events_for("P")) == [e2, e1]

    def test_duplicate_transfer_rejected_with_position(self):
        dup = transfer(D1, D2, 5, 1)
        with pytest.raises(IngestError, match="position 1"):
            build_index([dup, dup], [], [], None)

    def test_duplicate_event_rejected(self):
        e = deposit("P", D1, 5)
        with pytest.raises(IngestError):
            build_index([], [], [e, e], None)

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
            assert list(other.events_for("P")) == list(base.events_for("P"))


class TestFlatSortKeys:
    """Records order by (height, tx_index, log_index) before any other
    field, exactly as ``BlockPosition`` orders."""

    # later positions get alphabetically earlier senders and actors, so an
    # order that skipped a position field would come out different
    POSITIONS = [BlockPosition(5, 1, 0), BlockPosition(5, 0, 2),
                 BlockPosition(5, 0, 1), BlockPosition(4, 9, 9)]
    NAMES = [addr("a1"), addr("b1"), addr("c1"), addr("d1")]

    def test_transfers(self):
        records = [Transfer(block=pos, sender=name, recipient=D1, amount=1, coin="ETH")
                   for pos, name in zip(self.POSITIONS, self.NAMES)]
        index = build_index(records, records, [], None)
        expected = tuple(sorted(records, key=lambda tr: tr.block))
        assert [tr.block for tr in expected] == sorted(self.POSITIONS)
        assert index.native_transfers == expected
        assert index.token_transfers == expected
        assert tuple(index.incoming_native(D1)) == expected

    def test_events(self):
        records = [PoolEvent(pool_id="P", kind=DEPOSIT, block=pos, actor=name,
                             tx_sender=name)
                   for pos, name in zip(self.POSITIONS, self.NAMES)]
        index = build_index([], [], records, None)
        expected = tuple(sorted(records, key=lambda e: e.block))
        assert index.pool_events == expected
        assert tuple(index.events_for("P")) == expected

    def test_position_fields_distinguish_records(self):
        base = transfer(D1, D2, 5, 3)
        other_log = replace(base, block=BlockPosition(3, 0, 1))
        other_tx = replace(base, block=BlockPosition(3, 1, 0))
        index = build_index([other_tx, other_log, base], [], [], None)
        assert index.native_transfers == (base, other_log, other_tx)
        event = deposit("P", D1, 3)
        later = replace(event, block=BlockPosition(3, 0, 1))
        assert build_index([], [], [later, event], None).pool_events == (event, later)

    def test_duplicate_error_text_and_position(self):
        first = transfer(D1, D2, 5, 3)
        same = replace(first, block=BlockPosition(3, 0, 0))
        with pytest.raises(IngestError) as caught:
            build_index([first, transfer(D2, D1, 5, 3), same], [], [], None)
        assert str(caught.value) == \
            f"duplicate record at position 2: {same} [file=transfers]"
        event = deposit("P", D1, 3)
        with pytest.raises(IngestError) as caught:
            build_index([], [], [event, event], None)
        assert str(caught.value) == \
            f"duplicate record at position 1: {event} [file=pool_events]"


class TestDistanceExtensions:
    def test_distance_one_is_deposit_actor_set(self, fixture_index, p100, p100_events):
        got = fixture_index.depositors_at_distance(p100, 1, t=100)
        assert got == {D1, D2}
        assert got == deposit_actors(p100_events, 100)

    def test_distance_two_includes_funder(self, fixture_index, p100):
        assert X in fixture_index.depositors_at_distance(p100, 2, t=100)

    def test_transfer_after_cut_excluded(self, p100, p100_events):
        index = build_index([transfer(X, D1, 100, 50)], [], p100_events, None)
        assert X not in index.depositors_at_distance(p100, 2, t=40)

    def test_distance_zero_rejected(self, fixture_index, p100):
        with pytest.raises(InputError):
            fixture_index.depositors_at_distance(p100, 0, t=100)
        with pytest.raises(InputError):
            fixture_index.withdrawers_at_distance(p100, 0, t=100)

    def test_withdrawers_distance_one_and_two(self, fixture_index, p100):
        assert fixture_index.withdrawers_at_distance(p100, 1, t=100) == {W1}
        assert Y in fixture_index.withdrawers_at_distance(p100, 2, t=100)

    def test_no_outgoing_means_empty_distance_two(self, p100, p100_events):
        index = build_index([], [], p100_events, None)
        assert index.withdrawers_at_distance(p100, 2, t=100) == frozenset()

    def test_monotone_in_cut(self, p100, p100_events):
        transfers = [transfer(addr(f"f{i}"), D1, 10, h) for i, h in enumerate((2, 4, 6, 8))]
        index = build_index(transfers, [], p100_events, None)
        for n in (1, 2):
            previous: frozenset = frozenset()
            for t in range(0, 120, 10):
                current = index.depositors_at_distance(p100, n, t)
                assert previous <= current
                previous = current


class TestSourceTransfers:
    def test_single_exact_cover(self, p100):
        events = [deposit("P100", D1, 10)]
        incoming = transfer(X, D1, 100, 5)
        index = build_index([incoming], [], events, None)
        (cover,) = index.source_transfers(D1, p100, t=50)
        assert cover.claims == (incoming,)
        assert cover.shortfall == 0

    def test_second_claim_clipped_to_residual(self, p100):
        events = [deposit("P100", D1, 10)]
        t60 = transfer(X, D1, 60, 4)
        t70 = transfer(Y, D1, 70, 6)
        index = build_index([t60, t70], [], events, None)
        (cover,) = index.source_transfers(D1, p100, t=50)
        assert [c.amount for c in cover.claims] == [60, 40]
        assert [c.sender for c in cover.claims] == [X, Y]
        assert sum(c.amount for c in cover.claims) == 100

    def test_transfer_claimable_once_across_deposits(self, p100):
        events = [deposit("P100", D1, 10), deposit("P100", D1, 20)]
        index = build_index([transfer(X, D1, 100, 5)], [], events, None)
        first, second = index.source_transfers(D1, p100, t=50)
        assert first.shortfall == 0
        assert second.claims == ()
        assert second.shortfall == 100

    def test_requires_a_deposit(self, p100):
        index = build_index([], [], [deposit("P100", D1, 10)], None)
        with pytest.raises(InputError):
            index.source_transfers(D2, p100, t=50)

    def test_oversized_older_transfer_absorbs_the_cover(self, p100):
        # backward scan claims the recent 10 first, then the 200; the
        # chronological attribution gives the 200 the whole cover
        events = [deposit("P100", D1, 10)]
        big = transfer(X, D1, 200, 4)
        small = transfer(Y, D1, 10, 8)
        index = build_index([big, small], [], events, None)
        (cover,) = index.source_transfers(D1, p100, t=50)
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
            for cover in index.source_transfers(D1, p100, t=60):
                assert sum(c.amount for c in cover.claims) + cover.shortfall == 100


class TestSinkTransfers:
    def test_single_outgoing_claimed(self, p100):
        events = [withdrawal("P100", W1, 20)]
        out = transfer(W1, Y, 100, 30)
        index = build_index([out], [], events, None)
        (cover,) = index.sink_transfers(W1, p100, t=50)
        assert cover.claims == (out,)
        assert cover.shortfall == 0

    def test_forward_greedy_clips_second(self, p100):
        events = [withdrawal("P100", W1, 20)]
        t30 = transfer(W1, X, 30, 25)
        t80 = transfer(W1, Y, 80, 28)
        index = build_index([t30, t80], [], events, None)
        (cover,) = index.sink_transfers(W1, p100, t=50)
        assert [c.amount for c in cover.claims] == [30, 70]

    def test_no_outgoing_is_full_shortfall(self, p100):
        index = build_index([], [], [withdrawal("P100", W1, 20)], None)
        (cover,) = index.sink_transfers(W1, p100, t=50)
        assert cover.claims == ()
        assert cover.shortfall == 100

    def test_outgoing_after_cut_not_claimed(self, p100):
        events = [withdrawal("P100", W1, 20)]
        index = build_index([transfer(W1, Y, 100, 60)], [], events, None)
        (cover,) = index.sink_transfers(W1, p100, t=50)
        assert cover.shortfall == 100


def oracle_covers(index, kind, actor, pool, t):
    """The cover scan written over full-pool and full-ledger filters, or
    ``None`` when ``actor`` has no ``kind`` event in the pool by ``t``."""
    anchors = [e for e in index.events_for(pool.pool_id)
               if e.kind == kind and e.actor == actor and e.block.height <= t]
    if not anchors:
        return None
    backward = kind == DEPOSIT
    unclaimed = [tr for tr in index.native_transfers
                 if (tr.recipient if backward else tr.sender) == actor
                 and tr.amount > 0 and tr.block.height <= t]
    if backward:
        unclaimed.reverse()
    covers = []
    for anchor in anchors:
        chosen, acc = [], 0
        for tr in unclaimed:
            if (tr.block < anchor.block) if backward else (tr.block > anchor.block):
                chosen.append(tr)
                acc += tr.amount
                if acc >= pool.denomination:
                    break
        unclaimed = [tr for tr in unclaimed if tr not in chosen]
        claims, remaining = [], pool.denomination
        for tr in sorted(chosen, key=lambda tr: (tr.block, tr.sender, tr.recipient,
                                                 tr.amount, tr.coin, tr.internal)):
            take = min(tr.amount, remaining)
            claims.append(replace(tr, amount=take))
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
        heights = sorted(e.block.height for e in trace.events)
        cuts = [heights[len(heights) * q // 4] for q in (1, 2, 3)] + [trace.last_block]
        claimed = shortfall = refused = 0
        for t in cuts:
            for pool in trace.pools:
                actors = {e.actor for e in index.events_for(pool.pool_id)}
                for actor in sorted(actors):
                    for kind, scan in ((DEPOSIT, index.source_transfers),
                                       (WITHDRAWAL, index.sink_transfers)):
                        expected = oracle_covers(index, kind, actor, pool, t)
                        if expected is None:
                            with pytest.raises(InputError):
                                scan(actor, pool, t)
                            refused += 1
                            continue
                        got = scan(actor, pool, t)
                        assert got == expected, (seed, t, pool.pool_id, actor, kind)
                        claimed += sum(len(c.claims) for c in got)
                        shortfall += sum(c.shortfall for c in got)
        # the traces exercise claims, shortfalls and refusals alike
        assert claimed and shortfall and refused


class TestCoverLookupCost:
    """A complexity guard that needs no clock: ``flows`` reads each pool's
    full event list a number of times set by the pools and the distance,
    not by how many addresses use the pools."""

    def events_for_calls(self, tmp_path, monkeypatch, users: int) -> int:
        data, out = tmp_path / f"data{users}", tmp_path / f"out{users}"
        assert main(["synth", "--profile", "mixed", "--seed", "5",
                     "--users", str(users), "--blocks", str(12 * users),
                     "--out", str(data)]) == 0
        calls = []
        original = LedgerIndex.events_for

        def counted(self, pool_id):
            calls.append(pool_id)
            return original(self, pool_id)

        with monkeypatch.context() as patch:
            patch.setattr(LedgerIndex, "events_for", counted)
            assert main(["flows", "--distance", "2", "--data", str(data),
                         "--out", str(out)]) == 0
        return len(calls)

    def test_calls_do_not_grow_with_actors(self, tmp_path, monkeypatch):
        small = self.events_for_calls(tmp_path, monkeypatch, users=40)
        large = self.events_for_calls(tmp_path, monkeypatch, users=120)
        assert small > 0
        assert large == small
