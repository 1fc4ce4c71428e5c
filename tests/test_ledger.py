from __future__ import annotations

import itertools
import random

import pytest

from anonset.errors import InputError
from anonset.ledger import (
    DEPOSIT,
    WITHDRAWAL,
    BlockPosition,
    LinkPair,
    PoolConfig,
    PoolEvent,
    connected_components,
    normalize_address,
    deposit_actors,
    pool_state,
    reduced_set,
    simplify_state,
)

from .conftest import D1, D2, W1, addr, deposit, transfer, withdrawal


class TestAddress:
    def test_spellings_normalize_equal(self):
        raw = "0xAbCdEf0123456789aBcDeF0123456789ABCDEF01"
        assert normalize_address(raw) == normalize_address(raw.lower())
        assert normalize_address(raw[2:]) == normalize_address(raw)

    @pytest.mark.parametrize("bad", ["", "0x12", "xyz", "0x" + "g" * 40])
    def test_malformed_rejected(self, bad):
        with pytest.raises(InputError):
            normalize_address(bad)


class TestBlockPosition:
    def test_total_order_uses_tx_then_log_index(self):
        assert BlockPosition(5) < BlockPosition(6)
        assert BlockPosition(5, 1) < BlockPosition(5, 2)
        assert BlockPosition(5, 1, 0) < BlockPosition(5, 1, 3)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            BlockPosition(-1)


class TestDomainRecords:
    def test_deposit_with_relayer_rejected(self):
        with pytest.raises(InputError):
            PoolEvent(pool_id="P", kind=DEPOSIT, block=BlockPosition(1),
                      actor=D1, tx_sender=D1, relayer=W1)

    def test_relayed_withdrawal_must_be_signed_by_relayer(self):
        with pytest.raises(InputError):
            PoolEvent(pool_id="P", kind=WITHDRAWAL, block=BlockPosition(1),
                      actor=W1, tx_sender=D1, relayer=D2)

    def test_self_transfer_is_legal(self):
        transfer(D1, D1, 5, 1)

    def test_link_pair_canonicalizes(self):
        a, b = sorted([D1, W1])
        assert LinkPair(W1, D1).addresses == (a, b)
        assert LinkPair(D1, W1) == LinkPair(W1, D1)
        assert LinkPair(D1, W1, source="x") == LinkPair(D1, W1, source="y")

    def test_link_pair_rejects_self(self):
        with pytest.raises(InputError):
            LinkPair(D1, D1)


class TestComputeBalance:
    def test_two_deposits_no_withdrawals(self, p100, p100_events):
        assert pool_state(p100, p100_events, t=100).get(D2, 0) == 200

    def test_no_events_is_zero(self, p100):
        assert pool_state(p100, [], t=100).get(D1, 0) == 0

    def test_three_deposits_three_withdrawals_cancel(self):
        # direct enumeration: 3*1 - 3*1 = 0
        pool = PoolConfig(pool_id="P1", coin="ETH", denomination=1)
        a = addr("aa")
        events = [deposit("P1", a, h) for h in (1, 2, 3)]
        events += [withdrawal("P1", a, h) for h in (4, 5, 6)]
        assert pool_state(pool, events, t=10).get(a, 0) == 0

    def test_cut_is_inclusive_at_t(self, p100):
        events = [deposit("P100", D1, 7)]
        assert pool_state(p100, events, t=7).get(D1, 0) == 100
        assert pool_state(p100, events, t=6).get(D1, 0) == 0

    def test_foreign_pool_event_rejected(self, p100):
        with pytest.raises(InputError):
            pool_state(p100, [deposit("OTHER", D1, 1)], t=5).get(D1, 0)


class TestPoolState:
    def test_worked_example(self, p100, p100_events):
        state = pool_state(p100, p100_events, t=100)
        assert state == {D1: 100, D2: 200, W1: -100}

    def test_empty_history(self, p100):
        assert pool_state(p100, [], t=5) == {}

    def test_deposit_and_withdraw_same_address(self, p100):
        a = addr("ab")
        state = pool_state(p100, [deposit("P100", a, 1), withdrawal("P100", a, 2)], t=5)
        assert state == {a: 0}

    def test_matches_bruteforce_counter_on_random_pools(self):
        rng = random.Random(7)
        pool = PoolConfig(pool_id="P", coin="C", denomination=13)
        actors = [addr(f"a{i}") for i in range(6)]
        for _ in range(50):
            events = []
            for h in range(rng.randrange(0, 50)):
                kind = rng.choice([DEPOSIT, WITHDRAWAL])
                a = rng.choice(actors)
                events.append(deposit("P", a, h) if kind == DEPOSIT
                              else withdrawal("P", a, h))
            t = rng.randrange(0, 60)
            state = pool_state(pool, events, t)
            # oracle: per-address counting
            expect = {}
            for e in events:
                if e.block.height > t:
                    continue
                expect.setdefault(e.actor, 0)
                expect[e.actor] += 13 if e.kind == DEPOSIT else -13
            assert state == expect
            assert all(b % 13 == 0 for b in state.values())


class TestMergeAndSimplify:
    def test_worked_example_merge(self, p100, p100_events):
        state = pool_state(p100, p100_events, t=100)
        merged = simplify_state(state, [LinkPair(D1, W1)])
        assert merged[min(D1, W1)] == 0
        assert merged[D2] == 200
        assert {a: b for a, b in merged.items() if b} == {D2: 200}

    def test_merge_with_absent_address_adds_zero(self, p100, p100_events):
        state = pool_state(p100, p100_events, t=100)
        ghost = addr("zz")
        merged = simplify_state(state, [LinkPair(D2, ghost)])
        assert merged[min(D2, ghost)] == 200
        assert sum(merged.values()) == sum(state.values())

    def test_chained_merges_conserve_total(self, p100, p100_events):
        state = pool_state(p100, p100_events, t=100)
        s1 = simplify_state(state, [LinkPair(D1, D2)])
        s2 = simplify_state(s1, [LinkPair(min(D1, D2), W1)])
        assert sum(s2.values()) == sum(state.values()) == 200

    def test_simplify_empty_links_is_identity(self, p100, p100_events):
        state = pool_state(p100, p100_events, t=100)
        assert simplify_state(state, []) == state

    def test_simplify_worked_example(self, p100, p100_events):
        state = pool_state(p100, p100_events, t=100)
        simplified = simplify_state(state, [LinkPair(D1, W1)])
        assert {a: b for a, b in simplified.items() if b} == {D2: 200}

    def test_simplify_transitive_chain(self):
        a, b, c = sorted(addr(x) for x in ("ka", "kb", "kc"))
        state = {a: 1, b: 1, c: -2}
        out = simplify_state(state, [LinkPair(a, b), LinkPair(b, c)])
        assert out == {a: 0}

    def test_simplify_rejects_negative_polarity(self, p100, p100_events):
        state = pool_state(p100, p100_events, t=100)
        bad = LinkPair(D1, W1, polarity="negative")
        with pytest.raises(InputError):
            simplify_state(state, [bad])

    def test_order_independence_and_idempotence(self):
        rng = random.Random(21)
        actors = [addr(f"q{i}") for i in range(8)]
        for trial in range(30):
            state = {a: rng.randrange(-3, 4) * 10 for a in actors}
            pairs = [LinkPair(*rng.sample(actors, 2)) for _ in range(rng.randrange(1, 6))]
            baseline = simplify_state(state, pairs)
            for perm in itertools.islice(itertools.permutations(pairs), 6):
                assert simplify_state(state, list(perm)) == baseline
            again = simplify_state(baseline, pairs)
            assert again == baseline
            assert sum(baseline.values()) == sum(state.values())


class TestReducedSet:
    def test_matches_naive_oracle_on_random_histories(self):
        rng = random.Random(4242)
        pool = PoolConfig(pool_id="P", coin="C", denomination=10)
        actors = [addr(f"r{i}") for i in range(12)]
        ghosts = [addr(f"x{i}") for i in range(3)]  # linked, never in the pool
        checked_links = 0
        for _ in range(300):
            events = []
            for h in range(rng.randrange(0, 40)):
                a = rng.choice(actors)
                events.append(deposit("P", a, h) if rng.random() < 0.55
                              else withdrawal("P", a, h))
            t = rng.randrange(0, 45)
            state = pool_state(pool, events, t)
            depositors = deposit_actors(events, t)
            links = [LinkPair(*rng.sample(actors + ghosts, 2))
                     for _ in range(rng.randrange(0, 8))]
            checked_links += len(links)

            # naive oracle: BFS components over every address, summed
            # balances, positive clusters, smallest depositor member
            adjacency = {a: set() for a in set(state) | {x for p in links
                                                         for x in p.addresses}}
            for p in links:
                adjacency[p.a1].add(p.a2)
                adjacency[p.a2].add(p.a1)
            expected, seen = set(), set()
            for start in sorted(adjacency):
                if start in seen:
                    continue
                component, queue = set(), [start]
                while queue:
                    node = queue.pop()
                    if node not in component:
                        component.add(node)
                        queue.extend(adjacency[node])
                seen |= component
                if sum(state.get(a, 0) for a in component) > 0:
                    expected.add(min(component & depositors))

            got = reduced_set(state, links, depositors)
            assert got == expected
            assert got <= depositors
            assert len(got) == sum(1 for b in simplify_state(state, links).values()
                                   if b > 0)
        assert checked_links > 500


class TestConnectedComponents:
    def test_transitive_closure(self):
        a, b, c = (addr(x) for x in ("ca", "cb", "cc"))
        comps = connected_components([LinkPair(a, b), LinkPair(b, c)])
        assert comps == (tuple(sorted((a, b, c))),)

    def test_empty(self):
        assert connected_components([]) == ()
