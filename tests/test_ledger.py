from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from anonset.errors import ConfigError, InputError
from anonset.groundtruth import ValidationReport
from anonset.ledger import (
    DEPOSIT,
    WITHDRAWAL,
    LinkPair,
    PoolConfig,
    PoolEvent,
    Transfer,
    cluster_balances,
    connected_components,
    normalize_address,
    deposit_actors,
    pool_state,
    position,
    reduced_set,
    up_to,
)
from anonset.mining import APClaim
from anonset.synth import DISCIPLINED, H1_REUSER, BehaviorProfile

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


class TestPosition:
    @staticmethod
    def at(height: int, tx: int = 0, log: int = 0) -> Transfer:
        return Transfer(height, D1, D2, 1, "ETH", tx_index=tx, log_index=log)

    def test_total_order_uses_tx_then_log_index(self):
        at = self.at
        assert position(at(5)) < position(at(6))
        assert position(at(5, 1)) < position(at(5, 2))
        assert position(at(5, 1, 0)) < position(at(5, 1, 3))
        assert position(at(5, 0, 9)) < position(at(5, 1, 0)) < position(at(6))
        event = PoolEvent("P", DEPOSIT, 5, D1, D1, tx_index=1, log_index=3)
        assert position(event) == position(at(5, 1, 3)) == (5, 1, 3)

    def test_negative_rejected(self):
        # each record rejects each negative component on its own
        for height, tx, log in ((-1, 0, 0), (1, -1, 0), (1, 0, -1)):
            with pytest.raises(InputError, match="negative block position component"):
                PoolEvent(pool_id="P", kind=DEPOSIT, height=height, tx_index=tx,
                          log_index=log, actor=D1, tx_sender=D1)
            with pytest.raises(InputError, match="negative block position component"):
                Transfer(height=height, tx_index=tx, log_index=log, sender=D1,
                         recipient=D2, amount=1, coin="ETH")


class TestDomainRecords:
    def test_deposit_with_relayer_rejected(self):
        with pytest.raises(InputError):
            PoolEvent(pool_id="P", kind=DEPOSIT, height=1,
                      actor=D1, tx_sender=D1, relayer=W1)

    def test_relayed_withdrawal_must_be_signed_by_relayer(self):
        with pytest.raises(InputError):
            PoolEvent(pool_id="P", kind=WITHDRAWAL, height=1,
                      actor=W1, tx_sender=D1, relayer=D2)

    def test_self_transfer_is_legal(self):
        transfer(D1, D1, 5, 1)

    def test_link_pair_canonicalizes(self):
        a, b = sorted([D1, W1])
        assert LinkPair(W1, D1).addresses == (a, b)
        assert LinkPair(D1, W1) == LinkPair(W1, D1)

    def test_link_pair_rejects_self(self):
        with pytest.raises(InputError):
            LinkPair(D1, D1)


class TestLinkPairEquality:
    """A pair is the tuple of its two sorted addresses
    (``test_link_pair_canonicalizes`` checks the sort): ``==``, ``!=`` and
    ``hash`` are the tuple's own."""

    LO, MID, HI = sorted([D1, D2, W1])

    def test_equality_and_hash_are_the_tuples_own(self):
        assert LinkPair._fields == ("a1", "a2")
        assert LinkPair.__hash__ is tuple.__hash__
        assert LinkPair.__eq__ is tuple.__eq__

    def test_eq_ne_and_hash_are_those_of_the_sorted_tuple(self):
        p, q = LinkPair(self.LO, self.HI), LinkPair(self.HI, self.LO)
        assert p == q and q == p
        assert not p != q and not q != p
        assert hash(p) == hash(q) == hash((self.LO, self.HI))
        assert p == (self.LO, self.HI)
        other = LinkPair(self.LO, self.MID)
        assert p != other and not p == other

    def test_both_spellings_are_one_set_element(self):
        assert len({LinkPair(self.LO, self.HI), LinkPair(self.HI, self.LO)}) == 1

    def test_replace_re_sorts_and_re_checks(self):
        pair = LinkPair(self.LO, self.MID)
        moved = pair._replace(a1=self.HI)
        assert type(moved) is LinkPair
        assert (moved.a1, moved.a2) == (self.MID, self.HI)
        with pytest.raises(InputError, match="degenerate link pair"):
            pair._replace(a1=self.MID)


_VALID_TRANSFER = dict(height=5, sender=D1, recipient=D2, amount=10, coin="ETH",
                       tx_index=1, log_index=2)
_VALID_WITHDRAWAL = dict(pool_id="P", kind=WITHDRAWAL, height=5, actor=W1, tx_sender=D2,
                         relayer=D2, tx_index=1, log_index=2)
_VALID_POOL = dict(pool_id="P", coin="ETH", denomination=100, am_weight=2)
_VALID_CLAIM = dict(recipient=D1, block=5, ap=7)
_VALID_PAIR = dict(a1=min(D1, W1), a2=max(D1, W1))
_VALID_REPORT = dict(universe_size=4, tp=1, tn=1, fp=1, fn=1,
                     negative_signal_fps=frozenset())
_VALID_PROFILE = dict(fractions={DISCIPLINED: Fraction(1)})

# (record class, valid fields, the fields changed, message, field named)
_RECORD_FAULTS = [
    (Transfer, _VALID_TRANSFER, {"height": -1},
     "negative block position component: (-1, 1, 2)", None),
    (Transfer, _VALID_TRANSFER, {"tx_index": -1},
     "negative block position component: (5, -1, 2)", None),
    (Transfer, _VALID_TRANSFER, {"log_index": -1},
     "negative block position component: (5, 1, -1)", None),
    (Transfer, _VALID_TRANSFER, {"amount": -1}, "negative transfer amount: -1", "amount"),
    (PoolEvent, _VALID_WITHDRAWAL, {"height": -1},
     "negative block position component: (-1, 1, 2)", None),
    (PoolEvent, _VALID_WITHDRAWAL, {"tx_index": -1},
     "negative block position component: (5, -1, 2)", None),
    (PoolEvent, _VALID_WITHDRAWAL, {"log_index": -1},
     "negative block position component: (5, 1, -1)", None),
    (PoolEvent, _VALID_WITHDRAWAL, {"kind": "mint"}, "unknown pool event kind: 'mint'", "kind"),
    (PoolEvent, _VALID_WITHDRAWAL, {"kind": DEPOSIT}, "deposits cannot carry a relayer",
     "relayer"),
    (PoolEvent, _VALID_WITHDRAWAL, {"tx_sender": W1},
     "relayed withdrawal must be signed by its relayer", "tx_sender"),
    (PoolConfig, _VALID_POOL, {"denomination": 0}, "pool P: denomination must be positive",
     "denomination"),
    (PoolConfig, _VALID_POOL, {"am_weight": 0}, "pool P: mining weight must be positive",
     "am_weight"),
    (APClaim, _VALID_CLAIM, {"ap": -1}, "converted points cannot be negative", "ap"),
    (APClaim, _VALID_CLAIM, {"block": -1}, "claim block cannot be negative", "block"),
    (LinkPair, _VALID_PAIR, {"a2": _VALID_PAIR["a1"]},
     f"degenerate link pair: {_VALID_PAIR['a1']}", None),
    (ValidationReport, _VALID_REPORT, {"tp": 2},
     "confusion counts must partition the test universe", None),
]

_VALID_RECORDS = [(Transfer, _VALID_TRANSFER), (PoolEvent, _VALID_WITHDRAWAL),
                  (PoolConfig, _VALID_POOL), (APClaim, _VALID_CLAIM), (LinkPair, _VALID_PAIR),
                  (ValidationReport, _VALID_REPORT), (BehaviorProfile, _VALID_PROFILE)]

# (changed fractions, message) of a BehaviorProfile, which raises ConfigError
_PROFILE_FAULTS = [
    ({"nobody": Fraction(1)}, "unknown behaviors: ['nobody']"),
    ({DISCIPLINED: Fraction(2), H1_REUSER: Fraction(-1)},
     "behavior fractions cannot be negative"),
    ({DISCIPLINED: Fraction(1, 2)}, "behavior fractions must sum to 1, got 1/2"),
]

# every way to build a record: positional, keywords, _replace and _make
_BUILDS = {
    "positional": lambda cls, valid, fields: cls(*fields.values()),
    "keywords": lambda cls, valid, fields: cls(**fields),
    "_replace": lambda cls, valid, fields: cls(**valid)._replace(**fields),
    "_make": lambda cls, valid, fields: cls._make(fields.values()),
}


class TestRecordChecks:
    """Every check of a validated record fires, with the same text and
    field, however the record is built."""

    @pytest.mark.parametrize("build", _BUILDS.values(), ids=_BUILDS)
    @pytest.mark.parametrize("cls, valid, change, message, field", _RECORD_FAULTS,
                             ids=[f"{cls.__name__}-{key}={value!r}"
                                  for cls, _, change, *_ in _RECORD_FAULTS
                                  for key, value in change.items()])
    def test_each_check_fires_on_every_path(self, build, cls, valid, change, message, field):
        with pytest.raises(InputError) as caught:
            build(cls, valid, {**valid, **change})
        assert str(caught.value) == message
        assert caught.value.field == field

    @pytest.mark.parametrize("build", _BUILDS.values(), ids=_BUILDS)
    @pytest.mark.parametrize("fractions, message", _PROFILE_FAULTS,
                             ids=["unknown", "negative", "sum"])
    def test_each_profile_check_fires_on_every_path(self, build, fractions, message):
        with pytest.raises(ConfigError) as caught:
            build(BehaviorProfile, _VALID_PROFILE, {"fractions": fractions})
        assert str(caught.value) == message

    @pytest.mark.parametrize("build", _BUILDS.values(), ids=_BUILDS)
    def test_link_pair_sorts_on_every_path(self, build):
        lo, hi = _VALID_PAIR["a1"], _VALID_PAIR["a2"]
        pair = build(LinkPair, _VALID_PAIR, {"a1": hi, "a2": lo})
        assert type(pair) is LinkPair and pair == (lo, hi)

    @pytest.mark.parametrize("build", _BUILDS.values(), ids=_BUILDS)
    def test_link_pair_takes_no_third_field(self, build):
        # a pair is its two addresses alone: a stale source tag fails loudly
        with pytest.raises((TypeError, ValueError)):
            build(LinkPair, _VALID_PAIR, {**_VALID_PAIR, "source": "h2"})

    @pytest.mark.parametrize("build", _BUILDS.values(), ids=_BUILDS)
    @pytest.mark.parametrize("cls, valid", _VALID_RECORDS,
                             ids=[cls.__name__ for cls, _ in _VALID_RECORDS])
    def test_valid_fields_build_the_same_record(self, build, cls, valid):
        record = build(cls, valid, valid)
        assert type(record) is cls and record._asdict() == valid


class TestComputeBalance:
    def test_two_deposits_no_withdrawals(self, p100, p100_events):
        assert pool_state(p100, p100_events).get(D2, 0) == 200

    def test_no_events_is_zero(self, p100):
        assert pool_state(p100, []).get(D1, 0) == 0

    def test_three_deposits_three_withdrawals_cancel(self):
        # direct enumeration: 3*1 - 3*1 = 0
        pool = PoolConfig(pool_id="P1", coin="ETH", denomination=1)
        a = addr("aa")
        events = [deposit("P1", a, h) for h in (1, 2, 3)]
        events += [withdrawal("P1", a, h) for h in (4, 5, 6)]
        assert pool_state(pool, events).get(a, 0) == 0

    def test_cut_is_inclusive_at_t(self, p100):
        events = [deposit("P100", D1, 7)]
        assert pool_state(p100, up_to(events, 7)).get(D1, 0) == 100
        assert pool_state(p100, up_to(events, 6)).get(D1, 0) == 0

    def test_up_to_keeps_the_cut_block_in_order(self):
        later, at_cut, early = transfer(D1, D2, 5, 9), transfer(D2, W1, 5, 8), transfer(W1, D1, 5, 3)
        assert up_to([later, at_cut, early], 8) == (at_cut, early)
        assert up_to([later, at_cut, early], 2) == ()

    def test_foreign_pool_event_rejected(self, p100):
        with pytest.raises(InputError):
            pool_state(p100, [deposit("OTHER", D1, 1)]).get(D1, 0)


class TestPoolState:
    def test_worked_example(self, p100, p100_events):
        state = pool_state(p100, p100_events)
        assert state == {D1: 100, D2: 200, W1: -100}

    def test_empty_history(self, p100):
        assert pool_state(p100, []) == {}

    def test_deposit_and_withdraw_same_address(self, p100):
        a = addr("ab")
        state = pool_state(p100, [deposit("P100", a, 1), withdrawal("P100", a, 2)])
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
            state = pool_state(pool, up_to(events, t))
            # oracle: per-address counting
            expect = {}
            for e in events:
                if e.height > t:
                    continue
                expect.setdefault(e.actor, 0)
                expect[e.actor] += 13 if e.kind == DEPOSIT else -13
            assert state == expect
            assert all(b % 13 == 0 for b in state.values())


class TestMergeAndSimplify:
    def test_worked_example_merge(self, p100, p100_events):
        state = pool_state(p100, p100_events)
        merged = dict(cluster_balances(state, [LinkPair(D1, W1)]))
        assert merged[tuple(sorted((D1, W1)))] == 0
        assert merged[(D2,)] == 200
        assert {m: b for m, b in merged.items() if b} == {(D2,): 200}

    def test_merge_with_absent_address_adds_zero(self, p100, p100_events):
        state = pool_state(p100, p100_events)
        ghost = addr("zz")
        merged = dict(cluster_balances(state, [LinkPair(D2, ghost)]))
        assert merged[tuple(sorted((D2, ghost)))] == 200
        assert sum(merged.values()) == sum(state.values())

    def test_chained_merges_conserve_total(self, p100, p100_events):
        state = pool_state(p100, p100_events)
        s1 = cluster_balances(state, [LinkPair(D1, D2)])
        s2 = cluster_balances({m[0]: b for m, b in s1}, [LinkPair(min(D1, D2), W1)])
        assert sum(b for _, b in s2) == sum(state.values()) == 200

    def test_simplify_empty_links_is_identity(self, p100, p100_events):
        state = pool_state(p100, p100_events)
        assert cluster_balances(state, []) == [((a,), b) for a, b in state.items()]

    def test_simplify_worked_example(self, p100, p100_events):
        state = pool_state(p100, p100_events)
        clusters = cluster_balances(state, [LinkPair(D1, W1)])
        assert {m: b for m, b in clusters if b} == {(D2,): 200}

    def test_simplify_transitive_chain(self):
        a, b, c = sorted(addr(x) for x in ("ka", "kb", "kc"))
        state = {a: 1, b: 1, c: -2}
        out = cluster_balances(state, [LinkPair(a, b), LinkPair(b, c)])
        assert out == [((a, b, c), 0)]

    def test_reduction_reads_a_one_shot_iterator(self, p100, p100_events):
        state = pool_state(p100, p100_events)
        links = [LinkPair(D1, W1), LinkPair(W1, D2)]
        depositors = frozenset({D1, D2})
        assert cluster_balances(state, iter(links)) == cluster_balances(state, links)
        assert (reduced_set(state, (p for p in links), depositors)
                == reduced_set(state, links, depositors))

    def test_order_independence_and_idempotence(self):
        rng = random.Random(21)
        actors = [addr(f"q{i}") for i in range(8)]
        for trial in range(30):
            state = {a: rng.randrange(-3, 4) * 10 for a in actors}
            pairs = [LinkPair(*rng.sample(actors, 2)) for _ in range(rng.randrange(1, 6))]
            baseline = cluster_balances(state, pairs)
            for perm in itertools.islice(itertools.permutations(pairs), 6):
                assert cluster_balances(state, list(perm)) == baseline
            again = cluster_balances({m[0]: b for m, b in baseline}, pairs)
            assert again == baseline
            assert sum(b for _, b in baseline) == sum(state.values())


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
            history = up_to(events, t)
            state = pool_state(pool, history)
            depositors = deposit_actors(history)
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
            assert len(got) == sum(1 for _, b in cluster_balances(state, links) if b > 0)
        assert checked_links > 500

    def test_positive_cluster_without_depositor_is_input_error(self):
        a, b = sorted((addr("na"), addr("nb")))
        # an unlinked address, and a linked one whose partner holds nothing
        for state, links in (({a: 10}, []), ({a: 10, b: 0}, [LinkPair(a, b)])):
            with pytest.raises(InputError, match="positive cluster without a depositor"):
                reduced_set(state, links, frozenset())
            assert reduced_set(state, links, frozenset({a})) == {a}

    def test_depositor_lookups_grow_with_linked_members_only(self):
        """A guard that needs no clock: an unlinked address costs no
        membership test of its own."""

        class Counted(frozenset):
            calls = 0

            def __contains__(self, item):
                Counted.calls += 1
                return super().__contains__(item)

        actors = [f"0x{i:040x}" for i in range(10_000)]
        state = {a: 10 * (1 - i % 3) for i, a in enumerate(actors)}
        links = [LinkPair(actors[i], actors[i + 5_000]) for i in (0, 1, 2)]
        depositors = Counted(a for a, b in state.items() if b >= 0)
        got = reduced_set(state, links, depositors)
        linked_members = {x for p in links for x in p.addresses}
        assert 0 < Counted.calls <= len(linked_members)
        assert got == reduced_set(state, links, frozenset(depositors))
        assert len(got) == sum(1 for _, b in cluster_balances(state, links) if b > 0)


class TestConnectedComponents:
    def test_transitive_closure(self):
        a, b, c = (addr(x) for x in ("ca", "cb", "cc"))
        comps = connected_components([LinkPair(a, b), LinkPair(b, c)])
        assert comps == (tuple(sorted((a, b, c))),)

    def test_empty(self):
        assert connected_components([]) == ()
