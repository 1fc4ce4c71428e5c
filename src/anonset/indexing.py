"""Queryable indexes over transfers and pool events.

The index is built once (single writer) and then only read, so a built
:class:`LedgerIndex` is safe to share between concurrent analyses: the
tables built on first use are caches of its immutable records.  It
holds the history at one cut (:func:`ledger.up_to`); no query takes one.
:class:`LedgerIndex` takes records already in ``ledger``'s record order,
as ``dataset.ingest`` hands them over, and checks neither their order nor
their repeats; :func:`build_index` puts records of any order in it.

Each pool's actors come in two tables, each built on first use by one
walk of the events, and the constructor walks nothing: their event
counts (:meth:`LedgerIndex.actor_counts`), which the pool views and the
heuristics read, and their event lists (:meth:`LedgerIndex.actor_events`),
which only the covers need.  So ``anonymity``, ``clusters`` and
``validate`` build no list per actor, and ``flows`` no count map.

Two families of queries live here:

* distance-``n`` depositor/withdrawer extensions, which walk native-coin
  transfers one hop at a time away from the pool and keep every frontier
  of the one walk, and
* most-recent-transfer covers, which attribute each deposit (withdrawal)
  to the latest incoming (earliest outgoing) transfers that add up to the
  pool denomination.  A deposit pops them off a stack of the unclaimed
  value before it, a withdrawal takes them from one forward pointer, so an
  address costs O(transfers + anchors), its transfers read once.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InputError
from .ledger import (
    DEPOSIT,
    WITHDRAWAL,
    Address,
    Amount,
    LabelBook,
    PoolConfig,
    PoolEvent,
    Transfer,
    _in_record_order,
    event_order,
    position,
    transfer_order,
)

class TransferCover(NamedTuple):
    """The most-recent-transfer cover of one deposit or withdrawal.

    An actor's covers come in the order of its events of that kind in the
    pool, so a cover's position is its anchor event's position among them.
    ``claims`` lists the covering transfers in chronological order with
    values clipped so that their amounts plus ``shortfall`` equal the pool
    denomination exactly.
    """

    claims: tuple[Transfer, ...]
    shortfall: Amount


class LedgerIndex:
    """Immutable per-address / per-pool views over records in record order.

    Every table past the records is built on first use and kept: the
    actor counts and lists, the transfer maps, and the per-index tables
    of h2-h4 (:attr:`foreign_signed_withdrawals`, :attr:`sole_funders`,
    :attr:`actor_transfer_pairs`).
    """

    def __init__(self, transfers: Sequence[Transfer],
                 token_transfers: Sequence[Transfer],
                 events: Sequence[PoolEvent],
                 labels: LabelBook):
        self.labels = labels
        self.native_transfers = tuple(transfers)
        self.token_transfers = tuple(token_transfers)
        self.pool_events = tuple(events)

    def _by_actor(self, counting: bool) -> dict[tuple[str, str], dict[Address, object]]:
        """Each actor's own events of one kind in one pool, or their count,
        keyed by ``(pool_id, kind)``: from one pass over the events in
        chronological order, grouping by pool then kind, so no key tuple
        and no list is made per event."""
        by_pool: dict[str, dict[str, dict[Address, object]]] = {}
        for e in self.pool_events:
            by_kind = by_pool.get(e.pool_id)
            if by_kind is None:
                by_pool[e.pool_id] = by_kind = {DEPOSIT: {}, WITHDRAWAL: {}}
            actors = by_kind[e.kind]
            if counting:
                actors[e.actor] = actors.get(e.actor, 0) + 1
            elif (own := actors.get(e.actor)) is None:
                actors[e.actor] = [e]
            else:
                own.append(e)
        return {(pool_id, kind): actors
                for pool_id, by_kind in by_pool.items() for kind, actors in by_kind.items()}

    @cached_property
    def _counts(self) -> dict[tuple[str, str], dict[Address, int]]:
        return self._by_actor(counting=True)

    @cached_property
    def _lists(self) -> dict[tuple[str, str], dict[Address, list[PoolEvent]]]:
        return self._by_actor(counting=False)

    # -- plain accessors ----------------------------------------------------

    def actor_counts(self, pool_id: str, kind: str) -> Mapping[Address, int]:
        """Each actor's number of events of ``kind`` in one pool, keyed by
        actor in index order; the index's own map, to be read only, and
        empty for an idle pool."""
        return self._counts.get((pool_id, kind), {})

    def actor_events(self, pool_id: str, kind: str) -> Mapping[Address, Sequence[PoolEvent]]:
        """Each actor's own events of ``kind`` in one pool, keyed by actor,
        in index order; like :meth:`actor_counts`, the index's own map."""
        return self._lists.get((pool_id, kind), {})

    @cached_property
    def _incoming(self) -> dict[Address, list[Transfer]]:
        """Each address's incoming native transfers, in index order;
        built on first use, like the tables below."""
        incoming: dict[Address, list[Transfer]] = {}
        for t in self.native_transfers:
            incoming.setdefault(t.recipient, []).append(t)
        return incoming

    @cached_property
    def _outgoing(self) -> dict[Address, list[Transfer]]:
        """Each address's outgoing native transfers, in index order."""
        outgoing: dict[Address, list[Transfer]] = {}
        for t in self.native_transfers:
            outgoing.setdefault(t.sender, []).append(t)
        return outgoing

    @cached_property
    def sole_funders(self) -> Mapping[Address, Address]:
        """Each address whose positive, non-self incoming native value all
        comes from one sender, mapped to that sender when it is a user
        account; from one pass over the native transfers."""
        sole: dict[Address, Address | None] = {}
        for t in self.native_transfers:
            if t.amount > 0 and t.sender != t.recipient:
                # the first funder stays; a second one marks the address None
                funder = sole.get(t.recipient, t.sender)
                sole[t.recipient] = funder if funder == t.sender else None
        is_user = self.labels.is_user_account
        return {a: f for a, f in sole.items() if f is not None and is_user(f)}

    @cached_property
    def foreign_signed_withdrawals(self) -> Sequence[PoolEvent]:
        """The withdrawals through no relayer whose signer is not their
        actor, in index order; from one walk of the events, for h2."""
        return [e for e in self.pool_events
                if e.tx_sender != e.actor and e.relayer is None and e.kind == WITHDRAWAL]

    @cached_property
    def actor_transfer_pairs(self) -> frozenset[tuple[Address, Address]]:
        """The distinct ``(sender, recipient)`` pairs of native and token
        transfers between two pool actors; built once, on first use."""
        actors = set().union(*self._counts.values())
        return frozenset((t.sender, t.recipient)
                         for t in self.native_transfers + self.token_transfers
                         if t.sender != t.recipient
                         and t.sender in actors and t.recipient in actors)

    # -- distance extensions --------------------------------------------------

    def depositors_at_distance(self, pool: PoolConfig,
                               n: int) -> tuple[frozenset[Address], ...]:
        """The address sets 1..``n`` native-coin hops upstream of the
        pool's deposits, from one walk.

        Distance 1 is the deposit-actor set itself; each further hop picks
        up the senders of native transfers into the previous frontier.
        """
        return self._at_distance(DEPOSIT, pool, n)

    def withdrawers_at_distance(self, pool: PoolConfig,
                                n: int) -> tuple[frozenset[Address], ...]:
        """Mirror of :meth:`depositors_at_distance` downstream of withdrawals."""
        return self._at_distance(WITHDRAWAL, pool, n)

    def _at_distance(self, kind: str, pool: PoolConfig,
                     n: int) -> tuple[frozenset[Address], ...]:
        if n < 1:
            raise InputError("distance must be at least 1")
        upstream = kind == DEPOSIT
        hops = self._incoming if upstream else self._outgoing
        far_end = operator.attrgetter("sender" if upstream else "recipient")
        # the count maps when built (views came first), else the lists the
        # covers read next
        first = self.actor_counts if "_counts" in vars(self) else self.actor_events
        frontiers = [frozenset(first(pool.pool_id, kind))]
        for _ in range(n - 1):
            frontiers.append(frozenset(far_end(tr) for a in frontiers[-1]
                                       for tr in hops.get(a, ())))
        return tuple(frontiers)

    # -- most-recent-transfer covers ------------------------------------------

    def source_transfers(self, depositor: Address,
                         pool: PoolConfig) -> tuple[TransferCover, ...]:
        """Attribute each deposit to the depositor's latest incoming value.

        For every deposit (oldest first) the incoming native transfers
        before it are pushed onto a stack in index order, and it pops the
        minimal most-recent unclaimed set whose value reaches the
        denomination, so each transfer is claimed at most once, in
        O(transfers + deposits).  Claimed values are then attributed
        chronologically, clipping the latest claims so each cover sums to
        exactly the denomination.  Insufficient incoming value is reported
        as a shortfall, not an error.
        """
        return self._covers(DEPOSIT, depositor, pool)

    def sink_transfers(self, withdrawer: Address,
                       pool: PoolConfig) -> tuple[TransferCover, ...]:
        """Forward mirror of :meth:`source_transfers`: each withdrawal
        claims the earliest unclaimed outgoing value after it, from one
        pointer that only moves forward: O(transfers + withdrawals)."""
        return self._covers(WITHDRAWAL, withdrawer, pool)

    def _covers(self, kind: str, actor: Address,
                pool: PoolConfig) -> tuple[TransferCover, ...]:
        anchors = self._lists.get((pool.pool_id, kind), {}).get(actor)
        if not anchors:
            raise InputError(f"{actor} has no {kind} in pool {pool.pool_id} before the cut")
        # a deposit looks back through incoming value, nearest first; a
        # withdrawal looks forward through outgoing value
        backward = kind == DEPOSIT
        side = self._incoming if backward else self._outgoing
        need = pool.denomination
        pending = [tr for tr in reversed(side.get(actor, ())) if tr.amount > 0]
        if not pending:
            return (TransferCover((), need),) * len(anchors)
        # ``pending``: the transfers no anchor has passed yet, earliest on top.
        # A deposit moves those it passes onto its stack of unclaimed value,
        # latest on top; a withdrawal drops them, as no later one can use them
        stack: list[Transfer] = []
        passed = operator.lt if backward else operator.le
        covers = []
        for anchor in anchors:
            at = position(anchor)
            while pending and passed(position(pending[-1]), at):
                tr = pending.pop()
                if backward:
                    stack.append(tr)
            source = stack if backward else pending
            claims, acc = [], 0
            while source and acc < need:
                claims.append(source.pop())
                acc += claims[-1].amount
            if backward:  # the claims in index order
                claims.reverse()
            if acc > need:  # clipped in index order, so the latest give way
                left = need
                for i, tr in enumerate(claims):
                    claims[i] = tr._replace(amount=min(tr.amount, left))
                    left -= claims[i].amount
            covers.append(TransferCover(tuple(claims), max(need - acc, 0)))
        return tuple(covers)


def build_index(transfers: Sequence[Transfer],
                token_transfers: Sequence[Transfer],
                events: Sequence[PoolEvent],
                labels: LabelBook | Mapping[Address, Iterable[str]] | None = None) -> LedgerIndex:
    """Build the immutable index over records that hold no repeat.

    Input order is irrelevant: any permutation of the same records yields
    an index answering every query identically.
    """
    if not isinstance(labels, LabelBook):
        labels = LabelBook(labels)
    return LedgerIndex(_in_record_order(transfers, transfer_order)[0],
                       _in_record_order(token_transfers, transfer_order)[0],
                       _in_record_order(events, event_order)[0], labels)
