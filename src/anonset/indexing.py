"""Queryable indexes over transfers and pool events.

The index is built once (single writer) and then only read, so a built
:class:`LedgerIndex` is safe to share between concurrent analyses.  It
holds the history at one cut (:func:`ledger.up_to`); no query takes one.
Records are kept in ``ledger``'s record order: input in strictly
increasing position (:func:`ledger.in_position_order`), as every emitted
file is, is kept as it comes, and other input is sorted.  A repeat is
rejected by ``dataset.ingest``, not here.

Two families of queries live here:

* distance-``n`` depositor/withdrawer extensions, which walk native-coin
  transfers one hop at a time away from the pool, and
* most-recent-transfer covers, which attribute each deposit (withdrawal)
  to the latest incoming (earliest outgoing) transfers that add up to the
  pool denomination.
"""

from __future__ import annotations

import operator
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InputError
from .ledger import (
    DEPOSIT,
    WITHDRAWAL,
    Address,
    Amount,
    PoolConfig,
    PoolEvent,
    Transfer,
    deposit_actors,
    event_order,
    in_position_order,
    position,
    transfer_order,
    withdrawal_actors,
)

USER_ACCOUNT = "user-account"
KNOWN_LABELS = frozenset({"contract", "exchange", "relayer", "malicious", USER_ACCOUNT})


class LabelBook:
    """Address labels; anything unlabeled defaults to ``user-account``."""

    def __init__(self, labels: Mapping[Address, Iterable[str]] | None = None):
        self._labels: dict[Address, frozenset[str]] = {}
        if labels:
            for addr, tags in labels.items():
                tagset = frozenset(tags)
                unknown = tagset - KNOWN_LABELS
                if unknown:
                    raise InputError(f"unknown labels for {addr}: {sorted(unknown)}")
                if tagset:
                    self._labels[addr] = tagset

    def labels_for(self, address: Address) -> frozenset[str]:
        return self._labels.get(address, frozenset({USER_ACCOUNT}))

    def is_relayer(self, address: Address) -> bool:
        return "relayer" in self._labels.get(address, frozenset())

    def is_user_account(self, address: Address) -> bool:
        """An externally owned account that is not a labeled exchange."""
        return not ({"contract", "exchange"} & self._labels.get(address, frozenset()))


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
    """Immutable per-address / per-pool views over a transfer universe."""

    def __init__(self, transfers: Sequence[Transfer],
                 token_transfers: Sequence[Transfer],
                 events: Sequence[PoolEvent],
                 labels: LabelBook):
        self.labels = labels
        self.native_transfers = _in_record_order(transfers, transfer_order)
        self.token_transfers = _in_record_order(token_transfers, transfer_order)
        self.pool_events = _in_record_order(events, event_order)

        self._incoming: dict[Address, list[Transfer]] = {}
        self._outgoing: dict[Address, list[Transfer]] = {}
        for t in self.native_transfers:
            self._incoming.setdefault(t.recipient, []).append(t)
            self._outgoing.setdefault(t.sender, []).append(t)

        # each pool's events, and each actor's own events of one kind in
        # one pool, both in chronological order
        self._by_pool: dict[str, list[PoolEvent]] = {}
        self._by_actor: dict[tuple[str, str, Address], list[PoolEvent]] = {}
        for e in self.pool_events:
            self._by_pool.setdefault(e.pool_id, []).append(e)
            self._by_actor.setdefault((e.pool_id, e.kind, e.actor), []).append(e)

    # -- plain accessors ----------------------------------------------------

    def incoming_native(self, address: Address) -> Sequence[Transfer]:
        return self._incoming.get(address, [])

    def events_for(self, pool_id: str) -> Sequence[PoolEvent]:
        return self._by_pool.get(pool_id, [])

    def actor_events(self) -> Mapping[tuple[str, str, Address], Sequence[PoolEvent]]:
        """Each actor's own events of one kind in one pool, keyed
        ``(pool_id, kind, actor)``, in index order; a read-only view."""
        return MappingProxyType(self._by_actor)

    @cached_property
    def actor_transfer_pairs(self) -> frozenset[tuple[Address, Address]]:
        """The distinct ``(sender, recipient)`` pairs of native and token
        transfers between two pool actors; built once, on first use."""
        actors = {actor for _pool, _kind, actor in self._by_actor}
        return frozenset((t.sender, t.recipient)
                         for t in self.native_transfers + self.token_transfers
                         if t.sender != t.recipient
                         and t.sender in actors and t.recipient in actors)

    # -- distance extensions --------------------------------------------------

    def depositors_at_distance(self, pool: PoolConfig, n: int) -> frozenset[Address]:
        """Addresses ``n`` native-coin hops upstream of the pool's deposits.

        Distance 1 is the deposit-actor set itself; each further hop picks
        up the senders of native transfers into the previous frontier.
        """
        return self._at_distance(DEPOSIT, pool, n)

    def withdrawers_at_distance(self, pool: PoolConfig, n: int) -> frozenset[Address]:
        """Mirror of :meth:`depositors_at_distance` downstream of withdrawals."""
        return self._at_distance(WITHDRAWAL, pool, n)

    def _at_distance(self, kind: str, pool: PoolConfig, n: int) -> frozenset[Address]:
        if n < 1:
            raise InputError("distance must be at least 1")
        upstream = kind == DEPOSIT
        actors = deposit_actors if upstream else withdrawal_actors
        hops = self._incoming if upstream else self._outgoing
        far_end = operator.attrgetter("sender" if upstream else "recipient")
        frontier = actors(self.events_for(pool.pool_id))
        for _ in range(n - 1):
            frontier = frozenset(far_end(tr) for a in frontier for tr in hops.get(a, ()))
        return frontier

    # -- most-recent-transfer covers ------------------------------------------

    def source_transfers(self, depositor: Address,
                         pool: PoolConfig) -> tuple[TransferCover, ...]:
        """Attribute each deposit to the depositor's latest incoming value.

        For every deposit (oldest first) the scan walks the unclaimed
        incoming native transfers backwards from the deposit and claims
        the minimal most-recent set whose value reaches the denomination.
        Claimed values are then attributed chronologically, clipping the
        latest claims so each cover sums to exactly the denomination; a
        transfer is claimable once across all of the address's deposits.
        Insufficient incoming value is reported as a shortfall, not an
        error.
        """
        return self._covers(DEPOSIT, depositor, pool)

    def sink_transfers(self, withdrawer: Address,
                       pool: PoolConfig) -> tuple[TransferCover, ...]:
        """Forward-scan mirror of :meth:`source_transfers`: each withdrawal
        claims the earliest unclaimed outgoing value after it."""
        return self._covers(WITHDRAWAL, withdrawer, pool)

    def _covers(self, kind: str, actor: Address,
                pool: PoolConfig) -> tuple[TransferCover, ...]:
        anchors = self._by_actor.get((pool.pool_id, kind, actor))
        if not anchors:
            raise InputError(f"{actor} has no {kind} in pool {pool.pool_id} before the cut")
        # a deposit looks back through incoming value, nearest first; a
        # withdrawal looks forward through outgoing value
        backward = kind == DEPOSIT
        side = self._incoming if backward else self._outgoing
        candidates = [tr for tr in side.get(actor, ()) if tr.amount > 0]
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
            claims = _attribute([candidates[i] for i in chosen], pool.denomination)
            covers.append(TransferCover(claims=claims,
                                        shortfall=max(pool.denomination - acc, 0)))
        return tuple(covers)


def _in_record_order(records: Sequence, order) -> tuple:
    return tuple(records if in_position_order(records) else sorted(records, key=order))


def _attribute(claims: Sequence[Transfer], need: Amount) -> tuple[Transfer, ...]:
    """Clip claim values chronologically so they sum to min(need, total)."""
    out = []
    remaining = need
    for tr in claims:
        take = min(tr.amount, remaining)
        out.append(tr if take == tr.amount else tr._replace(amount=take))
        remaining -= take
    return tuple(out)


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
    return LedgerIndex(transfers, token_transfers, events, labels)
