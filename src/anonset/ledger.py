"""Core domain records and the pool-state algebra.

Everything in this module is a plain immutable value.  Analyses never
mutate a record, so all of these objects can be shared freely between
threads.

Every record of the package is a named tuple: a tuple is built and hashed
in C, and its class is built without generating code at import.  A record
with checks, such as :class:`Transfer`, :class:`PoolEvent`,
:class:`PoolConfig` and :class:`LinkPair`, is a :class:`Validated`
subclass of a named tuple of its fields: its ``__new__`` runs every
check, and ``_make``, and so ``_replace``, go through it.

Conventions used throughout the package:

* Addresses are canonical lowercase ``0x``-prefixed hex strings; run
  external input through :func:`normalize_address` once, at the boundary.
* Amounts and balances are exact integers in base units.  No floats ever
  touch a balance.
* Logical time is a block height with a (transaction index, log index)
  tie-break: three plain ints on every transfer and pool event, ordered
  by :data:`position` and nothing else.  The time cut is applied once, by
  :func:`up_to` through ``Dataset.build_index``; no query below it takes
  a height.
* Each record type has one total order, :func:`transfer_order` or
  :func:`event_order`: its position, then every other field.  The emitted
  record files are sorted by it, and so is the index, unless
  :func:`in_position_order` finds its input in strictly increasing
  position, which is that order already.  A repeated record is rejected
  once, by ``dataset.ingest``; nothing below it checks again.
* A pool state is a plain ``dict`` of signed balances by address.  The
  algebra never mutates a state it is given; it returns a fresh one.
"""

from __future__ import annotations

import re
from itertools import islice
from operator import attrgetter, lt
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InputError

Address = str
Amount = int

DEPOSIT = "deposit"
WITHDRAWAL = "withdrawal"

_ADDRESS_RE = re.compile(r"(0x|0X)?[0-9a-fA-F]{40}\Z")


def normalize_address(value: str) -> Address:
    """Canonicalize an address string.

    Accepts 40 hex digits with or without a ``0x`` prefix and returns the
    lowercase prefixed form, so two spellings of the same 20 bytes compare
    equal with plain ``==``.  Anything else raises :class:`InputError`.
    """
    text = value.strip()
    if not _ADDRESS_RE.match(text):
        raise InputError(f"malformed address: {value!r}")
    if text[:2] in ("0x", "0X"):
        text = text[2:]
    return "0x" + text.lower()


# The one record order: block height, then transaction index, then log index.
position = attrgetter("height", "tx_index", "log_index")


def transfer_order(t: Transfer):
    return (*position(t), t.sender, t.recipient, t.amount, t.coin)


def event_order(e: PoolEvent):
    return (*position(e), e.pool_id, e.kind, e.actor, e.tx_sender, e.relayer or "")


def in_position_order(records: Sequence) -> bool:
    """Whether each record's position is strictly after the one before it:
    then they hold no tie and no repeat, and are in their record order."""
    return all(map(lt, map(position, records), map(position, islice(records, 1, None))))


def _check_position(height: int, tx_index: int, log_index: int) -> None:
    if height < 0 or tx_index < 0 or log_index < 0:
        raise InputError(
            f"negative block position component: {(height, tx_index, log_index)}")


class Validated:
    """Base of a validated named tuple, listed before its field tuple: the
    namedtuple's own ``_make``, which ``_replace`` calls, builds the tuple
    without the checks of the subclass's ``__new__``; this one runs them."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _TransferFields(NamedTuple):
    height: int
    sender: Address
    recipient: Address
    amount: Amount
    coin: str
    tx_index: int = 0
    log_index: int = 0


class Transfer(Validated, _TransferFields):
    """One value movement between two addresses, direct or contract-
    triggered alike: no analysis tells the two apart."""

    __slots__ = ()

    def __new__(cls, height: int, sender: Address, recipient: Address, amount: Amount,
                coin: str, tx_index: int = 0, log_index: int = 0):
        _check_position(height, tx_index, log_index)
        if amount < 0:
            raise InputError(f"negative transfer amount: {amount}", field="amount")
        return tuple.__new__(cls, (height, sender, recipient, amount, coin, tx_index,
                                   log_index))


class _PoolConfigFields(NamedTuple):
    pool_id: str
    coin: str
    denomination: Amount
    am_weight: int = 1


class PoolConfig(Validated, _PoolConfigFields):
    """A fixed-denomination pool: every deposit and withdrawal moves
    exactly ``denomination`` base units of ``coin``."""

    __slots__ = ()

    def __new__(cls, pool_id: str, coin: str, denomination: Amount, am_weight: int = 1):
        if denomination <= 0:
            raise InputError(f"pool {pool_id}: denomination must be positive",
                             field="denomination")
        if am_weight <= 0:
            raise InputError(f"pool {pool_id}: mining weight must be positive",
                             field="am_weight")
        return tuple.__new__(cls, (pool_id, coin, denomination, am_weight))


class _PoolEventFields(NamedTuple):
    pool_id: str
    kind: str
    height: int
    actor: Address
    tx_sender: Address
    relayer: Address | None = None
    tx_index: int = 0
    log_index: int = 0


class PoolEvent(Validated, _PoolEventFields):
    """A deposit or withdrawal against a pool.

    ``actor`` is the depositor for deposits and the funds recipient for
    withdrawals. ``tx_sender`` is the account that signed the transaction;
    for a relayed withdrawal it equals the relayer.
    """

    __slots__ = ()

    def __new__(cls, pool_id: str, kind: str, height: int, actor: Address,
                tx_sender: Address, relayer: Address | None = None, tx_index: int = 0,
                log_index: int = 0):
        _check_position(height, tx_index, log_index)
        if kind not in (DEPOSIT, WITHDRAWAL):
            raise InputError(f"unknown pool event kind: {kind!r}", field="kind")
        if relayer is not None:
            if kind == DEPOSIT:
                raise InputError("deposits cannot carry a relayer", field="relayer")
            if tx_sender != relayer:
                raise InputError("relayed withdrawal must be signed by its relayer",
                                 field="tx_sender")
        return tuple.__new__(cls, (pool_id, kind, height, actor, tx_sender, relayer,
                                   tx_index, log_index))


class _LinkPairFields(NamedTuple):
    a1: Address
    a2: Address


class LinkPair(Validated, _LinkPairFields):
    """An asserted address pair, unordered: the tuple of its two sorted
    addresses, so the same pair found by two heuristics deduplicates in a
    set.  The set holding it says what it asserts."""

    __slots__ = ()

    def __new__(cls, a1: Address, a2: Address):
        if a1 == a2:
            raise InputError(f"degenerate link pair: {a1}")
        if a2 < a1:
            a1, a2 = a2, a1
        return tuple.__new__(cls, (a1, a2))

    @property
    def addresses(self) -> tuple[Address, Address]:
        return (self.a1, self.a2)


# ---------------------------------------------------------------------------
# Event algebra


def up_to(records: Iterable, t: int) -> tuple:
    """The pool events or transfers in the history at the cut ``t``, in order.
    The cut is inclusive: a record in block ``t`` belongs to it."""
    return tuple(r for r in records if r.height <= t)


def deposit_actors(events: Iterable[PoolEvent]) -> frozenset[Address]:
    return frozenset(e.actor for e in events if e.kind == DEPOSIT)


def withdrawal_actors(events: Iterable[PoolEvent]) -> frozenset[Address]:
    return frozenset(e.actor for e in events if e.kind == WITHDRAWAL)


def _check_pool(events: Iterable[PoolEvent], pool: PoolConfig) -> None:
    for e in events:
        if e.pool_id != pool.pool_id:
            raise InputError(
                f"event for pool {e.pool_id!r} passed to pool {pool.pool_id!r}")


def pool_state(pool: PoolConfig, events: Sequence[PoolEvent]) -> dict[Address, int]:
    """The pool state after ``events``: the signed balance of every address
    with at least one of them, in base units.

    The sum of all balances always equals
    ``(total deposits - total withdrawals) * denomination``.
    """
    _check_pool(events, pool)
    net: dict[Address, int] = {}
    for e in events:
        delta = 1 if e.kind == DEPOSIT else -1
        net[e.actor] = net.get(e.actor, 0) + delta
    return {a: n * pool.denomination for a, n in net.items()}


def connected_components(pairs: Iterable[LinkPair]) -> tuple[tuple[Address, ...], ...]:
    """Connected components of the undirected link graph, each a sorted
    member tuple, ordered by their smallest member."""
    parent: dict[Address, Address] = {}

    def find(a: Address) -> Address:
        # a new address joins as its own root
        root = parent.setdefault(a, a)
        if root == a:
            return a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    for p in pairs:
        ra, rb = find(p.a1), find(p.a2)
        if ra != rb:
            # anchor on the smaller root so representatives are canonical
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo

    groups: dict[Address, list[Address]] = {}
    for a in parent:
        groups.setdefault(find(a), []).append(a)
    # a root is its component's smallest member
    return tuple(tuple(sorted(groups[root])) for root in sorted(groups))


def _linked_clusters(state: Mapping[Address, int], links: Iterable[LinkPair],
                     ) -> tuple[list[tuple[tuple[Address, ...], int]], set[Address]]:
    """The clusters of the linked addresses alone, each ``(members,
    balance)`` with members sorted, and the set of linked addresses.  The
    one cluster reduction: :func:`cluster_balances` and
    :func:`reduced_set` are both built on it."""
    linked: set[Address] = set()
    clusters = []
    for members in connected_components(links):
        linked.update(members)
        clusters.append((members, sum(state.get(a, 0) for a in members)))
    return clusters, linked


def cluster_balances(state: Mapping[Address, int], links: Iterable[LinkPair],
                     ) -> list[tuple[tuple[Address, ...], int]]:
    """The cluster reduction: group the state's addresses along the
    same-owner link pairs and sum each group's balance.

    Returns ``(members, balance)`` per cluster with members sorted.  An
    address in no pair is a cluster of its own; a linked address absent
    from the state contributes zero.  The partition and the balances are
    independent of the order the pairs are supplied in.  Every pair given
    merges: distinct-owner evidence is never passed here.
    """
    clusters, linked = _linked_clusters(state, links)
    clusters.extend(((a,), b) for a, b in state.items() if a not in linked)
    return clusters


def reduced_set(state: Mapping[Address, int], links: Iterable[LinkPair],
                depositors: frozenset[Address]) -> frozenset[Address]:
    """One address per positive-balance cluster: its smallest depositor.

    A positive cluster always contains a depositor of the state's history,
    since a positive balance needs more deposits than withdrawals
    somewhere in it, so the set stays inside the observed deposit-address
    set.  Merging more links can only shrink it.  A ``depositors`` set
    that misses a positive cluster raises :class:`InputError`.

    Cost: O(linked addresses) plus one pass over the state; an unlinked
    address costs no cluster tuple and no depositor lookup of its own.
    """
    clusters, linked = _linked_clusters(state, links)
    kept = {a for a, b in state.items() if b > 0} - linked
    # a linked cluster without a depositor adds a non-depositor, which the
    # check below rejects
    kept.update(next((a for a in members if a in depositors), members[0])
                for members, balance in clusters if balance > 0)
    if not kept <= depositors:
        raise InputError(f"positive cluster without a depositor: {min(kept - depositors)}")
    return frozenset(kept)
