"""Core domain records and the pool-state algebra.

Everything in this module is a plain immutable value.  Analyses never
mutate a record, so all of these objects can be shared freely between
threads.

Conventions used throughout the package:

* Addresses are canonical lowercase ``0x``-prefixed hex strings; run
  external input through :func:`normalize_address` once, at the boundary.
* Amounts and balances are exact integers in base units.  No floats ever
  touch a balance.
* Logical time is a block height with a (transaction index, log index)
  tie-break.  Time-cut arguments (``t``) are plain heights and are
  inclusive: an event in block ``t`` belongs to the history at ``t``.
* A pool state is a plain ``dict`` of signed balances by address.  The
  algebra never mutates a state it is given; it returns a fresh one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import InputError

Address = str
Amount = int

DEPOSIT = "deposit"
WITHDRAWAL = "withdrawal"

POSITIVE = "positive"
NEGATIVE = "negative"

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


@dataclass(frozen=True, order=True, slots=True)
class BlockPosition:
    """Logical timestamp: block height, ordered within a block by
    transaction index and then log index."""

    height: int
    tx_index: int = 0
    log_index: int = 0

    def __post_init__(self):
        if self.height < 0 or self.tx_index < 0 or self.log_index < 0:
            raise InputError(f"negative block position component: {self}")


@dataclass(frozen=True, slots=True)
class Transfer:
    """One value movement between two addresses.

    ``internal`` marks contract-triggered movements at ingestion time; no
    analysis distinguishes them from direct transfers.
    """

    block: BlockPosition
    sender: Address
    recipient: Address
    amount: Amount
    coin: str
    internal: bool = False

    def __post_init__(self):
        if self.amount < 0:
            raise InputError(f"negative transfer amount: {self.amount}", field="amount")


@dataclass(frozen=True, slots=True)
class PoolConfig:
    """A fixed-denomination pool: every deposit and withdrawal moves
    exactly ``denomination`` base units of ``coin``."""

    pool_id: str
    coin: str
    denomination: Amount
    am_weight: int = 1

    def __post_init__(self):
        if self.denomination <= 0:
            raise InputError(f"pool {self.pool_id}: denomination must be positive",
                             field="denomination")
        if self.am_weight <= 0:
            raise InputError(f"pool {self.pool_id}: mining weight must be positive",
                             field="am_weight")


@dataclass(frozen=True, slots=True)
class PoolEvent:
    """A deposit or withdrawal against a pool.

    ``actor`` is the depositor for deposits and the funds recipient for
    withdrawals. ``tx_sender`` is the account that signed the transaction;
    for a relayed withdrawal it equals the relayer.
    """

    pool_id: str
    kind: str
    block: BlockPosition
    actor: Address
    tx_sender: Address
    relayer: Address | None = None

    def __post_init__(self):
        if self.kind not in (DEPOSIT, WITHDRAWAL):
            raise InputError(f"unknown pool event kind: {self.kind!r}", field="kind")
        if self.kind == DEPOSIT and self.relayer is not None:
            raise InputError("deposits cannot carry a relayer", field="relayer")
        if self.relayer is not None and self.tx_sender != self.relayer:
            raise InputError("relayed withdrawal must be signed by its relayer", field="tx_sender")


@dataclass(frozen=True, slots=True)
class LinkPair:
    """An asserted same-owner (or, with negative polarity, distinct-owner)
    address pair.

    Pairs are unordered: the constructor sorts the two addresses, and
    equality and hashing ignore ``source`` and ``polarity`` so that the
    same pair found by two heuristics deduplicates in a set.
    """

    a1: Address
    a2: Address
    source: str = field(default="", compare=False)
    polarity: str = field(default=POSITIVE, compare=False)

    def __post_init__(self):
        if self.a1 == self.a2:
            raise InputError(f"degenerate link pair: {self.a1}")
        if self.polarity not in (POSITIVE, NEGATIVE):
            raise InputError(f"unknown polarity: {self.polarity!r}")
        if self.a2 < self.a1:
            lo, hi = self.a2, self.a1
            object.__setattr__(self, "a1", lo)
            object.__setattr__(self, "a2", hi)

    @property
    def addresses(self) -> tuple[Address, Address]:
        return (self.a1, self.a2)


# ---------------------------------------------------------------------------
# Event algebra


def events_for_pool(events: Iterable[PoolEvent], pool_id: str) -> list[PoolEvent]:
    return [e for e in events if e.pool_id == pool_id]


def deposit_actors(events: Iterable[PoolEvent], t: int) -> frozenset[Address]:
    return frozenset(e.actor for e in events
                     if e.kind == DEPOSIT and e.block.height <= t)


def withdrawal_actors(events: Iterable[PoolEvent], t: int) -> frozenset[Address]:
    return frozenset(e.actor for e in events
                     if e.kind == WITHDRAWAL and e.block.height <= t)


def _check_pool(events: Iterable[PoolEvent], pool: PoolConfig) -> None:
    for e in events:
        if e.pool_id != pool.pool_id:
            raise InputError(
                f"event for pool {e.pool_id!r} passed to pool {pool.pool_id!r}")


def pool_state(pool: PoolConfig, events: Sequence[PoolEvent], t: int) -> dict[Address, int]:
    """The pool state at ``t``: the signed balance of every address with
    at least one event up to ``t``, in base units.

    The sum of all balances always equals
    ``(total deposits - total withdrawals) * denomination``.
    """
    _check_pool(events, pool)
    net: dict[Address, int] = {}
    for e in events:
        if e.block.height > t:
            continue
        delta = 1 if e.kind == DEPOSIT else -1
        net[e.actor] = net.get(e.actor, 0) + delta
    return {a: n * pool.denomination for a, n in net.items()}


def connected_components(pairs: Iterable[LinkPair]) -> tuple[tuple[Address, ...], ...]:
    """Connected components of the undirected link graph, each a sorted
    member tuple, ordered by their smallest member."""
    parent: dict[Address, Address] = {}

    def find(a: Address) -> Address:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    for p in pairs:
        for a in p.addresses:
            parent.setdefault(a, a)
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


def cluster_balances(state: Mapping[Address, int], links: Iterable[LinkPair],
                     ) -> list[tuple[tuple[Address, ...], int]]:
    """The cluster reduction: group the state's addresses along positive
    link pairs and sum each group's balance.

    Returns ``(members, balance)`` per cluster with members sorted.  An
    address in no pair is a cluster of its own; a linked address absent
    from the state contributes zero.  The partition and the balances are
    independent of the order the pairs are supplied in.  Negative-polarity
    pairs are rejected: distinct-owner evidence never merges balances.
    """
    links = list(links)
    for p in links:
        if p.polarity != POSITIVE:
            raise InputError("cluster reduction accepts positive link pairs only")
    linked: set[Address] = set()
    clusters = []
    for members in connected_components(links):
        linked.update(members)
        clusters.append((members, sum(state.get(a, 0) for a in members)))
    clusters.extend(((a,), b) for a, b in state.items() if a not in linked)
    return clusters


def simplify_state(state: Mapping[Address, int],
                   links: Iterable[LinkPair]) -> dict[Address, int]:
    """Merge the balances of linked addresses: one entry per cluster, keyed
    by its lexicographically smallest member.

    Merged entries are kept even when their balance is zero, so the total
    balance is conserved and checkable.
    """
    return {members[0]: balance for members, balance in cluster_balances(state, links)}


def reduced_set(state: Mapping[Address, int], links: Iterable[LinkPair],
                depositors: frozenset[Address]) -> frozenset[Address]:
    """One address per positive-balance cluster: its smallest depositor.

    A positive cluster always contains a depositor of the state's history,
    since a positive balance needs more deposits than withdrawals
    somewhere in it, so the set stays inside the observed deposit-address
    set.  Merging more links can only shrink it.
    """
    return frozenset(next(a for a in members if a in depositors)
                     for members, balance in cluster_balances(state, links) if balance > 0)
