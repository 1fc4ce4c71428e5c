"""Core domain records and the pool-state algebra.

This module holds every record type a dataset file decodes into, so
ingestion loads no analysis module.  Everything in it is a plain
immutable value.  Analyses never mutate a record, so all of these
objects can be shared freely between threads.

Every record of the package is a named tuple: a tuple is built and hashed
in C, and its class is built without generating code at import.  A record
with checks, such as :class:`Transfer`, :class:`PoolEvent`,
:class:`PoolConfig`, :class:`LinkPair` and :class:`APClaim`, is a
:class:`Validated` subclass of a named tuple of its fields: its
``__new__`` runs every check, and ``_make``, and so ``_replace``, go
through it.

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
  :func:`event_order`: its position, then every other field.  Emission
  sets it up once, by :func:`_in_record_order`, and ``dataset.ingest`` a
  batch at a time: a file :func:`in_position_order` finds in strictly
  increasing position is in that order already, and any other is sorted
  by it, so the index a dataset builds keeps its records as they come.  A repeated record is
  rejected once, also by ``dataset.ingest``; nothing below it checks again.
* A pool state is a plain ``dict`` of signed balances by address, made
  by the one formula :func:`balances` from per-address deposit and
  withdrawal counts.  The algebra never mutates a state it is given; it
  returns a fresh one.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import pairwise, starmap
from operator import attrgetter, lt
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InputError

Address = str
Amount = int

# a dataset directory's two JSON files beside its record files: ``dataset``
# reads the manifest, ``synth`` writes both, and ``anonymity --tas`` reads
# the sidecar
MANIFEST_FILE = "manifest.json"
GROUND_TRUTH_FILE = "ground_truth.json"

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
    return all(starmap(lt, pairwise(map(position, records))))


def _in_record_order(records: Sequence, order) -> tuple[tuple, bool]:
    """``records`` in their record ``order``, and whether they came in it."""
    in_order = in_position_order(records)
    return tuple(records if in_order else sorted(records, key=order)), in_order


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


class _APClaimFields(NamedTuple):
    recipient: Address
    block: int
    ap: int


class APClaim(Validated, _APClaimFields):
    """A point-to-reward conversion: who received it, when, how many
    points were converted."""

    __slots__ = ()

    def __new__(cls, recipient: Address, block: int, ap: int):
        if ap < 0:
            raise InputError("converted points cannot be negative", field="ap")
        if block < 0:
            raise InputError("claim block cannot be negative", field="block")
        return tuple.__new__(cls, (recipient, block, ap))


class NameTransfer(NamedTuple):
    """Ownership of a registered name moving from one address to another."""

    name: str
    sender: Address
    recipient: Address
    block: int
    expiry: int


class SubdomainGrant(NamedTuple):
    """A name owner assigning one of its subdomains to an address."""

    owner: Address
    assignee: Address
    subdomain: str


class FollowEdge(NamedTuple):
    follower: Address
    followed: Address


USER_ACCOUNT = "user-account"
KNOWN_LABELS = frozenset({"contract", "exchange", "relayer", "malicious", USER_ACCOUNT})
_NOT_USER_ACCOUNT = frozenset({"contract", "exchange"})


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
        return _NOT_USER_ACCOUNT.isdisjoint(self._labels.get(address, ()))


def crosses(a: Address, b: Address, side_a: frozenset[Address],
            side_b: frozenset[Address]) -> bool:
    """Whether ``a`` and ``b`` join the two sides: one in each, either way."""
    return (a in side_a and b in side_b) or (b in side_a and a in side_b)


# ---------------------------------------------------------------------------
# Event algebra


def up_to(records: Iterable, t: int) -> tuple:
    """The pool events or transfers in the history at the inclusive cut ``t``,
    in order: the input tuple itself, uncopied, when none lies past ``t``."""
    records = tuple(records)
    if max(map(attrgetter("height"), records), default=t) <= t:
        return records
    return tuple(r for r in records if r.height <= t)


def _check_pool(events: Iterable[PoolEvent], pool: PoolConfig) -> None:
    for e in events:
        if e.pool_id != pool.pool_id:
            raise InputError(
                f"event for pool {e.pool_id!r} passed to pool {pool.pool_id!r}")


def balances(pool: PoolConfig, deposits: Mapping[Address, int],
             withdrawals: Mapping[Address, int]) -> dict[Address, int]:
    """The one balance formula: each address's ``(deposits - withdrawals) *
    denomination``, from its counts of each, for every address with one.

    The sum of all balances always equals
    ``(total deposits - total withdrawals) * denomination``.
    """
    denomination = pool.denomination
    state = {a: n * denomination for a, n in deposits.items()}
    for a, n in withdrawals.items():
        state[a] = state.get(a, 0) - n * denomination
    return state


def pool_state(pool: PoolConfig, events: Sequence[PoolEvent]) -> dict[Address, int]:
    """The pool state after ``events``: the signed balance of every address
    with at least one of them, in base units (:func:`balances`)."""
    _check_pool(events, pool)
    return balances(pool, Counter(e.actor for e in events if e.kind == DEPOSIT),
                    Counter(e.actor for e in events if e.kind == WITHDRAWAL))


def _root(parent: dict[Address, Address], a: Address) -> Address:
    while (up := parent[a]) != a:
        parent[a] = a = parent[up]  # a now points to its grandparent, and steps there
    return a


def cluster_roots(pairs: Iterable[LinkPair]) -> dict[Address, Address]:
    """Each linked address mapped to its cluster's root, its smallest member.
    Unions anchor on the smaller root, and every find, the last of each
    address too, compresses the path it walks by halving it (each address
    passed points to its grandparent): a chain would be quadratic without."""
    parent: dict[Address, Address] = {}
    for a, b in pairs:  # a new address joins as its own root
        ra = _root(parent, a) if a in parent else parent.setdefault(a, a)
        rb = _root(parent, b) if b in parent else parent.setdefault(b, b)
        lo, hi = (ra, rb) if ra < rb else (rb, ra)
        parent[hi] = lo
    return {a: up if parent[up] == up else _root(parent, a) for a, up in parent.items()}


def connected_components(pairs: Iterable[LinkPair]) -> tuple[tuple[Address, ...], ...]:
    """Connected components of the undirected link graph, each a sorted
    member tuple, ordered by their smallest member."""
    groups: dict[Address, list[Address]] = {}
    for a, root in cluster_roots(pairs).items():
        groups.setdefault(root, []).append(a)
    return tuple(tuple(sorted(groups[root])) for root in sorted(groups))


def reduced_set(state: Mapping[Address, int], links: Iterable[LinkPair],
                depositors: frozenset[Address]) -> frozenset[Address]:
    """The one cluster reduction: merge balances along the same-owner link
    pairs and keep one address per positive-balance cluster, its smallest
    depositor.

    A linked address absent from the state contributes zero, and the
    result is independent of the order of the pairs.  Every pair given
    merges: distinct-owner evidence is never passed here.  A positive
    balance needs more deposits than withdrawals somewhere in it, so a
    positive cluster holds a depositor and the set stays inside the
    observed deposit-address set; a ``depositors`` set that misses one
    raises :class:`InputError`.  Merging more links can only shrink it.

    Cost: one pass over the state plus near-linear work in the linked
    addresses, as long as :func:`cluster_roots` compresses every path it
    walks; an unlinked address costs no depositor lookup.
    """
    roots = cluster_roots(links)
    kept = {a for a, b in state.items() if b > 0 and a not in roots}
    totals, keepers = {}, {}
    for a, root in roots.items():
        totals[root] = totals.get(root, 0) + state.get(a, 0)
        if a in depositors and (root not in keepers or a < keepers[root]):
            keepers[root] = a
    # a positive cluster without a depositor keeps its root: the check fails
    kept.update(keepers.get(root, root) for root, total in totals.items() if total > 0)
    if not kept <= depositors:
        raise InputError(f"positive cluster without a depositor: {min(kept - depositors)}")
    return frozenset(kept)
