"""Linking heuristics.

Each heuristic inspects on-chain behavior and asserts same-owner address
pairs; it reports no anonymity set.  The one reduction of links to a
pool's *simplified anonymity set* is :func:`ledger.reduced_set`, which
:func:`metrics.anonymity_sets` runs once per reported set.

Every heuristic is a pure function of a :class:`PoolView`, the pool's
actor sets in one index of the history at a cut, built once
and shared (h5 takes the views of all pools); each reads what it needs
from the index's per-actor event counts and per-index tables, built on
first use, and none builds a list of events per actor.  Per-pool
evaluations can run concurrently.
:data:`HEURISTICS` maps each tag to its heuristic.
"""

from __future__ import annotations

from itertools import combinations, repeat
from operator import attrgetter, lt
from typing import AbstractSet, Callable, Iterable, NamedTuple, Sequence

from .errors import InputError
from .indexing import LedgerIndex
from .ledger import (
    DEPOSIT,
    WITHDRAWAL,
    Address,
    LinkPair,
    PoolConfig,
    PoolEvent,
    balances,
    crosses,
    position,
)

H1 = "h1"
H2 = "h2"
H3 = "h3"
H4 = "h4"
H5 = "h5"

_pool_id = attrgetter("pool_id")

# what a heuristic's link pairs join a depositor to
WITHDRAWER = "withdrawer"
FUNDER = "funder"  # an address one native-coin hop upstream


class PoolView(NamedTuple):
    """One pool of an index, computed once and shared by every heuristic
    and by the report.

    ``depositors`` and ``withdrawers`` are the key views (not copies) of
    the index's count maps (:meth:`LedgerIndex.actor_counts`), set-like
    for ``in``, ``len``, ``==``, ``<=`` and ``&``; no field holds balances.
    ``index`` answers the event, transfer and label queries of h2-h5; as a
    field it hides ``tuple.index``, which no caller uses.
    """

    pool: PoolConfig
    depositors: AbstractSet[Address]
    withdrawers: AbstractSet[Address]
    index: LedgerIndex

    @property
    def state(self) -> dict[Address, int]:
        """:func:`ledger.balances` of the counts, built on each read: no event
        is walked, and a report holds one pool's at a time."""
        return balances(self.pool, self.depositors.mapping, self.withdrawers.mapping)


def pool_view(index: LedgerIndex, pool: PoolConfig) -> PoolView:
    """``pool``'s view, read from the index's per-actor event counts."""
    deposits = index.actor_counts(pool.pool_id, DEPOSIT)
    withdrawals = index.actor_counts(pool.pool_id, WITHDRAWAL)
    return PoolView(pool=pool, depositors=deposits.keys(), withdrawers=withdrawals.keys(),
                    index=index)


class HeuristicResult(NamedTuple):
    """The link pairs one heuristic asserts on one pool.

    A record rather than a bare frozenset for one reason: the h2-h5 hooks
    of ``perfbench/tracing.py`` read ``.link_pairs``.
    """

    link_pairs: frozenset[LinkPair]


def h1_reuse(view: PoolView) -> HeuristicResult:
    """Deposit-address reuse.

    An address appearing on both sides of a pool spends its own notes, so
    only depositors with a positive balance still hide anything.  No
    address pairs are linked; the reduction comes from the balance rule
    alone.
    """
    return HeuristicResult(frozenset())


def h2_improper_sender(view: PoolView) -> HeuristicResult:
    """Improper withdrawal sender.

    A withdrawal signed by one of the pool's own depositors, naming a
    different recipient, betrays that sender and recipient share an owner.
    Registered relayers are exempt: signing withdrawals for strangers is
    their whole job.  The withdrawals come from one per-index list
    (:attr:`LedgerIndex.foreign_signed_withdrawals`), filtered per pool.
    """
    labels = view.index.labels
    pool_id, depositors = view.pool.pool_id, view.depositors
    pairs = {LinkPair(e.tx_sender, e.actor)
             for e in view.index.foreign_signed_withdrawals
             if e.pool_id == pool_id and e.tx_sender in depositors
             and not labels.is_relayer(e.tx_sender)}
    return HeuristicResult(frozenset(pairs))


def h3_related_pair(view: PoolView) -> HeuristicResult:
    """Related deposit-withdrawal address pair.

    A depositor and a withdrawer directly connected by any native or token
    transfer (either direction) are treated as one owner.  Deposits and
    withdrawals themselves are not transfer evidence; only the plain
    transfer record counts.  The transfers are scanned once per index
    (:attr:`LedgerIndex.actor_transfer_pairs`), not once per pool.
    """
    depositors, withdrawers = view.depositors, view.withdrawers
    pairs = {LinkPair(a, b) for a, b in view.index.actor_transfer_pairs
             if crosses(a, b, depositors, withdrawers)}
    return HeuristicResult(frozenset(pairs))


def h4_intermediary(view: PoolView) -> HeuristicResult:
    """Intermediary deposit address.

    A depositor whose entire incoming native-coin value arrives from a
    single user account one hop out is treated as a throwaway of that
    funder.  Contract and exchange funders are excluded; receiving from an
    exchange says nothing about ownership.  Self transfers and zero
    amounts are ignored.  The funders come from one per-index map
    (:attr:`LedgerIndex.sole_funders`), not from a scan per pool.
    """
    sole = view.index.sole_funders
    return HeuristicResult(frozenset(LinkPair(d1, sole[d1])
                                     for d1 in view.depositors & sole.keys()))


def h5_cross_pool(views: Iterable[PoolView]) -> dict[str, HeuristicResult]:
    """Cross-pool deposit pattern, evaluated jointly across pools.

    A depositor and a withdrawer are linked when they used exactly the
    same set of more than one pool, moved identical per-pool totals, and
    every withdrawal can be matched to an earlier deposit in its pool
    (equivalently, after sorting both sides per pool, each deposit
    precedes its same-rank withdrawal).  Pools are matched within each
    coin, so a pool that is the only one of its coin gets no links.  Each
    pool gets the pairs that involve it.

    The signatures come from the index's count maps
    (:func:`_signature_groups`); only the addresses of a signature both a
    depositor and a withdrawer have get their events, from one walk of the
    index's events.  A pair whose last deposit precedes its first
    withdrawal needs no ranking.
    """
    view_list = sorted(views, key=lambda v: v.pool.pool_id)
    if len(view_list) < 2:
        raise InputError("cross-pool matching needs at least two pools")
    if any(v.index is not view_list[0].index for v in view_list):
        raise InputError("cross-pool matching needs every view from one index")

    index = view_list[0].index
    pools_of_coin: dict[str, list[str]] = {}
    for v in view_list:
        pools_of_coin.setdefault(v.pool.coin, []).append(v.pool.pool_id)
    groups = _signature_groups(index, pools_of_coin)

    # the events of each address of a group with both sides
    own = {DEPOSIT: {d: [] for ds, ws in groups.values() if ws for d in ds},
           WITHDRAWAL: {w: [] for _, ws in groups.values() for w in ws}}
    if own[DEPOSIT]:
        for e in index.pool_events:
            mine = own[e.kind].get(e.actor)
            if mine is not None:
                mine.append(e)

    pairs_by_pool: dict[str, set[LinkPair]] = {v.pool.pool_id: set() for v in view_list}
    while groups:  # popped, and their events taken, so each is freed once matched
        (coin, *ns), (ds, ws) = groups.popitem()
        if not ws:
            continue
        pids = {pid for pid, n in zip(pools_of_coin[coin], ns) if n}
        count = sum(ns)
        before_of = [(d, _take(own[DEPOSIT], d, pids, count)) for d in ds]
        for w in ws:
            after = _take(own[WITHDRAWAL], w, pids, count)
            for d, before in before_of:
                if d != w and _ranked_before(before, after):
                    pair = LinkPair(d, w)
                    for pid in pids:
                        pairs_by_pool[pid].add(pair)

    return {pid: HeuristicResult(frozenset(pairs_by_pool.pop(pid)))
            for pid in [v.pool.pool_id for v in view_list]}


def _signature_groups(index: LedgerIndex, pools_of_coin: dict[str, list[str]],
                      ) -> dict[tuple, tuple[list[Address], list[Address]]]:
    """h5's depositors and withdrawers grouped by their signature ``(coin,
    n_1, ..., n_k)``, their event counts in the coin's pools.

    Only the addresses with events of one kind in at least two pools of a
    coin are read (all others have a one-pool signature), found by
    pairwise key intersections of the count maps; a withdrawer whose
    signature no depositor has is dropped at once.
    """
    groups: dict[tuple, tuple[list[Address], list[Address]]] = {}
    for coin, pids in pools_of_coin.items():
        for side, kind in enumerate((DEPOSIT, WITHDRAWAL)):
            counts = [index.actor_counts(pid, kind) for pid in pids]
            cross: set[Address] = set()
            for actors, others in combinations(counts, 2):
                cross |= actors.keys() & others.keys()
            sigs = zip(repeat(coin), *[map(n.get, cross, repeat(0)) for n in counts])
            for actor, sig in zip(cross, sigs):
                group = groups.get(sig)
                if group is None:
                    if side:
                        continue
                    groups[sig] = group = ([], [])
                group[side].append(actor)
    return groups


def _take(table: dict[Address, list[PoolEvent]], actor: Address,
          pids: AbstractSet[str], count: int) -> list[PoolEvent]:
    """``actor``'s ``count`` events in the pools ``pids``, in index order,
    taken out of ``table``; its events in other pools stay for the group
    of another coin."""
    events = table.pop(actor)
    if len(events) != count:
        table[actor] = [e for e in events if e.pool_id not in pids]
        events = [e for e in events if e.pool_id in pids]
    return events


def _ranked_before(deposits: list[PoolEvent], withdrawals: list[PoolEvent]) -> bool:
    """Whether in each pool every deposit comes strictly before the
    withdrawal of the same rank, of two lists in index order with equal
    counts per pool."""
    if position(deposits[-1]) < position(withdrawals[0]):  # all before all
        return True
    return all(map(lt, map(position, sorted(deposits, key=_pool_id)),
                   map(position, sorted(withdrawals, key=_pool_id))))


class Heuristic(NamedTuple):
    """One row of :data:`HEURISTICS`.

    ``run`` maps a view to its result or, for a ``cross_pool`` heuristic
    (which needs at least two pools), every pool's view to results keyed
    by pool id.  ``joins`` is :data:`WITHDRAWER` or :data:`FUNDER`, or
    None for a heuristic that links no pairs.
    """

    run: Callable
    cross_pool: bool = False
    joins: str | None = WITHDRAWER


# Each entry calls its heuristic through this module's globals instead of
# holding the function, so a wrapper installed on the module attribute
# (as perfbench/tracing.py does) sees every call.
HEURISTICS: dict[str, Heuristic] = {
    H1: Heuristic(lambda view: h1_reuse(view), joins=None),
    H2: Heuristic(lambda view: h2_improper_sender(view)),
    H3: Heuristic(lambda view: h3_related_pair(view)),
    H4: Heuristic(lambda view: h4_intermediary(view), joins=FUNDER),
    H5: Heuristic(lambda views: h5_cross_pool(views), cross_pool=True),
}


def default_tags(pool_count: int, linking_only: bool = False) -> tuple[str, ...]:
    """Every heuristic that can run on ``pool_count`` pools; with
    ``linking_only``, only those that link address pairs."""
    return tuple(tag for tag, h in HEURISTICS.items()
                 if (pool_count > 1 or not h.cross_pool)
                 and not (linking_only and h.joins is None))


def run_heuristics(tags: Iterable[str], views: Sequence[PoolView],
                   ) -> dict[str, dict[str, frozenset[LinkPair]]]:
    """Every tagged heuristic's link pairs on every view, as
    ``{pool_id: {tag: pairs}}`` in the order of ``views`` and ``tags``."""
    links = {v.pool.pool_id: {} for v in views}
    for tag in tags:
        h = HEURISTICS[tag]
        per_pool = h.run(views) if h.cross_pool else {v.pool.pool_id: h.run(v) for v in views}
        for pool_id, mine in links.items():
            mine[tag] = per_pool[pool_id].link_pairs
    return links

