"""Linking heuristics.

Each heuristic inspects on-chain behavior and asserts same-owner address
pairs; it reports no anonymity set.  The one reduction of links to a
pool's *simplified anonymity set* is :func:`ledger.reduced_set`, which
:func:`metrics.anonymity_sets` runs once per reported set.

Every heuristic is a pure function of a :class:`PoolView`, the pool's
state and actor sets in one index of the history at a cut, built once
and shared (h5 takes the views of all pools); each reads the events and
transfers it needs from the index's per-actor event lists and per-index
tables, never a pool's full event list.  Per-pool evaluations can run
concurrently.
:data:`HEURISTICS` maps each tag to its heuristic.
"""

from __future__ import annotations

from itertools import chain, combinations
from operator import lt
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

# what a heuristic's link pairs join a depositor to
WITHDRAWER = "withdrawer"
FUNDER = "funder"  # an address one native-coin hop upstream


class PoolView(NamedTuple):
    """One pool of an index, computed once and shared by every heuristic
    and by the report.

    ``depositors`` and ``withdrawers`` are the key views (not copies) of
    the index's actor maps (:meth:`LedgerIndex.actor_events`), set-like for
    ``in``, ``len``, ``==``, ``<=`` and ``&``; ``state`` is
    :func:`ledger.balances` of the lengths of their lists, so no event is
    walked again.  ``index`` answers the event, transfer and label queries
    of h2-h5; as a field it hides ``tuple.index``, which no caller uses.
    """

    pool: PoolConfig
    state: dict[Address, int]
    depositors: AbstractSet[Address]
    withdrawers: AbstractSet[Address]
    index: LedgerIndex


def pool_view(index: LedgerIndex, pool: PoolConfig) -> PoolView:
    """``pool``'s view, read from the index's per-actor event lists."""
    deposits = index.actor_events(pool.pool_id, DEPOSIT)
    withdrawals = index.actor_events(pool.pool_id, WITHDRAWAL)
    return PoolView(pool=pool,
                    state=balances(pool, dict(zip(deposits, map(len, deposits.values()))),
                                   dict(zip(withdrawals, map(len, withdrawals.values())))),
                    depositors=deposits.keys(), withdrawers=withdrawals.keys(), index=index)


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
    their whole job.  The withdrawals come from the index's per-actor
    lists (:meth:`LedgerIndex.actor_events`).
    """
    labels = view.index.labels
    withdrawals = view.index.actor_events(view.pool.pool_id, WITHDRAWAL)
    pairs = {LinkPair(e.tx_sender, e.actor)
             for e in chain.from_iterable(withdrawals.values())
             if e.tx_sender != e.actor
             and e.tx_sender in view.depositors
             and e.relayer is None and not labels.is_relayer(e.tx_sender)}
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
    The per-address event lists come from the index
    (:meth:`LedgerIndex.actor_events`); no pool's event list is walked.
    """
    view_list = sorted(views, key=lambda v: v.pool.pool_id)
    if len(view_list) < 2:
        raise InputError("cross-pool matching needs at least two pools")
    if any(v.index is not view_list[0].index for v in view_list):
        raise InputError("cross-pool matching needs every view from one index")

    index = view_list[0].index
    coin_of = {v.pool.pool_id: v.pool.coin for v in view_list}
    pools_of_coin: dict[str, list[str]] = {}
    for pid, coin in coin_of.items():
        pools_of_coin.setdefault(coin, []).append(pid)
    pairs_by_pool: dict[str, set[LinkPair]] = {pid: set() for pid in coin_of}
    # each address's events per pool of one coin, for the addresses with
    # events of one kind in at least two of its pools (all others have a
    # one-pool signature): the index's own per-actor lists, which come in
    # index order, so each is already in position order.  Pairwise key
    # intersections find those addresses without a table for every actor
    dep_events: dict[tuple[str, Address], dict[str, Sequence[PoolEvent]]] = {}
    wd_events: dict[tuple[str, Address], dict[str, Sequence[PoolEvent]]] = {}
    for coin, pids in pools_of_coin.items():
        for kind, table in ((DEPOSIT, dep_events), (WITHDRAWAL, wd_events)):
            by_pool = [(pid, index.actor_events(pid, kind)) for pid in pids]
            cross: set[Address] = set()
            for (_, actors), (_, others) in combinations(by_pool, 2):
                cross |= actors.keys() & others.keys()
            for actor in cross:
                table[(coin, actor)] = {pid: events for pid, actors in by_pool
                                        if (events := actors.get(actor))}

    # a signature names its pools, so equal signatures share one coin
    def signature(per_pool: dict[str, Sequence[PoolEvent]]) -> tuple:
        return tuple((pid, len(events)) for pid, events in per_pool.items())

    by_sig_d: dict[tuple, list[tuple[str, Address]]] = {}
    for d, per_pool in dep_events.items():
        by_sig_d.setdefault(signature(per_pool), []).append(d)
    by_sig_w: dict[tuple, list[tuple[str, Address]]] = {}
    for w, per_pool in wd_events.items():
        by_sig_w.setdefault(signature(per_pool), []).append(w)

    for sig, ds in by_sig_d.items():
        for w in by_sig_w.get(sig, []):
            for d in ds:
                if d == w:
                    continue
                if all(
                    all(map(lt, map(position, dep_events[d][pid]),
                            map(position, wd_events[w][pid])))
                    for pid, _count in sig
                ):
                    pair = LinkPair(d[1], w[1])
                    for pid, _count in sig:
                        pairs_by_pool[pid].add(pair)

    return {v.pool.pool_id: HeuristicResult(frozenset(pairs_by_pool[v.pool.pool_id]))
            for v in view_list}


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
                   every: Sequence[PoolView] | None = None,
                   ) -> dict[str, dict[str, frozenset[LinkPair]]]:
    """Every tagged heuristic's link pairs on every view, as
    ``{pool_id: {tag: pairs}}`` in the order of ``views`` and ``tags``.

    A per-pool heuristic runs on ``views`` alone; a cross-pool one reads
    ``every`` view of the index (``views`` when not given), and only its
    pairs for ``views`` are kept."""
    links = {v.pool.pool_id: {} for v in views}
    for tag in tags:
        h = HEURISTICS[tag]
        per_pool = h.run(every or views) if h.cross_pool else \
            {v.pool.pool_id: h.run(v) for v in views}
        for pool_id, mine in links.items():
            mine[tag] = per_pool[pool_id].link_pairs
    return links

