"""Linking heuristics and anonymity-set reduction.

Each heuristic inspects on-chain behavior, asserts same-owner address
pairs, and reports the pool's *simplified anonymity set*: the depositors
that still plausibly hold a balance once linked addresses are merged.

Every heuristic is a pure function of a :class:`PoolView`, the pool's
events, state and actor sets in one index of the history at a cut, built
once and shared (h5 takes the views of all pools, and reads each
address's per-pool events from their index); per-pool evaluations can
run concurrently.
:data:`HEURISTICS` maps each tag to its heuristic.

The simplified set is computed uniformly by :func:`ledger.reduced_set`:
merge balances along the link pairs, keep the clusters whose merged
balance is positive, and report each such cluster once, by its
lexicographically smallest *depositor* member (a positive cluster always
contains one, since a positive balance requires more deposits than
withdrawals somewhere in the cluster).  The reduced set is therefore
always a subset of the observed deposit-address set, and merging more
links can only shrink it.  The clusters themselves come from
:func:`ledger.connected_components`; this module holds none.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import InputError
from .indexing import LedgerIndex
from .ledger import (
    DEPOSIT,
    WITHDRAWAL,
    Address,
    LinkPair,
    PoolConfig,
    PoolEvent,
    deposit_actors,
    pool_state,
    position,
    reduced_set,
    withdrawal_actors,
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
    """One pool of an index, computed once and shared by every heuristic,
    by :func:`combine` and by the report.

    ``events`` are the pool's indexed events, in index order; ``state``,
    ``depositors`` and ``withdrawers`` are derived from them.  ``index``
    answers the transfer and label queries of h2-h4; as a field it hides
    ``tuple.index``, which no caller uses.
    """

    pool: PoolConfig
    events: Sequence[PoolEvent]
    state: dict[Address, int]
    depositors: frozenset[Address]
    withdrawers: frozenset[Address]
    index: LedgerIndex


def pool_view(index: LedgerIndex, pool: PoolConfig) -> PoolView:
    """Replay ``pool``'s indexed history once."""
    events = index.events_for(pool.pool_id)
    return PoolView(pool=pool, events=events,
                    state=pool_state(pool, events),
                    depositors=deposit_actors(events),
                    withdrawers=withdrawal_actors(events),
                    index=index)


class HeuristicResult(NamedTuple):
    """Outcome of one heuristic on one pool."""

    heuristic: str
    pool_id: str
    link_pairs: frozenset[LinkPair]
    anonymity_set: frozenset[Address]

    @property
    def size(self) -> int:
        return len(self.anonymity_set)


def _result(tag: str, view: PoolView, links: Iterable[LinkPair]) -> HeuristicResult:
    links = frozenset(links)
    return HeuristicResult(heuristic=tag, pool_id=view.pool.pool_id, link_pairs=links,
                           anonymity_set=reduced_set(view.state, links, view.depositors))


def h1_reuse(view: PoolView) -> HeuristicResult:
    """Deposit-address reuse.

    An address appearing on both sides of a pool spends its own notes, so
    only depositors with a positive balance still hide anything.  No
    address pairs are linked; the reduction comes from the balance rule
    alone.
    """
    return _result(H1, view, ())


def h2_improper_sender(view: PoolView) -> HeuristicResult:
    """Improper withdrawal sender.

    A withdrawal signed by one of the pool's own depositors, naming a
    different recipient, betrays that sender and recipient share an owner.
    Registered relayers are exempt: signing withdrawals for strangers is
    their whole job.
    """
    labels = view.index.labels
    pairs = {LinkPair(e.tx_sender, e.actor)
             for e in view.events
             if e.kind == WITHDRAWAL and e.tx_sender != e.actor
             and e.tx_sender in view.depositors
             and e.relayer is None and not labels.is_relayer(e.tx_sender)}
    return _result(H2, view, pairs)


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
             if (a in depositors and b in withdrawers)
             or (b in depositors and a in withdrawers)}
    return _result(H3, view, pairs)


def h4_intermediary(view: PoolView) -> HeuristicResult:
    """Intermediary deposit address.

    A depositor whose entire incoming native-coin value arrives from a
    single user account one hop out is treated as a throwaway of that
    funder.  Contract and exchange funders are excluded; receiving from an
    exchange says nothing about ownership.  Self transfers are ignored on
    both sides of the rule.
    """
    index = view.index
    pairs = set()
    for d1 in view.depositors:
        funders = {tr.sender for tr in index.incoming_native(d1)
                   if tr.amount > 0 and tr.sender != d1}
        if len(funders) != 1:
            continue
        (d2,) = funders
        if index.labels.is_user_account(d2):
            pairs.add(LinkPair(d1, d2))
    return _result(H4, view, pairs)


def h5_cross_pool(views: Iterable[PoolView]) -> dict[str, HeuristicResult]:
    """Cross-pool deposit pattern, evaluated jointly across pools.

    A depositor and a withdrawer are linked when they used exactly the
    same set of more than one pool, moved identical per-pool totals, and
    every withdrawal can be matched to an earlier deposit in its pool
    (equivalently, after sorting both sides per pool, each deposit
    precedes its same-rank withdrawal).  Pools are matched within each
    coin, so a pool that is the only one of its coin gets no links.  Each
    pool's anonymity set is then simplified with the pairs that involve it.
    The per-address event lists come from the index
    (:meth:`LedgerIndex.actor_events`); no pool's event list is walked.
    """
    view_list = sorted(views, key=lambda v: v.pool.pool_id)
    if len(view_list) < 2:
        raise InputError("cross-pool matching needs at least two pools")
    if any(v.index is not view_list[0].index for v in view_list):
        raise InputError("cross-pool matching needs every view from one index")

    def signature(per_pool: dict[str, Sequence[PoolEvent]]) -> tuple:
        return tuple(sorted((pid, len(events)) for pid, events in per_pool.items()))

    coin_of = {v.pool.pool_id: v.pool.coin for v in view_list}
    pairs_by_pool: dict[str, set[LinkPair]] = {pid: set() for pid in coin_of}
    # each address's events per pool of one coin: the index's own
    # per-actor lists, which come in index order, so each is already in
    # position order
    dep_events: dict[tuple[str, Address], dict[str, Sequence[PoolEvent]]] = {}
    wd_events: dict[tuple[str, Address], dict[str, Sequence[PoolEvent]]] = {}
    for (pid, kind, actor), events in view_list[0].index.actor_events().items():
        coin = coin_of.get(pid)
        if coin is not None:
            table = dep_events if kind == DEPOSIT else wd_events
            table.setdefault((coin, actor), {})[pid] = events

    # a signature names its pools, so equal signatures share one coin
    by_sig_d: dict[tuple, list[tuple[str, Address]]] = {}
    for d, per_pool in dep_events.items():
        if len(per_pool) > 1:
            by_sig_d.setdefault(signature(per_pool), []).append(d)
    by_sig_w: dict[tuple, list[tuple[str, Address]]] = {}
    for w, per_pool in wd_events.items():
        if len(per_pool) > 1:
            by_sig_w.setdefault(signature(per_pool), []).append(w)

    for sig, ds in by_sig_d.items():
        for w in by_sig_w.get(sig, []):
            for d in ds:
                if d == w:
                    continue
                if all(
                    all(position(dep) < position(wd)
                        for dep, wd in zip(dep_events[d][pid], wd_events[w][pid]))
                    for pid, _count in sig
                ):
                    pair = LinkPair(d[1], w[1])
                    for pid, _count in sig:
                        pairs_by_pool[pid].add(pair)

    return {v.pool.pool_id: _result(H5, v, pairs_by_pool[v.pool.pool_id])
            for v in view_list}


def combine(view: PoolView, results: Sequence[HeuristicResult]) -> HeuristicResult:
    """Union the link pairs of several heuristic results on one pool.

    The combined anonymity set is never larger than the smallest input
    set: more links only coarsen the cluster partition, and a merged
    cluster is positive only if one of its parts was.
    """
    for r in results:
        if r.pool_id != view.pool.pool_id:
            raise InputError(f"result for pool {r.pool_id} combined into {view.pool.pool_id}")
    tag = "+".join(r.heuristic for r in results) if results else "combined"
    return _result(tag, view, frozenset().union(*(r.link_pairs for r in results)))


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
                   ) -> dict[tuple[str, str], HeuristicResult]:
    """Every tagged heuristic on every view, keyed ``(pool_id, tag)``."""
    results = {}
    for tag in tags:
        h = HEURISTICS[tag]
        per_pool = h.run(views) if h.cross_pool else {v.pool.pool_id: h.run(v) for v in views}
        results.update(((pool_id, tag), r) for pool_id, r in per_pool.items())
    return results

