"""The anonymity engine over named link sets, adversary odds, cluster-size
counts, usage statistics.

Every ratio here is an exact :class:`fractions.Fraction`; rounding happens
only when a report is rendered, so repeated computation and comparison of
metrics never drifts.  The engine reads plain link sets by name, never a
heuristic result.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import DomainError, InputError
from .ledger import (
    WITHDRAWAL,
    Address,
    Amount,
    LabelBook,
    LinkPair,
    PoolConfig,
    PoolEvent,
    position,
    reduced_set,
)

# Average deposit volume of the labeled attacker addresses; kept
# configurable because its scale depends on the dataset's base unit.
DEFAULT_FUND_THEN_DEPOSIT_THRESHOLD = 1881


def adversary_advantage(set_size: int) -> Fraction:
    """Probability of naming the right depositor by uniform guessing."""
    if set_size < 1:
        raise DomainError("cannot link a withdrawal against an empty set")
    return Fraction(1, set_size)


def advantage_increase_from_reduction(reduction: Fraction) -> Fraction:
    """How much likelier the correct guess becomes after a set-size
    reduction ``r``: ``1/(1-r) - 1``, exactly ``o/s - 1`` for ``o`` -> ``s``."""
    if not 0 <= reduction < 1:
        raise DomainError(f"reduction must lie in [0, 1): {reduction}")
    return 1 / (1 - Fraction(reduction)) - 1


def anonymity_sets(views: Iterable, links: Mapping[str, Mapping[str, Iterable[LinkPair]]],
                   ) -> tuple[dict[str, tuple[int, dict[str, tuple[int, Fraction | None]]]],
                              dict[str, Fraction]]:
    """``({pool_id: (observed, {name: (size, reduction)})}, {name: mean})``:
    each view's pool reduced by :func:`ledger.reduced_set` once per name of
    ``links[pool_id]``, in the order of ``views`` and of the names.

    A reduction is the exact share of the observed set that is removed.
    An idle pool, or a set that its link set empties, has none, and is
    left out of that name's unweighted mean across pools.  No name is
    treated apart from another.  A view needs ``pool.pool_id``, ``depositors``
    and ``state``, read once and dropped before the next view's is built.
    """
    pools, reductions = {}, {}
    for view in views:
        observed, sets, state = len(view.depositors), {}, view.state
        for name, pairs in links[view.pool.pool_id].items():
            size = len(reduced_set(state, pairs, view.depositors))
            reduction = Fraction(observed - size, observed) if size else None
            sets[name] = size, reduction
            reductions.setdefault(name, []).append(reduction)
        pools[view.pool.pool_id] = observed, sets
        del state
    defined = {name: [r for r in values if r is not None] for name, values in reductions.items()}
    return pools, {name: sum(values) / len(values) for name, values in defined.items() if values}


def cluster_size_histogram(clusters: Iterable[Sequence[Address]]) -> dict[int, int]:
    """``{size: count}`` over member tuples, in ascending size order."""
    return dict(sorted(Counter(map(len, clusters)).items()))


class RelayerUsage(NamedTuple):
    """One pool's relayer counts; a share over no withdrawal is None, not 0."""

    pool_id: str
    relayers: int
    withdrawals: int
    relayed_withdrawals: int
    withdrawers: int
    relayed_withdrawers: int

    @property
    def relayed_withdrawal_share(self) -> Fraction | None:
        return Fraction(self.relayed_withdrawals, self.withdrawals) if self.withdrawals else None

    @property
    def relayed_withdrawer_share(self) -> Fraction | None:
        return Fraction(self.relayed_withdrawers, self.withdrawers) if self.withdrawers else None


def count_relayers(events: Iterable[PoolEvent]) -> dict[str, tuple[list, list, set]]:
    """What :func:`relayer_usage` reads of the pool events, folded in one
    pass over ``events``: by pool id, in the order first seen, the actor of
    each withdrawal, the actor of each relayed one, and the relayers."""
    tallies: dict[str, tuple[list, list, set]] = {}
    for e in events:
        tally = tallies.get(e.pool_id)
        if tally is None:
            tally = tallies[e.pool_id] = ([], [], set())
        if e.kind == WITHDRAWAL:
            tally[0].append(e.actor)
            if e.relayer is not None:
                tally[1].append(e.actor)
                tally[2].add(e.relayer)
    return tallies


def relayer_usage(pools: Iterable[PoolConfig], tallies: Mapping) -> tuple[RelayerUsage, ...]:
    """Each of ``pools``' counts of relayed withdrawals and of withdrawers
    ever using one, in the order of ``pools``, from the ``tallies``
    :func:`count_relayers` made of the pool events; an event of any other
    pool raises :class:`InputError`.  One pool's sets are built at a time."""
    pool_ids = dict.fromkeys(pool.pool_id for pool in pools)
    for pool_id in tallies:
        if pool_id not in pool_ids:
            raise InputError(f"event for pool {pool_id!r} passed to pool "
                             f"{', '.join(map(repr, pool_ids))}")
    usage = []
    for pool_id in pool_ids:
        withdrawers, relayed, relayers = tallies.get(pool_id, ((), (), ()))
        usage.append(RelayerUsage(
            pool_id=pool_id, relayers=len(relayers),
            withdrawals=len(withdrawers), relayed_withdrawals=len(relayed),
            withdrawers=len(set(withdrawers)), relayed_withdrawers=len(set(relayed))))
    return tuple(usage)


class FundThenDepositFlag(NamedTuple):
    """An address that withdrew before it ever deposited, then paid in a
    volume above the configured threshold in one coin, ``total_deposited``."""

    address: Address
    first_withdrawal: PoolEvent
    first_deposit: PoolEvent
    total_deposited: Amount
    labels: frozenset[str]


def withdraw_first(events: Iterable[PoolEvent]) -> tuple[dict, dict[Address, list]]:
    """What :func:`fund_then_deposit_flags` reads of the pool events, in
    record order, folded in one pass over ``events``: each actor's first
    withdrawal, None where a deposit came first, and the deposits of the
    actors whose first event was a withdrawal.  No other event is kept."""
    first: dict[Address, PoolEvent | None] = {}
    deposits: dict[Address, list[PoolEvent]] = {}
    for e in events:
        if e.kind == WITHDRAWAL:
            first.setdefault(e.actor, e)
        elif first.setdefault(e.actor, None) is not None:
            deposits.setdefault(e.actor, []).append(e)
    return first, deposits


def fund_then_deposit_flags(pools: Iterable[PoolConfig], folded: tuple[Mapping, Mapping],
                            labels: LabelBook,
                            min_deposit: Amount = DEFAULT_FUND_THEN_DEPOSIT_THRESHOLD,
                            ) -> tuple[FundThenDepositFlag, ...]:
    """Withdraw-first addresses whose later deposits in one coin reach
    ``min_deposit`` (base units of two coins do not add up), from what
    :func:`withdraw_first` ``folded`` of the pool events; a deposit of a
    pool not in ``pools`` raises :class:`InputError`.

    The pattern matches actors who used the pools as a source of clean
    starting funds and came back to bury a much larger profit.
    """
    pool_by_id = {p.pool_id: p for p in pools}
    first, deposits = folded
    flags = []
    for addr, own in deposits.items():
        if position(first[addr]) >= position(own[0]):
            continue  # a deposit at the first withdrawal's own position
        volume: Counter = Counter()  # per coin
        for e in own:
            pool = pool_by_id.get(e.pool_id)
            if pool is None:
                raise InputError(f"event for unknown pool {e.pool_id!r}")
            volume[pool.coin] += pool.denomination
        total = max(volume.values())
        if total >= min_deposit:
            flags.append(FundThenDepositFlag(
                address=addr, first_withdrawal=first[addr], first_deposit=own[0],
                total_deposited=total, labels=labels.labels_for(addr)))
    return tuple(sorted(flags, key=lambda f: f.address))


def render_ratio(value: Fraction) -> str:
    """Two-place fixed-point decimal rendering with exact half-up rounding."""
    sign = "-" if value < 0 else ""
    scaled = abs(Fraction(value)) * 100
    units, rest = divmod(scaled.numerator, scaled.denominator)
    if 2 * rest >= scaled.denominator:
        units += 1
    return f"{sign}{units // 100}.{units % 100:02d}"


def render_percent(value: Fraction) -> str:
    return render_ratio(Fraction(value) * 100) + "%"
