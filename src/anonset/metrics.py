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
    treated apart from another.  A view needs ``pool.pool_id``, ``state``
    and ``depositors``.
    """
    pools, reductions = {}, {}
    for view in views:
        observed, sets = len(view.depositors), {}
        for name, pairs in links[view.pool.pool_id].items():
            size = len(reduced_set(view.state, pairs, view.depositors))
            reduction = Fraction(observed - size, observed) if size else None
            sets[name] = size, reduction
            reductions.setdefault(name, []).append(reduction)
        pools[view.pool.pool_id] = observed, sets
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


def relayer_usage(pools: Iterable[PoolConfig], events: Iterable[PoolEvent],
                  ) -> tuple[RelayerUsage, ...]:
    """Each of ``pools``' counts of relayed withdrawals and of withdrawers
    ever using one, in the order of ``pools``, from one pass over ``events``
    that keeps only the withdrawals; an event of any other pool raises
    :class:`InputError`.  One pool's sets are built at a time."""
    withdrawals: dict[str, list[PoolEvent]] = {pool.pool_id: [] for pool in pools}
    try:
        for e in events:
            if e.kind == WITHDRAWAL:
                withdrawals[e.pool_id].append(e)
            elif e.pool_id not in withdrawals:
                raise KeyError(e.pool_id)
    except KeyError as exc:
        raise InputError(f"event for pool {exc.args[0]!r} passed to pool "
                         f"{', '.join(map(repr, withdrawals))}") from None
    usage = []
    for pool_id, pool_withdrawals in withdrawals.items():
        relayed = [e for e in pool_withdrawals if e.relayer is not None]
        usage.append(RelayerUsage(
            pool_id=pool_id, relayers=len({e.relayer for e in relayed}),
            withdrawals=len(pool_withdrawals), relayed_withdrawals=len(relayed),
            withdrawers=len({e.actor for e in pool_withdrawals}),
            relayed_withdrawers=len({e.actor for e in relayed})))
    return tuple(usage)


class FundThenDepositFlag(NamedTuple):
    """An address that withdrew before it ever deposited, then paid in a
    volume above the configured threshold in one coin, ``total_deposited``."""

    address: Address
    first_withdrawal: PoolEvent
    first_deposit: PoolEvent
    total_deposited: Amount
    labels: frozenset[str]


def fund_then_deposit_flags(pools: Iterable[PoolConfig],
                            events: Sequence[PoolEvent],
                            labels: LabelBook,
                            min_deposit: Amount = DEFAULT_FUND_THEN_DEPOSIT_THRESHOLD,
                            ) -> tuple[FundThenDepositFlag, ...]:
    """Withdraw-first addresses whose later deposits in one coin reach
    ``min_deposit`` (base units of two coins do not add up).

    The pattern matches actors who used the pools as a source of clean
    starting funds and came back to bury a much larger profit.  ``events``
    must be in record order, as ``Dataset.events`` holds them.
    """
    pool_by_id = {p.pool_id: p for p in pools}
    first_wd: dict[Address, PoolEvent] = {}
    first_dep: dict[Address, PoolEvent] = {}
    volume: dict[Address, Counter] = {}  # per address, per coin
    for e in events:
        pool = pool_by_id.get(e.pool_id)
        if pool is None:
            raise InputError(f"event for unknown pool {e.pool_id!r}")
        if e.kind == WITHDRAWAL:
            first_wd.setdefault(e.actor, e)
        else:
            first_dep.setdefault(e.actor, e)
            volume.setdefault(e.actor, Counter())[pool.coin] += pool.denomination
    flags = []
    for addr, wd in first_wd.items():
        dep = first_dep.get(addr)
        if dep is None or position(wd) >= position(dep):
            continue
        total = max(volume[addr].values())
        if total < min_deposit:
            continue
        flags.append(FundThenDepositFlag(
            address=addr, first_withdrawal=wd, first_deposit=dep,
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
