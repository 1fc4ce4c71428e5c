"""Adversary odds over set sizes, cluster-size counts, usage statistics.

Every ratio here is an exact :class:`fractions.Fraction`; rounding happens
only when a report is rendered, so repeated computation and comparison of
metrics never drifts.  Nothing here reads a heuristic result.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError, InputError
from .ledger import (
    WITHDRAWAL,
    Address,
    Amount,
    LabelBook,
    PoolConfig,
    PoolEvent,
    _check_pool,
    position,
)

# Average deposit volume of the labeled attacker addresses; kept
# configurable because its scale depends on the dataset's base unit.
DEFAULT_FUND_THEN_DEPOSIT_THRESHOLD = 1881


def adversary_advantage(set_size: int) -> Fraction:
    """Probability of naming the right depositor by uniform guessing."""
    if set_size < 1:
        raise DomainError("cannot link a withdrawal against an empty set")
    return Fraction(1, set_size)


def relative_advantage_increase(oas_size: int, sas_size: int) -> Fraction:
    """How much likelier the correct guess becomes after reduction.

    Equals ``oas/sas - 1``; in terms of the fractional reduction ``r`` it
    is ``1/(1-r) - 1``.
    """
    if sas_size < 1:
        raise DomainError("reduced anonymity set is empty")
    if oas_size < sas_size:
        raise InputError("reduced set cannot exceed the observed set")
    return Fraction(oas_size, sas_size) - 1


def advantage_increase_from_reduction(reduction: Fraction) -> Fraction:
    """Same metric expressed from a fractional set-size reduction."""
    if not 0 <= reduction < 1:
        raise DomainError(f"reduction must lie in [0, 1): {reduction}")
    return 1 / (1 - Fraction(reduction)) - 1


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


def relayer_usage(pool: PoolConfig, events: Sequence[PoolEvent]) -> RelayerUsage:
    """Counts of relayed withdrawals and of withdrawers ever using one, over
    ``events`` of ``pool`` alone (another pool's raises :class:`InputError`)."""
    _check_pool(events, pool)
    withdrawals = [e for e in events if e.kind == WITHDRAWAL]
    relayed = [e for e in withdrawals if e.relayer is not None]
    return RelayerUsage(
        pool_id=pool.pool_id, relayers=len({e.relayer for e in relayed}),
        withdrawals=len(withdrawals), relayed_withdrawals=len(relayed),
        withdrawers=len({e.actor for e in withdrawals}),
        relayed_withdrawers=len({e.actor for e in relayed}))


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
