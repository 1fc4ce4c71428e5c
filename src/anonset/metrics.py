"""Adversary odds over set sizes, cluster-size counts, usage statistics.

Every ratio here is an exact :class:`fractions.Fraction`; rounding happens
only when a report is rendered, so repeated computation and comparison of
metrics never drifts.  Nothing here reads a heuristic result.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, InputError
from .indexing import LabelBook
from .ledger import (
    WITHDRAWAL,
    Address,
    Amount,
    PoolConfig,
    PoolEvent,
    events_for_pool,
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


@dataclass(frozen=True)
class RelayerUsage:
    pool_id: str
    relayers: int
    withdrawals: int
    relayed_withdrawals: int
    withdrawers: int
    relayed_withdrawers: int

    @property
    def relayed_withdrawal_share(self) -> Fraction:
        return Fraction(self.relayed_withdrawals, self.withdrawals) if self.withdrawals else Fraction(0)

    @property
    def relayed_withdrawer_share(self) -> Fraction:
        return Fraction(self.relayed_withdrawers, self.withdrawers) if self.withdrawers else Fraction(0)


def relayer_usage(pool: PoolConfig, events: Sequence[PoolEvent]) -> RelayerUsage:
    """Counts of relayed withdrawals and of withdrawers ever using one."""
    relayers: set[Address] = set()
    withdrawers: set[Address] = set()
    relayed_by: set[Address] = set()
    withdrawals = relayed = 0
    for e in events_for_pool(events, pool.pool_id):
        if e.kind != WITHDRAWAL:
            continue
        withdrawals += 1
        withdrawers.add(e.actor)
        if e.relayer is not None:
            relayed += 1
            relayers.add(e.relayer)
            relayed_by.add(e.actor)
    return RelayerUsage(
        pool_id=pool.pool_id,
        relayers=len(relayers),
        withdrawals=withdrawals,
        relayed_withdrawals=relayed,
        withdrawers=len(withdrawers),
        relayed_withdrawers=len(relayed_by))


@dataclass(frozen=True)
class FundThenDepositFlag:
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
    starting funds and came back to bury a much larger profit.
    """
    pool_by_id = {p.pool_id: p for p in pools}
    first_wd: dict[Address, PoolEvent] = {}
    first_dep: dict[Address, PoolEvent] = {}
    volume: dict[Address, Counter] = {}  # per address, per coin
    for e in sorted(events, key=lambda e: e.block):
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
        if dep is None or wd.block >= dep.block:
            continue
        total = max(volume[addr].values())
        if total < min_deposit:
            continue
        flags.append(FundThenDepositFlag(
            address=addr, first_withdrawal=wd, first_deposit=dep,
            total_deposited=total, labels=labels.labels_for(addr)))
    return tuple(sorted(flags, key=lambda f: f.address))


def render_ratio(value: Fraction, places: int = 2) -> str:
    """Fixed-point decimal rendering with exact half-up rounding."""
    sign = "-" if value < 0 else ""
    scaled = abs(Fraction(value)) * 10 ** places
    units = scaled.numerator // scaled.denominator
    if 2 * (scaled.numerator % scaled.denominator) >= scaled.denominator:
        units += 1
    text = str(units).rjust(places + 1, "0")
    return f"{sign}{text[:-places]}.{text[-places:]}"


def render_percent(value: Fraction, places: int = 2) -> str:
    return render_ratio(Fraction(value) * 100, places) + "%"
