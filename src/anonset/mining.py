"""Anonymity-mining model: reward points and withdrawal-time recovery.

Pools award points proportional to their weight times the number of
blocks a note stayed deposited.  A point-conversion event therefore leaks
an exact linear equation over deposit and withdrawal block heights; with
the deposits public, the withdrawal times can often be solved for
outright.

Points are exact integers in block-weight units throughout.  Solvers are
pure and independent per claim, so claims can be processed concurrently.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import heuristics
from .errors import DomainError, InputError
from .indexing import build_index
from .ledger import DEPOSIT, Address, PoolEvent
from .metrics import relative_advantage_increase

# Per-pool point weights of the canonical four-pool deployment, keyed by
# the pool's denomination expressed in coins.
DEFAULT_AM_WEIGHTS: Mapping[str, int] = {"0.1": 10, "1": 20, "10": 50, "100": 400}

ONE_ONE_ONE = "one-one-one"
N_ONE_ONE = "n-one-one"
N_N_N = "n-n-n"
NON_DEPOSITOR = "non-depositor"

EXACT = "exact"
INCONCLUSIVE = "inconclusive"
NONE = "none"

DEFAULT_SEARCH_CAP = 10 ** 6


@dataclass(frozen=True, slots=True)
class APClaim:
    """A point-to-reward conversion: who received it, when, how many
    points were converted."""

    recipient: Address
    block: int
    ap: int

    def __post_init__(self):
        if self.ap < 0:
            raise InputError("converted points cannot be negative")
        if self.block < 0:
            raise InputError("claim block cannot be negative")


@dataclass(frozen=True)
class LinkSolution:
    """Outcome of solving one claim's point equation.

    ``solutions`` holds, per solution, the withdrawal blocks paired with
    the (sorted) deposit blocks.  ``multiplicity`` counts withdrawal
    events sharing a single-pair solution block.  ``exact`` solutions have
    residual 0 and reproduce the claimed points bit for bit.
    """

    status: str
    solutions: tuple[tuple[int, ...], ...] = ()
    residual: int = 0
    multiplicity: int = 0
    explored: int = 0


def anonymity_points(deposit_blocks: Mapping[str, Sequence[int]],
                     withdrawal_blocks: Mapping[str, Sequence[int]],
                     weights: Mapping[str, int]) -> int:
    """Points accrued over paired deposits and withdrawals.

    Per pool: ``weight * sum(withdrawal_i - deposit_i)`` over positionally
    paired block heights; pools are summed.  Every pair must withdraw no
    earlier than it deposited (a zero gap earns zero points).
    """
    if set(deposit_blocks) != set(withdrawal_blocks):
        raise InputError("deposit and withdrawal pools differ")
    total = 0
    for pool_key in deposit_blocks:
        deps = list(deposit_blocks[pool_key])
        wds = list(withdrawal_blocks[pool_key])
        if len(deps) != len(wds):
            raise InputError(f"pool {pool_key}: unpaired deposits and withdrawals")
        if pool_key not in weights:
            raise InputError(f"pool {pool_key}: no point weight configured")
        weight = weights[pool_key]
        if weight <= 0:
            raise InputError(f"pool {pool_key}: weight must be positive")
        for td, tw in zip(deps, wds):
            if tw < td:
                raise DomainError(
                    f"pool {pool_key}: withdrawal at {tw} precedes deposit at {td}")
            total += weight * (tw - td)
    return total


def classify_claimant(address: Address, deposits: Sequence[PoolEvent],
                      claims: Sequence[APClaim]) -> str:
    """Sort a reward claimant into the deposit/claim/pool shape classes."""
    own_claims = [c for c in claims if c.recipient == address]
    if not own_claims:
        raise InputError(f"{address} has no reward claims to classify")
    own_deposits = [e for e in deposits if e.kind == DEPOSIT and e.actor == address]
    if not own_deposits:
        return NON_DEPOSITOR
    pools = {e.pool_id for e in own_deposits}
    if len(own_claims) > 1 or len(pools) > 1:
        return N_N_N
    return ONE_ONE_ONE if len(own_deposits) == 1 else N_ONE_ONE


def solve_single_claim(deposit_block: int, claim: APClaim, weight: int,
                       withdrawal_blocks: Sequence[int]) -> LinkSolution:
    """Recover the withdrawal block of a single-deposit claimant.

    The points equation collapses to ``ap = weight * (t_w - t_d)``, so the
    candidate block is computed directly and looked up in the pool's
    withdrawal heights, ``withdrawal_blocks``, which must be sorted
    ascending.  Several withdrawals in that block are all reported via
    ``multiplicity``; the claim's own block is a strict upper bound on the
    withdrawal time.
    """
    if weight <= 0:
        raise InputError("weight must be positive")
    if claim.ap % weight != 0:
        return LinkSolution(status=NONE, residual=claim.ap % weight)
    gap = claim.ap // weight
    candidate = deposit_block + gap
    if gap <= 0 or candidate >= claim.block:
        return LinkSolution(status=NONE)
    hits = (bisect_right(withdrawal_blocks, candidate)
            - bisect_left(withdrawal_blocks, candidate))
    if not hits:
        return LinkSolution(status=NONE)
    return LinkSolution(status=EXACT, solutions=((candidate,),), multiplicity=hits)


def solve_multi_claim(deposit_blocks: Sequence[int], claim: APClaim, weight: int,
                      withdrawal_blocks: Sequence[int],
                      search_cap: int = DEFAULT_SEARCH_CAP) -> LinkSolution:
    """Recover withdrawal blocks for an n-deposit, one-claim address.

    Chooses distinct withdrawal events from ``withdrawal_blocks``, the
    pool's withdrawal heights sorted ascending (repeated block values
    allowed when events share a block), whose gaps against the sorted
    deposits sum to ``ap / weight``.  Because the gap sum only depends on the chosen
    blocks' sum, the search is a depth-first subset-sum over the sorted
    withdrawal events with prefix bounds for pruning; each chosen block
    must fall strictly between its paired deposit and the claim.  Hitting
    ``search_cap`` explored nodes stops the search and marks the result
    inconclusive (solutions found so far are still returned).
    """
    if len(deposit_blocks) < 2:
        raise InputError("multi-claim solving needs more than one deposit")
    if search_cap <= 0:
        raise InputError("search cap must be positive")
    if weight <= 0:
        raise InputError("weight must be positive")
    if claim.ap % weight != 0:
        return LinkSolution(status=NONE, residual=claim.ap % weight)

    deps = sorted(deposit_blocks)
    u = len(deps)
    target = claim.ap // weight + sum(deps)
    events = withdrawal_blocks[:bisect_left(withdrawal_blocks, claim.block)]
    n = len(events)

    explored = 0
    capped = False
    found: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def remaining_max(i: int, k: int) -> int:
        return sum(events[n - k:]) if n - i >= k else -1

    def dfs(i: int, k: int, acc: int) -> None:
        nonlocal explored, capped
        if capped:
            return
        explored += 1
        if explored > search_cap:
            capped = True
            return
        if k == u:
            if acc == target:
                found.append(tuple(chosen))
            return
        for j in range(i, n):
            # identical blocks at the same depth explore identical subtrees
            if j > i and events[j] == events[j - 1]:
                continue
            b = events[j]
            if b <= deps[k]:
                continue
            new_acc = acc + b
            min_rest = sum(deps[k + 1:]) + (u - k - 1)  # each later pick > its deposit
            if new_acc + min_rest > target:
                break  # events sorted ascending: larger picks only overshoot
            rest_max = remaining_max(j + 1, u - k - 1)
            if rest_max < 0 or new_acc + rest_max < target:
                continue
            chosen.append(b)
            dfs(j + 1, k + 1, new_acc)
            chosen.pop()
            if capped:
                return

    dfs(0, 0, 0)
    status = INCONCLUSIVE if capped else (EXACT if found else NONE)
    return LinkSolution(status=status, solutions=tuple(found), explored=explored)


@dataclass(frozen=True)
class ReuseWindow:
    oas_size: int
    reduced_size: int
    r_adv: Fraction


@dataclass(frozen=True)
class LaunchImpact:
    """Address-reuse linkability before and after the mining launch."""

    launch: int
    pre: ReuseWindow
    post: ReuseWindow


def am_effect_on_h1(view: heuristics.PoolView, am_launch: int) -> LaunchImpact:
    """Evaluate the reuse heuristic separately on the pool's history (up
    to the view's cut) before the launch block and from it onward.

    Each window is treated as a pool history of its own; the comparison
    shows whether mining rewards pulled in more address-reusing users.
    """
    heights = [e.block.height for e in view.events]
    if not heights or not min(heights) < am_launch <= max(heights):
        raise InputError("launch block must split the pool's event range")

    def window(events: Sequence[PoolEvent], t: int) -> ReuseWindow:
        sub = heuristics.pool_view(build_index((), (), events, view.index.labels),
                                   view.pool, t)
        result = heuristics.h1_reuse(sub)
        return ReuseWindow(
            oas_size=len(sub.depositors), reduced_size=result.size,
            r_adv=relative_advantage_increase(len(sub.depositors), result.size))

    return LaunchImpact(
        launch=am_launch,
        pre=window([e for e in view.events if e.block.height < am_launch], am_launch - 1),
        post=window([e for e in view.events if e.block.height >= am_launch], max(heights)))
