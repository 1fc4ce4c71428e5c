"""Anonymity-mining model: reward points and withdrawal-time recovery.

Pools award points proportional to their weight times the number of
blocks a note stayed deposited.  A point-conversion event therefore leaks
an exact linear equation over deposit and withdrawal block heights; with
the deposits public, the withdrawal times can often be solved for
outright.

Points are exact integers in block-weight units throughout.  Solvers are
pure and independent per claim, so claims can be processed concurrently.
The multi-deposit search keeps its own stack, so its depth is bounded by
memory, not by the interpreter's recursion limit.

Whether the mining launch drew in address reusers is not modelled here:
answering it needs on-chain history from before and after a launch.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import DomainError, InputError
from .ledger import DEPOSIT, Address, PoolEvent

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
            raise InputError("converted points cannot be negative", field="ap")
        if self.block < 0:
            raise InputError("claim block cannot be negative", field="block")


@dataclass(frozen=True)
class LinkSolution:
    """Outcome of solving one claim's point equation.

    ``solutions`` holds, per solution, the withdrawal blocks paired with
    the (sorted) deposit blocks.  ``multiplicity`` counts withdrawal
    events sharing a single-pair solution block.  Every solution of an
    ``exact`` result reproduces the claimed points bit for bit; ``none``
    means no choice of withdrawals does.
    """

    status: str
    solutions: tuple[tuple[int, ...], ...] = ()
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
        return LinkSolution(status=NONE)
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
    withdrawal events with precomputed bounds for pruning; each chosen block
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
        return LinkSolution(status=NONE)

    deps = sorted(deposit_blocks)
    u = len(deps)
    target = claim.ap // weight + sum(deps)
    events = withdrawal_blocks[:bisect_left(withdrawal_blocks, claim.block)]
    n = len(events)

    # per depth k: the least the later picks add (each above its own
    # deposit); per count r: the most r later picks add (the r largest)
    min_rest = [0] * u
    for k in range(u - 2, -1, -1):
        min_rest[k] = min_rest[k + 1] + deps[k + 1] + 1
    top = [0]
    for r in range(1, min(u, n + 1)):
        top.append(top[-1] + events[n - r])

    def picks(i: int, k: int, acc: int):
        """Candidates for the k-th pick, from event i on, in search order."""
        r = u - k - 1
        for j in range(i, n):
            b = events[j]
            # identical blocks at the same depth explore identical subtrees
            if j > i and b == events[j - 1] or b <= deps[k]:
                continue
            new_acc = acc + b
            if new_acc + min_rest[k] > target:
                return  # events sorted ascending: larger picks only overshoot
            if n - j - 1 < r:
                return  # too few events left for the later picks
            if new_acc + top[r] < target:
                continue
            yield j + 1, b, new_acc

    # depth-first on an explicit stack, one pick generator per open node
    explored = 1
    capped = False
    found: list[tuple[int, ...]] = []
    chosen: list[int] = []
    stack = [picks(0, 0, 0)]
    while stack and not capped:
        for i, b, acc in stack[-1]:
            explored += 1
            if explored > search_cap:
                capped = True
                break
            chosen.append(b)
            if len(chosen) < u:
                stack.append(picks(i, len(chosen), acc))
                break
            if acc == target:
                found.append(tuple(chosen))
            chosen.pop()
        else:
            stack.pop()
            if chosen:
                chosen.pop()

    status = INCONCLUSIVE if capped else (EXACT if found else NONE)
    return LinkSolution(status=status, solutions=tuple(found), explored=explored)

