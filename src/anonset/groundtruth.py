"""Side-channel ground truth and heuristic scoring.

Three public sources yield candidate same-owner evidence — airdrop
consolidation, name-ownership transfers, and subdomain assignments — and
one yields distinct-owner evidence (social follow edges: nobody follows
their own wallet).  Both are plain :class:`LinkPair` sets: the
``gt_negative`` argument of :func:`score_links` marks distinct-owner
pairs.  Heuristic link sets are scored against these as a confusion
matrix over an explicit test-pair universe.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError
from .ledger import Address, LinkPair, Transfer, Validated


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


def airdrop_links(airdrop_transfers: Sequence[Transfer],
                  consolidation_transfers: Sequence[Transfer],
                  window_blocks: int) -> frozenset[LinkPair]:
    """Link recipients that funneled one airdrop to one address.

    A recipient counts as consolidating when it forwards the airdropped
    token within ``window_blocks`` after receiving it.  Only aggregation
    is evidence: at least two recipients must funnel to the same central
    address, and then all of them plus the center are pairwise linked.
    """
    if window_blocks <= 0:
        raise InputError("consolidation window must be positive")
    received: dict[tuple[Address, str], int] = {}
    for tr in airdrop_transfers:
        key = (tr.recipient, tr.coin)
        if key not in received or tr.height < received[key]:
            received[key] = tr.height
    funnels: dict[tuple[Address, str], set[Address]] = {}
    for tr in consolidation_transfers:
        key = (tr.sender, tr.coin)
        if key not in received or tr.sender == tr.recipient:
            continue
        got = received[key]
        if got < tr.height <= got + window_blocks:
            funnels.setdefault((tr.recipient, tr.coin), set()).add(tr.sender)
    pairs: set[LinkPair] = set()
    for (central, _coin), senders in funnels.items():
        if len(senders) < 2:
            continue
        group = sorted(senders | {central})
        pairs.update(LinkPair(a, b) for a, b in combinations(group, 2))
    return frozenset(pairs)


def ens_transfer_links(transfers: Sequence[NameTransfer]) -> frozenset[LinkPair]:
    """Link the two ends of a name handover.

    Handing a live name to another address suggests the same owner moved
    wallets — but only when that sender transferred the name exactly once;
    serial transfers look like sales.  Expired names carry no signal.
    """
    per_owner: dict[tuple[Address, str], list[NameTransfer]] = {}
    for ev in transfers:
        per_owner.setdefault((ev.sender, ev.name), []).append(ev)
    pairs = set()
    for (_sender, _name), events in per_owner.items():
        if len(events) != 1:
            continue
        ev = events[0]
        if ev.sender == ev.recipient or ev.block >= ev.expiry:
            continue
        pairs.add(LinkPair(ev.sender, ev.recipient))
    return frozenset(pairs)


def ens_subdomain_links(grants: Sequence[SubdomainGrant]) -> frozenset[LinkPair]:
    """Link a name owner to each address it granted a subdomain."""
    return frozenset(LinkPair(g.owner, g.assignee)
                     for g in grants if g.owner != g.assignee)


def debank_negative_pairs(edges: Sequence[FollowEdge],
                          depositors: Iterable[Address],
                          withdrawers: Iterable[Address]) -> frozenset[LinkPair]:
    """Distinct-owner evidence: a depositor and withdrawer following each
    other (either direction) are unlikely to be the same person.  The
    pairs are plain pairs; passing them as ``gt_negative`` marks them."""
    deps = frozenset(depositors)
    wds = frozenset(withdrawers)
    pairs = set()
    for edge in edges:
        a, b = edge.follower, edge.followed
        if a == b:
            continue
        if (a in deps and b in wds) or (a in wds and b in deps):
            pairs.add(LinkPair(a, b))
    return frozenset(pairs)


class _ValidationReportFields(NamedTuple):
    universe_size: int
    tp: int
    tn: int
    fp: int
    fn: int
    negative_signal_fps: frozenset[LinkPair]


class ValidationReport(Validated, _ValidationReportFields):
    """Confusion counts of heuristic pairs against ground truth over an
    explicit test-pair universe, plus the derived exact ratios."""

    __slots__ = ()

    def __new__(cls, universe_size: int, tp: int, tn: int, fp: int, fn: int,
                negative_signal_fps: frozenset[LinkPair]):
        if tp + tn + fp + fn != universe_size:
            raise InputError("confusion counts must partition the test universe")
        return tuple.__new__(cls, (universe_size, tp, tn, fp, fn, negative_signal_fps))

    @property
    def precision(self) -> Fraction:
        return Fraction(self.tp, self.tp + self.fp) if self.tp + self.fp else Fraction(0)

    @property
    def recall(self) -> Fraction:
        return Fraction(self.tp, self.tp + self.fn) if self.tp + self.fn else Fraction(0)

    @property
    def f1(self) -> Fraction:
        p, r = self.precision, self.recall
        if p + r == 0:
            return Fraction(0)
        return 2 * p * r / (p + r)


def score_links(heuristic_pairs: Iterable[LinkPair],
                gt_positive: Iterable[LinkPair],
                gt_negative: Iterable[LinkPair],
                test_universe: Iterable[LinkPair]) -> ValidationReport:
    """Score heuristic links against ground truth over ``test_universe``.

    Pairs outside the universe are ignored on the heuristic side; the
    ground-truth positives must all lie inside it.  ``gt_negative`` holds
    the distinct-owner pairs: plain pairs, marked only by this argument.
    Heuristic pairs that collide with them are reported separately rather
    than folded into the counts: the negative channel vetoes nothing, it
    only flags.
    """
    universe = frozenset(test_universe)
    positives = frozenset(gt_positive)
    negatives = frozenset(gt_negative)
    if not positives <= universe:
        missing = sorted(p.addresses for p in positives - universe)[:3]
        raise InputError(f"test universe does not cover ground truth, e.g. {missing}")
    found = frozenset(heuristic_pairs) & universe
    tp = len(found & positives)
    fp = len(found - positives)
    fn = len(positives - found)
    tn = len(universe) - tp - fp - fn
    return ValidationReport(
        universe_size=len(universe), tp=tp, tn=tn, fp=fp, fn=fn,
        negative_signal_fps=frozenset(found & negatives))
