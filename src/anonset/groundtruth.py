"""Side-channel ground truth and heuristic scoring.

Three public sources yield candidate same-owner evidence — airdrop
consolidation, name-ownership transfers, and subdomain assignments — and
one yields distinct-owner evidence (social follow edges: nobody follows
their own wallet).  Both are plain :class:`LinkPair` sets: the
``negatives`` argument of :func:`score_links` marks distinct-owner
pairs.  Heuristic link sets are scored against these as a confusion
matrix over the pairs joining two address sides, counted, not built.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError
from .ledger import (
    Address,
    FollowEdge,
    LinkPair,
    NameTransfer,
    SubdomainGrant,
    Transfer,
    Validated,
    crosses,
)


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


def debank_negative_pairs(edges: Sequence[FollowEdge]) -> frozenset[LinkPair]:
    """Distinct-owner evidence: two accounts following each other (either
    direction) are unlikely to be the same person.  The pairs are plain
    pairs; passing them as ``negatives`` marks them, and the scorer keeps
    those that join its two sides."""
    return frozenset(LinkPair(*edge) for edge in edges if edge.follower != edge.followed)


class _ValidationReportFields(NamedTuple):
    universe_size: int
    tp: int
    tn: int
    fp: int
    fn: int
    negative_signal_fps: frozenset[LinkPair]


class ValidationReport(Validated, _ValidationReportFields):
    """Confusion counts of heuristic pairs against ground truth over a
    test-pair universe, plus the derived exact ratios, each None where
    its denominator is 0: undefined, not a measured zero."""

    __slots__ = ()

    def __new__(cls, universe_size: int, tp: int, tn: int, fp: int, fn: int,
                negative_signal_fps: frozenset[LinkPair]):
        if tp + tn + fp + fn != universe_size:
            raise InputError("confusion counts must partition the test universe")
        return tuple.__new__(cls, (universe_size, tp, tn, fp, fn, negative_signal_fps))

    @property
    def precision(self) -> Fraction | None:
        return Fraction(self.tp, self.tp + self.fp) if self.tp + self.fp else None

    @property
    def recall(self) -> Fraction | None:
        return Fraction(self.tp, self.tp + self.fn) if self.tp + self.fn else None

    @property
    def f1(self) -> Fraction | None:
        """``2tp / (2tp + fp + fn)``, the harmonic mean of the two where both exist."""
        scored = 2 * self.tp + self.fp + self.fn
        return Fraction(2 * self.tp, scored) if scored else None


def score_links(found: Iterable[LinkPair], positives: Iterable[LinkPair],
                negatives: Iterable[LinkPair], side_a: frozenset[Address],
                side_b: frozenset[Address]) -> ValidationReport:
    """Score heuristic links against ground truth over the test universe:
    every pair of one address of ``side_a`` and a different one of
    ``side_b``.

    The universe is counted, never built: |A|*|B| ordered pairs, less
    |I|*(|I| + 1)/2 for I = A & B, the |I| that join an address to itself
    and the |I|*(|I| - 1)/2 pairs inside I that are met in both orders.
    Found and positive pairs outside it are ignored.  ``negatives`` holds
    the distinct-owner pairs: plain pairs, marked only by this argument.
    Heuristic pairs that collide with them are reported separately rather
    than folded into the counts: the negative channel vetoes nothing, it
    only flags.  Cost: O(|found| + |positives| + |A| + |B|).
    """
    found = {p for p in found if crosses(*p, side_a, side_b)}
    positives = {p for p in positives if crosses(*p, side_a, side_b)}
    both = len(side_a & side_b)
    universe_size = len(side_a) * len(side_b) - both * (both + 1) // 2
    tp = len(found & positives)
    fp = len(found) - tp
    fn = len(positives) - tp
    return ValidationReport(
        universe_size=universe_size, tp=tp, tn=universe_size - tp - fp - fn,
        fp=fp, fn=fn, negative_signal_fps=frozenset(found.intersection(negatives)))
