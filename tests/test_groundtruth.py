from __future__ import annotations

import random

import pytest

from anonset.errors import InputError
from anonset.groundtruth import (
    FollowEdge,
    NameTransfer,
    SubdomainGrant,
    airdrop_links,
    debank_negative_pairs,
    ens_subdomain_links,
    ens_transfer_links,
    score_links,
)
from anonset.ledger import LinkPair
from anonset.metrics import render_ratio

from .conftest import addr, transfer

A, B, C, DROP = addr("ga"), addr("gb"), addr("gc"), addr("airdrop")


class TestAirdropLinks:
    def _receipts(self):
        return [transfer(DROP, A, 50, 10, coin="UNI"),
                transfer(DROP, B, 50, 10, coin="UNI")]

    def test_two_recipients_consolidating_link_pairwise(self):
        consolidations = [transfer(A, C, 50, 12, coin="UNI"),
                          transfer(B, C, 50, 14, coin="UNI")]
        got = airdrop_links(self._receipts(), consolidations, window_blocks=10)
        assert got == {LinkPair(A, C), LinkPair(B, C), LinkPair(A, B)}

    def test_forwarding_outside_window_ignored(self):
        consolidations = [transfer(A, C, 50, 12, coin="UNI"),
                          transfer(B, C, 50, 40, coin="UNI")]
        got = airdrop_links(self._receipts(), consolidations, window_blocks=10)
        assert got == frozenset()

    def test_single_recipient_is_no_aggregation(self):
        consolidations = [transfer(A, C, 50, 12, coin="UNI")]
        assert airdrop_links(self._receipts(), consolidations, 10) == frozenset()

    def test_other_token_does_not_count(self):
        consolidations = [transfer(A, C, 50, 12, coin="DAI"),
                          transfer(B, C, 50, 14, coin="UNI")]
        assert airdrop_links(self._receipts(), consolidations, 10) == frozenset()

    def test_window_must_be_positive(self):
        with pytest.raises(InputError):
            airdrop_links([], [], 0)


class TestEnsLinks:
    def test_single_transfer_before_expiry_links(self):
        got = ens_transfer_links([NameTransfer("alice.eth", A, B, block=5, expiry=100)])
        assert got == {LinkPair(A, B)}

    def test_two_transfers_of_same_name_by_one_owner_do_not_link(self):
        events = [NameTransfer("alice.eth", A, B, block=5, expiry=100),
                  NameTransfer("alice.eth", A, C, block=6, expiry=100)]
        assert ens_transfer_links(events) == frozenset()

    def test_transfer_after_expiry_ignored(self):
        got = ens_transfer_links([NameTransfer("alice.eth", A, B, block=120, expiry=100)])
        assert got == frozenset()

    def test_subdomain_assignments(self):
        grants = [SubdomainGrant(owner=A, assignee=B, subdomain="pay.alice.eth"),
                  SubdomainGrant(owner=A, assignee=C, subdomain="cold.alice.eth"),
                  SubdomainGrant(owner=A, assignee=A, subdomain="self.alice.eth")]
        assert ens_subdomain_links(grants) == {LinkPair(A, B), LinkPair(A, C)}


class TestDebank:
    def test_either_direction_yields_negative_pair(self):
        edges = [FollowEdge(follower=A, followed=B),
                 FollowEdge(follower=C, followed=A),
                 FollowEdge(follower=B, followed=B)]
        got = debank_negative_pairs(edges)
        assert got == {LinkPair(A, B), LinkPair(A, C)}

    def test_unrelated_accounts_ignored(self):
        """A follow pair that does not join the scored sides flags nothing."""
        edges = [FollowEdge(follower=B, followed=C)]
        negatives = debank_negative_pairs(edges)
        assert negatives == {LinkPair(B, C)}
        found = {LinkPair(A, B), LinkPair(B, C)}
        report = score_links(found, (), negatives, frozenset({A}), frozenset({B}))
        assert report.negative_signal_fps == frozenset()
        assert report.fp == 1


HUB = "0x" + "f" * 40


def synthetic_confusion(tp: int, fp: int, fn: int, tn: int):
    """Pair sets realizing exactly the requested confusion counts over the
    sides ``{HUB}`` and the numbered addresses."""
    numbered = [f"0x{i:040x}" for i in range(tp + fp + fn + tn)]
    pairs = [LinkPair(HUB, a) for a in numbered]
    positives = pairs[:tp + fn]
    found = pairs[:tp] + pairs[tp + fn:tp + fn + fp]
    return found, positives, (frozenset({HUB}), frozenset(numbered))


class TestScoreLinks:
    def test_airdrop_row_of_validation_table(self):
        found, positives, sides = synthetic_confusion(229, 384, 0, 539_367)
        report = score_links(found, positives, [], *sides)
        assert (report.tp, report.fp, report.fn, report.tn) == (229, 384, 0, 539_367)
        assert render_ratio(report.precision) == "0.37"
        assert render_ratio(report.recall) == "1.00"
        assert render_ratio(report.f1) == "0.54"

    def test_ens_row_of_validation_table(self):
        found, positives, sides = synthetic_confusion(50, 76, 3, 61_854)
        report = score_links(found, positives, [], *sides)
        assert render_ratio(report.precision) == "0.40"
        assert render_ratio(report.recall) == "0.94"
        assert render_ratio(report.f1) == "0.56"

    def test_perfect_match(self):
        found, positives, sides = synthetic_confusion(10, 0, 0, 20)
        report = score_links(found, positives, [], *sides)
        assert report.precision == report.recall == report.f1 == 1

    def test_counts_partition_universe(self):
        found, positives, sides = synthetic_confusion(3, 4, 5, 6)
        report = score_links(found, positives, [], *sides)
        assert report.tp + report.tn + report.fp + report.fn == report.universe_size == 18

    def test_positive_outside_the_sides_is_ignored(self):
        found, positives, sides = synthetic_confusion(3, 4, 5, 6)
        # one end on neither side; both ends on one side
        outside = [LinkPair(HUB, A), LinkPair(f"0x{0:040x}", f"0x{1:040x}")]
        report = score_links(found, positives + outside, [], *sides)
        assert (report.tp, report.fp, report.fn, report.tn) == (3, 4, 5, 6)

    def test_zero_found_gives_zero_f1(self):
        _, positives, sides = synthetic_confusion(3, 0, 5, 6)
        report = score_links([], positives, [], *sides)
        assert report.tp == 0
        assert report.f1 == 0

    def test_a_ratio_over_nothing_is_undefined(self):
        # no found pair: precision is undefined, recall and f1 measure zero
        _, positives, sides = synthetic_confusion(0, 0, 5, 6)
        report = score_links([], positives, [], *sides)
        assert report.precision is None and report.recall == report.f1 == 0
        # no positive pair: recall is undefined, precision and f1 measure zero
        found, _, sides = synthetic_confusion(0, 4, 0, 6)
        report = score_links(found, [], [], *sides)
        assert report.recall is None and report.precision == report.f1 == 0
        # nothing found and nothing to find: no ratio is defined
        report = score_links([], [], [], *sides)
        assert report.precision is report.recall is report.f1 is None

    @pytest.mark.parametrize("counts", [(1, 0, 0), (0, 1, 1), (3, 4, 5), (7, 0, 2),
                                        (2, 9, 0)])
    def test_f1_is_the_harmonic_mean_where_both_are_defined(self, counts):
        tp, fp, fn = counts
        found, positives, sides = synthetic_confusion(tp, fp, fn, 3)
        report = score_links(found, positives, [], *sides)
        p, r = report.precision, report.recall
        assert report.f1 == (2 * p * r / (p + r) if p + r else 0)

    def test_negative_signal_reported_not_vetoed(self):
        found, positives, sides = synthetic_confusion(2, 2, 0, 4)
        negatives = [LinkPair(found[-1].a1, found[-1].a2)]
        report = score_links(found, positives, negatives, *sides)
        assert report.negative_signal_fps == {found[-1]}
        assert report.fp == 2  # unchanged by the negative evidence

    def test_invariant_under_relabeling(self):
        found, positives, sides = synthetic_confusion(4, 3, 2, 8)

        def relabel(a):
            return "0xf" + a[3:]

        def relabel_pairs(pairs):
            return [LinkPair(relabel(p.a1), relabel(p.a2)) for p in pairs]

        report = score_links(found, positives, [], *sides)
        relabeled = score_links(relabel_pairs(found), relabel_pairs(positives), [],
                                *(frozenset(map(relabel, side)) for side in sides))
        assert (report.tp, report.tn, report.fp, report.fn) == \
               (relabeled.tp, relabeled.tn, relabeled.fp, relabeled.fn)


def built_universe_scores(found, positives, negatives, side_a, side_b):
    """The oracle: build every pair of the test universe and count."""
    universe = frozenset(LinkPair(a, b) for a in side_a for b in side_b if a != b)
    found = frozenset(found) & universe
    positives = frozenset(positives) & universe
    tp = len(found & positives)
    fp = len(found - positives)
    fn = len(positives - found)
    return (len(universe), tp, len(universe) - tp - fp - fn, fp, fn,
            found & frozenset(negatives))


class TestCountedUniverse:
    ADDRESSES = [f"0x{i:040x}" for i in range(24)]

    def _sides(self, rng, shape):
        a = frozenset(rng.sample(self.ADDRESSES, rng.randint(1, 12)))
        if shape == "equal":
            return a, a
        if shape == "empty":
            return (a, frozenset()) if rng.random() < 0.5 else (frozenset(), a)
        if shape == "subset":
            return frozenset(rng.sample(sorted(a), rng.randint(0, len(a)))), a
        return a, frozenset(rng.sample(self.ADDRESSES, rng.randint(1, 12)))

    def _pairs(self, rng, k):
        return {LinkPair(*rng.sample(self.ADDRESSES, 2)) for _ in range(k)}

    @pytest.mark.parametrize("shape", ["equal", "empty", "subset", "overlap"])
    def test_counts_match_the_built_universe(self, shape):
        rng = random.Random(f"counted-{shape}")
        for _ in range(100):
            side_a, side_b = self._sides(rng, shape)
            found, positives, negatives = (self._pairs(rng, rng.randint(0, 40))
                                           for _ in range(3))
            report = score_links(found, positives, negatives, side_a, side_b)
            assert report == built_universe_scores(found, positives, negatives,
                                                   side_a, side_b)

    def test_overlapping_sides_count_each_unordered_pair_once(self):
        a, b, c = self.ADDRESSES[:3]
        # (a, b), (a, c), (b, c): the pair (a, b) is met in both orders
        report = score_links([], [], [], frozenset({a, b}), frozenset({a, b, c}))
        assert report.universe_size == 3

    def test_a_hundred_thousand_per_side_builds_no_pair(self, monkeypatch):
        side = frozenset(f"0x{i:040x}" for i in range(100_000))

        def no_pair(cls, *args):
            raise AssertionError("score_links built a link pair")

        monkeypatch.setattr(LinkPair, "__new__", no_pair)
        report = score_links([], [], [], side, side)
        assert report.universe_size == report.tn == 100_000 * 99_999 // 2
