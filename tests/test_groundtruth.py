from __future__ import annotations

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
from anonset.ledger import NEGATIVE, LinkPair
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
        deps, wds = [A], [B, C]
        edges = [FollowEdge(follower=A, followed=B),
                 FollowEdge(follower=C, followed=A)]
        got = debank_negative_pairs(edges, deps, wds)
        assert got == {LinkPair(A, B), LinkPair(A, C)}
        assert all(p.polarity == NEGATIVE for p in got)

    def test_unrelated_accounts_ignored(self):
        edges = [FollowEdge(follower=B, followed=C)]
        assert debank_negative_pairs(edges, [A], [B]) == frozenset()


HUB = "0x" + "f" * 40


def synthetic_confusion(tp: int, fp: int, fn: int, tn: int):
    """Build pair sets realizing exactly the requested confusion counts."""
    universe = [LinkPair(HUB, f"0x{i:040x}") for i in range(tp + fp + fn + tn)]
    positives = universe[:tp + fn]
    found = universe[:tp] + universe[tp + fn:tp + fn + fp]
    return found, positives, universe


class TestScoreLinks:
    def test_airdrop_row_of_validation_table(self):
        found, positives, universe = synthetic_confusion(229, 384, 0, 539_367)
        report = score_links(found, positives, [], universe)
        assert (report.tp, report.fp, report.fn, report.tn) == (229, 384, 0, 539_367)
        assert render_ratio(report.precision) == "0.37"
        assert render_ratio(report.recall) == "1.00"
        assert render_ratio(report.f1) == "0.54"

    def test_ens_row_of_validation_table(self):
        found, positives, universe = synthetic_confusion(50, 76, 3, 61_854)
        report = score_links(found, positives, [], universe)
        assert render_ratio(report.precision) == "0.40"
        assert render_ratio(report.recall) == "0.94"
        assert render_ratio(report.f1) == "0.56"

    def test_perfect_match(self):
        found, positives, universe = synthetic_confusion(10, 0, 0, 20)
        report = score_links(found, positives, [], universe)
        assert report.precision == report.recall == report.f1 == 1

    def test_counts_partition_universe(self):
        found, positives, universe = synthetic_confusion(3, 4, 5, 6)
        report = score_links(found, positives, [], universe)
        assert report.tp + report.tn + report.fp + report.fn == len(universe)

    def test_universe_must_cover_ground_truth(self):
        found, positives, universe = synthetic_confusion(3, 4, 5, 6)
        with pytest.raises(InputError):
            score_links(found, positives, [], universe[:3])

    def test_zero_found_gives_zero_f1(self):
        _, positives, universe = synthetic_confusion(3, 0, 5, 6)
        report = score_links([], positives, [], universe)
        assert report.tp == 0
        assert report.f1 == 0

    def test_negative_signal_reported_not_vetoed(self):
        found, positives, universe = synthetic_confusion(2, 2, 0, 4)
        negatives = [LinkPair(found[-1].a1, found[-1].a2, polarity=NEGATIVE)]
        report = score_links(found, positives, negatives, universe)
        assert report.negative_signal_fps == {found[-1]}
        assert report.fp == 2  # unchanged by the negative evidence

    def test_invariant_under_relabeling(self):
        found, positives, universe = synthetic_confusion(4, 3, 2, 8)

        def relabel(pair):
            return LinkPair("0xf" + pair.a1[3:], "0xf" + pair.a2[3:])

        report = score_links(found, positives, [], universe)
        relabeled = score_links([relabel(p) for p in found],
                                [relabel(p) for p in positives], [],
                                [relabel(p) for p in universe])
        assert (report.tp, report.tn, report.fp, report.fn) == \
               (relabeled.tp, relabeled.tn, relabeled.fp, relabeled.fn)
