"""``validate``: score heuristic links against side-channel truth."""

from __future__ import annotations

from .. import groundtruth as gt_mod
from .. import heuristics
from ..dataset import Dataset
from ..errors import EXIT_OK, InputError
from ..ledger import LinkPair, crosses
from ..metrics import render_ratio
from . import _cut, _heuristic_tags, _load, _run_heuristics, _table, _write_report

DEFAULT_AIRDROP_WINDOW = 50_000
# every source reads the follow edges, for the negative signal; SOURCE_FILES
# names the files of each source's positive pairs
FILES = ("pools", "pool_events", "transfers", "token_transfers", "labels", "relayers",
         "follow_edges")
SOURCE_FILES = {"debank": (), "airdrop": ("airdrop_claims",),
                "ens": ("ens_transfers", "ens_subdomains")}
SOURCE_FILES["intersection"] = SOURCE_FILES["airdrop"] + SOURCE_FILES["ens"]


def run(args, ingest) -> int:
    for tag in args.heuristics or ():
        if heuristics.HEURISTICS[tag].joins is None:
            raise InputError(f"{tag} links no address pairs and cannot be validated")
    dataset = _load(args, ingest, FILES + SOURCE_FILES[args.gt])
    t = _cut(args, dataset)
    tags = _heuristic_tags(args, dataset, linking_only=True)
    index, views, links = _run_heuristics(dataset, tags, t)
    depositors = frozenset().union(*(v.depositors for v in views.values()))
    withdrawers = frozenset().union(*(v.withdrawers for v in views.values()))
    negatives = gt_mod.debank_negative_pairs(dataset.follow_edges)

    # debank evidence only contradicts pairs; every other source scores them
    payload = {"command": "validate", "gt": args.gt, "at": t, "heuristics": []}
    if args.gt == "debank":
        columns = ("heuristic", "pairs", "negative_pairs", "contradicted")
    else:
        columns = ("heuristic", "universe", "tp", "tn", "fp", "fn",
                   "precision", "recall", "f1")
        positives = _gt_positive_pairs(dataset, args.gt)
        gt_addresses = frozenset(a for p in positives for a in p)
        payload["positive_pairs"] = len(positives)
    for tag in tags:
        found = frozenset().union(*(mine[tag] for mine in links.values()))
        # the two address sides the pairs join: funder links join
        # distance-2 funders to distance-1 depositors
        side_a, side_b = depositors, withdrawers
        if heuristics.HEURISTICS[tag].joins == heuristics.FUNDER:
            side_a, side_b = frozenset().union(
                *(index.depositors_at_distance(p, 2)[-1] for p in dataset.pools)), depositors
        if args.gt == "debank":
            hits = found & negatives
            record = {"pairs": len(found),
                      "negative_pairs": sum(1 for p in negatives if crosses(*p, side_a, side_b)),
                      "contradicted": len(hits),
                      "contradicted_pairs": sorted([list(p) for p in hits])}
        else:
            report = gt_mod.score_links(found, positives, negatives,
                                        side_a & gt_addresses, side_b & gt_addresses)
            # an undefined ratio stays None: null in the report, "-" in the table
            ratios = {"precision": report.precision, "recall": report.recall, "f1": report.f1}
            record = {"universe": report.universe_size,
                      "tp": report.tp, "tn": report.tn, "fp": report.fp, "fn": report.fn,
                      **{k: v if v is None else render_ratio(v) for k, v in ratios.items()},
                      "negative_signal_fps": len(report.negative_signal_fps)}
        payload["heuristics"].append({"heuristic": tag, **record})
    if args.gt == "intersection":
        payload["note"] = ("intersection of airdrop and name-service evidence is "
                           "typically tiny; treat these scores as statistically weak")
    rows = [["-" if record[c] is None else str(record[c]) for c in columns]
            for record in payload["heuristics"]]
    _write_report(args, "validate", payload,
                  _table([c.replace("_", " ") for c in columns], rows))
    return EXIT_OK


def _gt_positive_pairs(dataset: Dataset, source: str) -> frozenset[LinkPair]:
    if source == "airdrop":
        return gt_mod.airdrop_links(dataset.airdrop_claims, dataset.token_transfers,
                                    DEFAULT_AIRDROP_WINDOW)
    if source == "ens":
        return gt_mod.ens_transfer_links(dataset.ens_transfers) | \
            gt_mod.ens_subdomain_links(dataset.ens_subdomains)
    if source == "intersection":
        return _gt_positive_pairs(dataset, "airdrop") & _gt_positive_pairs(dataset, "ens")
    raise InputError(f"no positive pairs for source {source!r}")
