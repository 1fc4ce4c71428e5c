"""``clusters``: linked-address clusters and their size histogram."""

from __future__ import annotations

from fractions import Fraction

from ..errors import EXIT_OK
from ..ledger import connected_components
from ..metrics import cluster_size_histogram, render_percent
from . import _cut, _heuristic_tags, _load, _run_heuristics, _table, _write_report

FILES = ("pools", "pool_events", "transfers", "token_transfers", "labels", "relayers")


def run(args, ingest) -> int:
    dataset = _load(args, ingest, FILES)
    t = _cut(args, dataset)
    tags = _heuristic_tags(args, dataset, linking_only=True)
    _, _, links_by_pool = _run_heuristics(dataset, tags, t)
    links = frozenset().union(*(pairs for mine in links_by_pool.values()
                                for pairs in mine.values()))
    clusters = connected_components(links)
    histogram = {str(size): {"count": count,
                             "fraction": render_percent(Fraction(count, len(clusters)))}
                 for size, count in cluster_size_histogram(clusters).items()}
    payload = {
        "command": "clusters", "at": t, "heuristics": list(tags),
        "linked_pairs": len(links), "clusters": len(clusters), "histogram": histogram,
        "members": [list(members) for members in clusters],
    }
    rows = [[size, str(h["count"]), h["fraction"]] for size, h in histogram.items()]
    _write_report(args, "clusters", payload,
                  _table(["cluster size", "count", "share"], rows))
    return EXIT_OK
