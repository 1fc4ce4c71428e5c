"""Timing wrappers around anonset's public functions, installed from outside.

The package itself has no tracing hooks, so the benchmark patches each
traced function at the name its caller looks it up by: ``cli.py`` calls
``heuristics.h1_reuse`` through the module, so the wrapper replaces
``anonset.heuristics.h1_reuse``; ``heuristics.py`` imported ``pool_state``
from ``ledger``, so the wrapper replaces ``anonset.heuristics.pool_state``
and leaves ``anonset.ledger.pool_state`` alone.  :meth:`Tracer.uninstall`
puts every original back.

Each wrapped call records a span ``(id, name, start, end, parent, run)``
in memory and may add to the run's counters; spans are written out only
when the benchmark ends.  A span's *self time* is its duration minus the
part of its interval that its child spans cover (see :func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, namedtuple
from pathlib import Path
from time import perf_counter

Span = namedtuple("Span", "id name start end parent run")


def _count_records(tracer, args, result):
    tracer.count("dataset.records", sum(result.counts.values()))


def _count_cover(tracer, args, result):
    tracer.count("indexing.cover_claims", sum(len(c.claims) for c in result))
    tracer.count("indexing.cover_shortfall", sum(c.shortfall for c in result))


def _count_pairs(tracer, args):
    pairs = args[0] if hasattr(args[0], "__len__") else tuple(args[0])
    tracer.count("ledger.components_pairs", len(pairs))
    return (pairs,) + tuple(args[1:])


def _count_links(key):
    def hook(tracer, args, result):
        tracer.count(key, len(result.link_pairs))
    return hook


def _count_h5_links(tracer, args, result):
    tracer.count("heuristics.h5_links", sum(len(r.link_pairs) for r in result.values()))


def _count_combined(tracer, args, result):
    tracer.count("heuristics.combined_links", len(result.link_pairs))
    tracer.count("heuristics.reduced_total", len(result.anonymity_set))


def _count_solution(tracer, args, result):
    tracer.count("mining.solve_calls")
    tracer.count("mining.explored", result.explored)
    tracer.count("mining.exact", result.status == "exact")
    tracer.count("mining.inconclusive", result.status == "inconclusive")


# (module[:class], attribute, span name, before-hook, after-hook)
PATCHES = [
    ("anonset.cli", "main", "cli.main", None, None),
    ("anonset.cli", "ingest", "dataset.ingest", None, _count_records),
    ("anonset.cli", "write_dataset", "dataset.write", None, None),
    ("anonset.synth", "generate_trace", "synth.generate", None, None),
    ("anonset.dataset", "build_index", "indexing.build", None, None),
    ("anonset.indexing:LedgerIndex", "source_transfers", "indexing.cover", None, _count_cover),
    ("anonset.indexing:LedgerIndex", "sink_transfers", "indexing.cover", None, _count_cover),
    ("anonset.indexing:LedgerIndex", "depositors_at_distance", "indexing.distance", None, None),
    ("anonset.indexing:LedgerIndex", "withdrawers_at_distance", "indexing.distance", None, None),
    ("anonset.heuristics", "pool_state", "ledger.pool_state", None, None),
    ("anonset.heuristics", "connected_components", "ledger.components", _count_pairs, None),
    *[(module, name, "ledger.actor_sets", None, None) for module, name in (
        ("anonset.cli", "deposit_actors"), ("anonset.cli", "withdrawal_actors"),
        ("anonset.heuristics", "deposit_actors"), ("anonset.heuristics", "withdrawal_actors"),
        ("anonset.indexing", "deposit_actors"), ("anonset.indexing", "withdrawal_actors"),
        ("anonset.metrics", "deposit_actors"))],
    ("anonset.heuristics", "events_for_pool", "ledger.events_for_pool", None, None),
    ("anonset.metrics", "events_for_pool", "ledger.events_for_pool", None, None),
    ("anonset.heuristics", "h1_reuse", "heuristics.h1", None, None),
    ("anonset.heuristics", "h2_improper_sender", "heuristics.h2", None, _count_links("heuristics.h2_links")),
    ("anonset.heuristics", "h3_related_pair", "heuristics.h3", None, _count_links("heuristics.h3_links")),
    ("anonset.heuristics", "h4_intermediary", "heuristics.h4", None, _count_links("heuristics.h4_links")),
    ("anonset.heuristics", "h5_cross_pool", "heuristics.h5", None, _count_h5_links),
    ("anonset.heuristics", "combine", "heuristics.combine", None, _count_combined),
    ("anonset.metrics", "build_anonymity_report", "metrics.report", None, None),
    ("anonset.metrics", "relayer_usage", "metrics.relayer_usage", None, None),
    ("anonset.mining", "classify_claimant", "mining.classify", None, None),
    ("anonset.mining", "solve_single_claim", "mining.solve_single", None, _count_solution),
    ("anonset.mining", "solve_multi_claim", "mining.solve_multi", None, _count_solution),
]


class Tracer:
    """Spans and counters of traced runs, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = {}
        self.run: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def count(self, key: str, n: int = 1) -> None:
        self.counts.setdefault(self.run, Counter())[key] += n

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(tracer, args)
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[span_id] = Span(span_id, name, start, end, parent, tracer.run)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def install(self, patches=PATCHES) -> None:
        """Wrap every patch target; a target the code no longer has is
        skipped and listed in ``missing``, and its layer then reads 0."""
        for target, attr, name, before, after in patches:
            module, _, cls = target.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                self.missing.add(f"{target}.{attr}")
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, before, after))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with Path(path).open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def self_times(spans) -> dict[int, float]:
    """Per span id: duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's interval and merged before
    they are subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_totals(spans, run: str) -> tuple[dict[str, float], Counter]:
    """Summed self time and call count per span name within one run."""
    mine = [s for s in spans if s.run == run]
    selfs = self_times(mine)
    seconds: dict[str, float] = {}
    calls: Counter = Counter()
    for s in mine:
        seconds[s.name] = seconds.get(s.name, 0.0) + selfs[s.id]
        calls[s.name] += 1
    return seconds, calls
