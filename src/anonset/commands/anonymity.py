"""``anonymity``: observed and reduced anonymity sets per pool."""

from __future__ import annotations

from pathlib import Path

from .. import metrics
from ..errors import EXIT_OK, IngestError, ModeError
from ..ledger import GROUND_TRUTH_FILE
from ..metrics import render_percent
from ..rows import _loads, _read_text
from . import (
    _cut,
    _heuristic_tags,
    _load,
    _run_heuristics,
    _selected_pools,
    _table,
    _write_report,
)

FILES = ("pools", "pool_events", "transfers", "token_transfers", "labels", "relayers")


def run(args, ingest) -> int:
    dataset = _load(args, ingest, FILES)
    t = _cut(args, dataset)
    pools = _selected_pools(args, dataset)
    tags = _heuristic_tags(args, dataset)
    true_sizes = read_true_set_sizes(args.data) if args.tas else None
    _, views, links = _run_heuristics(dataset, tags, t)
    if args.combine:
        # ``combined`` is one more named link set; only its cell and its
        # advantage fields differ from a heuristic's
        for mine in (links[pool.pool_id] for pool in pools):
            mine["combined"] = frozenset().union(*mine.values())
    sets, means = metrics.anonymity_sets([views[pool.pool_id] for pool in pools], links)

    pools_payload, rows = [], []
    for pool_id, (observed, reduced_sets) in sets.items():
        entry = {"pool_id": pool_id, "at": t, "observed": observed, "heuristics": {},
                 "adv_observed": str(metrics.adversary_advantage(observed)) if observed else None}
        row = [pool_id, str(observed)]
        for name, (size, reduction) in reduced_sets.items():
            reduced = {"size": size,
                       "reduction": None if reduction is None else render_percent(reduction)}
            cell = f"{size} (-{reduced['reduction']})" if size else f"{size} (-)"
            if name != "combined":
                entry["heuristics"][name] = reduced
            else:
                entry["combined"] = reduced
                entry["adv_reduced"] = entry["r_adv"] = None
                if size:
                    entry["adv_reduced"] = str(metrics.adversary_advantage(size))
                    entry["r_adv"] = render_percent(
                        metrics.advantage_increase_from_reduction(reduction))
                    cell = f"{size} (+{entry['r_adv']} adv)"
            row.append(cell)
        if args.tas:
            entry["true_set"] = true_sizes.get(pool_id, 0)
            row.append(str(entry["true_set"]))
        pools_payload.append(entry)
        rows.append(row)

    names = [*tags, "combined"] if args.combine else list(tags)
    table = _table(["pool", "observed", *names] + (["true"] if args.tas else []), rows)
    # the implied gain applies the advantage formula to the mean combined
    # reduction
    averages = {name: render_percent(mean) for name, mean in means.items()}
    if "combined" in means:
        averages["implied_advantage_gain"] = render_percent(
            metrics.advantage_increase_from_reduction(means["combined"]))
        table += (f"\nmean combined reduction {averages['combined']}"
                  f" -> advantage gain {averages['implied_advantage_gain']}\n")
    payload = {"command": "anonymity", "at": t, "heuristics": list(tags),
               "pools": pools_payload, "average_reduction": averages}
    _write_report(args, "anonymity", payload, table)
    return EXIT_OK


def read_true_set_sizes(path: str | Path) -> dict[str, int]:
    """Pool id -> size of its true active-depositor set, from a dataset's
    ``ground_truth.json`` sidecar; a dataset without one raises
    :class:`ModeError`.  Each size counts a pool's distinct addresses, one
    set alive at a time; no other sidecar key is read."""
    file = Path(path) / GROUND_TRUTH_FILE
    if not file.exists():
        raise ModeError("--tas needs a synthetic dataset with ground truth")
    raw = _loads(_read_text(file, GROUND_TRUTH_FILE), GROUND_TRUTH_FILE)
    if not isinstance(raw, dict):
        raise IngestError("ground truth is not an object", file=GROUND_TRUTH_FILE)
    key = "active_depositors"
    if key not in raw:
        raise IngestError("missing field", file=GROUND_TRUTH_FILE, field=key)
    if not isinstance(raw[key], dict) or not all(
            isinstance(a, list) and set(map(type, a)) <= {str} for a in raw[key].values()):
        raise IngestError("expected an object of address lists", file=GROUND_TRUTH_FILE, field=key)
    return {pool: len(set(addrs)) for pool, addrs in raw[key].items()}
