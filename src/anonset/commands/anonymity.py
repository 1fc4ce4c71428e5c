"""``anonymity``: observed and reduced anonymity sets per pool."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .. import metrics
from ..dataset import GROUND_TRUTH_FILE
from ..errors import EXIT_OK, IngestError, ModeError
from ..ledger import reduced_set
from ..metrics import render_percent
from ..rows import _loads, _read_text
from . import _cut, _heuristic_tags, _run_heuristics, _selected_pools, _table, _write_report


def run(args, load) -> int:
    dataset = load(args)
    t = _cut(args, dataset)
    pools = _selected_pools(args, dataset)
    tags = _heuristic_tags(args, dataset)
    true_sizes = _true_set_sizes(args.data) if args.tas else None
    _, views, results = _run_heuristics(dataset, tags, t)

    # ``combined`` is one more named link set; only its cell and its
    # advantage fields differ from a heuristic's
    names = [*tags, "combined"] if args.combine else list(tags)
    reductions: dict[str, list[Fraction]] = {name: [] for name in names}
    pools_payload, rows = [], []
    for pool in pools:
        view = views[pool.pool_id]
        observed = len(view.depositors)
        links = {tag: results[(pool.pool_id, tag)].link_pairs for tag in tags}
        if args.combine:
            links["combined"] = frozenset().union(*links.values())
        entry = {"pool_id": pool.pool_id, "at": t, "observed": observed, "heuristics": {},
                 "adv_observed": str(metrics.adversary_advantage(observed)) if observed else None}
        row = [pool.pool_id, str(observed)]
        for name in names:
            size = len(reduced_set(view.state, links[name], view.depositors))
            # an idle pool, or a set a heuristic empties, has no reduction
            # and is left out of the averages
            reduced = {"size": size, "reduction": None}
            cell = f"{size} (-)"
            if size:
                reduction = Fraction(observed - size, observed)
                reductions[name].append(reduction)
                reduced["reduction"] = render_percent(reduction)
                cell = f"{size} (-{reduced['reduction']})"
            if name != "combined":
                entry["heuristics"][name] = reduced
            else:
                entry["combined"] = reduced
                entry["adv_reduced"] = entry["r_adv"] = None
                if size:
                    entry["adv_reduced"] = str(metrics.adversary_advantage(size))
                    entry["r_adv"] = render_percent(
                        metrics.relative_advantage_increase(observed, size))
                    cell = f"{size} (+{entry['r_adv']} adv)"
            row.append(cell)
        if args.tas:
            entry["true_set"] = true_sizes.get(pool.pool_id, 0)
            row.append(str(entry["true_set"]))
        pools_payload.append(entry)
        rows.append(row)

    headers = ["pool", "observed", *names] + (["true"] if args.tas else [])
    table = _table(headers, rows)
    # unweighted means across pools; the implied gain applies the
    # advantage formula to the mean combined reduction
    means = {name: sum(vals) / len(vals) for name, vals in reductions.items() if vals}
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


def _true_set_sizes(data) -> dict[str, int]:
    """Each pool's true anonymity-set size; the report counts the sets, so
    the sidecar is read as sizes."""
    sizes = read_true_set_sizes(data)
    if sizes is None:
        raise ModeError("--tas needs a synthetic dataset with ground truth")
    return sizes


def read_true_set_sizes(path: str | Path) -> dict[str, int] | None:
    """Pool id -> size of its true active-depositor set, from a dataset's
    ``ground_truth.json`` sidecar, or None when it has none.  Each size
    counts a pool's distinct addresses, one set alive at a time; no other
    sidecar key is read."""
    file = Path(path) / GROUND_TRUTH_FILE
    if not file.exists():
        return None
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
