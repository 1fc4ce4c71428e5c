"""Command-line front end: ingestion, analysis commands, report emission.

Every command validates its dataset, runs one analysis, and writes two
files into the output directory: ``<command>.json`` with machine-readable
records and ``<command>.txt`` with a rendered table.  Reports contain no
timestamps and all orderings are fixed (pools by id, addresses
lexicographically), so a command rerun on the same inputs produces
byte-identical output.

Exit codes: 0 success; 2 input or schema error, or a file that cannot be
read or written; 3 mode error (an analysis that needs ground truth ran
against a dataset without it); 4 when ``--strict`` is set and every
solver run came back inconclusive.

A handler imports the analysis module it runs in its own body, so a
command loads only the modules it uses.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn, Sequence

from .dataset import Dataset, ingest, read_true_set_sizes, write_dataset
from .errors import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_MODE,
    EXIT_OK,
    AnalysisError,
    InputError,
    ModeError,
)
from .ledger import DEPOSIT, LinkPair, connected_components, crosses, reduced_set

if TYPE_CHECKING:
    from . import synth

DEFAULT_AIRDROP_WINDOW = 50_000


def main(argv: Sequence[str] | None = None) -> int:
    # records are acyclic, freed by reference counting; the collector only rescans them
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except ModeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODE
    except (AnalysisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if collecting:
            gc.enable()


def run() -> NoReturn:
    """The process entry: run :func:`main`, flush stdout and stderr, and end
    the process with no interpreter teardown, as every report is closed by
    then and no command leaves an ``atexit`` handler or a thread.  A stream
    that cannot be flushed exits 2; ``SystemExit`` (usage errors, ``--help``)
    and any uncaught exception leave the normal way."""
    code = main()
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):
            stream.flush()
    except OSError as exc:
        code = EXIT_INPUT
        if sys.stderr is not None:
            try:
                print(f"error: cannot write output: {exc}", file=sys.stderr, flush=True)
            except OSError:  # stderr is gone too; the exit code still tells
                pass
    os._exit(code)


def _at_least(low: int):
    """An ``int`` argument type that refuses values below ``low``, so a bad
    value fails at parse time, before any dataset is read."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


def _heuristic_list(text: str) -> tuple[str, ...]:
    """The ``--heuristics`` type: a comma list naming at least one known tag."""
    from . import heuristics
    tags = tuple(dict.fromkeys(tag.strip() for tag in text.split(",") if tag.strip()))
    unknown = set(tags) - set(heuristics.HEURISTICS)
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown heuristics: {sorted(unknown)}")
    if not tags:
        raise argparse.ArgumentTypeError("names no heuristic")
    return tags


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anonset",
        description="Anonymity-set analytics for fixed-denomination mixer pools.")
    sub = parser.add_subparsers(dest="command", required=True)

    def data_command(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--data", required=True, help="dataset directory")
        p.add_argument("--out", required=True, help="report output directory")
        return p

    p = data_command("anonymity", "observed and reduced anonymity sets per pool")
    p.add_argument("--pool", help="restrict to one pool id")
    p.add_argument("--at", type=int, help="block-height cut (default: last block)")
    p.add_argument("--heuristics", type=_heuristic_list,
                   help="comma list, e.g. h1,h2,h3,h4,h5")
    p.add_argument("--combine", action="store_true", help="also combine the heuristics")
    p.add_argument("--tas", action="store_true",
                   help="include the true anonymity set (needs ground truth)")
    p.set_defaults(handler=_cmd_anonymity)

    p = data_command("clusters", "linked-address clusters and their size histogram")
    p.add_argument("--at", type=int)
    p.add_argument("--heuristics", type=_heuristic_list, help="default: h2,h3,h4,h5")
    p.set_defaults(handler=_cmd_clusters)

    p = data_command("relayers", "relayer usage per pool")
    p.set_defaults(handler=_cmd_relayers)

    p = data_command("flows", "distance-n extensions and coin-flow aggregation")
    p.add_argument("--at", type=int)
    p.add_argument("--distance", type=_at_least(1), default=2)
    p.set_defaults(handler=_cmd_flows)

    p = data_command("flags", "withdraw-first addresses re-depositing large volume")
    p.add_argument("--threshold", type=_at_least(0),
                   help="minimum deposited volume in base units")
    p.set_defaults(handler=_cmd_flags)

    p = data_command("am-link", "classify reward claimants and solve their timing")
    p.add_argument("--search-cap", type=_at_least(1))
    p.add_argument("--strict", action="store_true",
                   help="exit 4 when every solver run is inconclusive")
    p.set_defaults(handler=_cmd_am_link)

    p = data_command("validate", "score heuristic links against side-channel truth")
    p.add_argument("--gt", required=True,
                   choices=("airdrop", "ens", "intersection", "debank"))
    p.add_argument("--heuristics", type=_heuristic_list, help="default: h2,h3,h4,h5")
    p.add_argument("--at", type=int)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="dataset output directory")
    p.add_argument("--profile", default="disciplined",
                   help="behavior name, or comma list name:weight")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--users", type=int, default=120)
    p.add_argument("--blocks", type=int, default=8_000)
    p.set_defaults(handler=_cmd_synth)

    return parser


# ---------------------------------------------------------------------------
# shared plumbing


def _load(args) -> Dataset:
    dataset = ingest(args.data)
    for name in sorted(dataset.counts):
        print(f"loaded {dataset.counts[name]:>7} records from {name}")
    return dataset


def _cut(args, dataset: Dataset) -> int:
    t = getattr(args, "at", None)
    if t is None:
        return dataset.manifest.last_block
    if not dataset.manifest.first_block <= t <= dataset.manifest.last_block:
        raise InputError(f"cut {t} outside the dataset block range")
    return t


def _selected_pools(args, dataset: Dataset):
    wanted = getattr(args, "pool", None)
    if wanted is None:
        return dataset.pools
    return (dataset.pool(wanted),)


def _heuristic_tags(args, dataset: Dataset, linking_only: bool = False) -> tuple[str, ...]:
    from . import heuristics
    tags = args.heuristics
    if tags is None:
        return heuristics.default_tags(len(dataset.pools), linking_only)
    for tag in tags:
        if heuristics.HEURISTICS[tag].cross_pool and len(dataset.pools) < 2:
            raise InputError(f"{tag} needs at least two pools in the dataset")
    return tags


def _run_heuristics(dataset: Dataset, tags: Sequence[str], t: int):
    """Build the index at ``t`` and one view per pool, then run ``tags`` on them.

    Returns the index, the views keyed by pool id, and the results keyed
    ``(pool_id, tag)``.
    """
    from . import heuristics
    index = dataset.build_index(t)
    views = {p.pool_id: heuristics.pool_view(index, p) for p in dataset.pools}
    return index, views, heuristics.run_heuristics(tags, list(views.values()))


def _true_set_sizes(data) -> dict[str, int]:
    """Each pool's true anonymity-set size; the report counts the sets, so
    the sidecar is read as sizes."""
    sizes = read_true_set_sizes(data)
    if sizes is None:
        raise ModeError("--tas needs a synthetic dataset with ground truth")
    return sizes


def _write_report(args, name: str, payload: dict, table: str) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # pieces go straight into the file's buffer: no whole copy is ever held
    with open(out / f"{name}.json", "w", encoding="utf-8") as report:
        _encode(payload, "\n", report.write)
        report.write("\n")
    (out / f"{name}.txt").write_text(table, encoding="utf-8")
    print(f"wrote {out / (name + '.json')} and {out / (name + '.txt')}")


_string = json.encoder.encode_basestring_ascii  # the escaping json.dumps applies


def _encode(value, pad: str, emit) -> None:
    """Pass ``value``'s text to ``emit`` in pieces, its lines indented by ``pad``.
    From ``pad="\\n"`` they join to ``json.dumps(value, sort_keys=True, indent=2)``
    byte for byte, at about half its cost (with ``indent``, json encodes in pure
    Python).  Keys must be strings.  Not a closure: one calling itself is a
    reference cycle, which keeps ``emit`` alive while ``main`` pauses the collector."""
    if type(value) is str:
        emit(_string(value))
    elif type(value) is int:
        emit(int.__repr__(value))
    elif isinstance(value, dict) and value:
        inner = pad + "  "
        head, sep = "{" + inner, "," + inner
        for key, item in sorted(value.items()):
            emit(head)
            emit(_string(key))
            emit(": ")
            _encode(item, inner, emit)
            head = sep
        emit(pad + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = pad + "  "
        head, sep = "[" + inner, "," + inner
        for item in value:
            emit(head)
            _encode(item, inner, emit)
            head = sep
        emit(pad + "]")
    else:  # an empty container, bool, None or float
        emit(json.dumps(value))


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    line = "  ".join(f"{{:<{w}}}" for w in widths).format
    rule = ["-" * w for w in widths]
    return "\n".join([line(*row).rstrip() for row in (headers, rule, *rows)]) + "\n"


# ---------------------------------------------------------------------------
# commands


def _cmd_anonymity(args) -> int:
    from fractions import Fraction
    from . import metrics
    from .metrics import render_percent
    dataset = _load(args)
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


def _cmd_clusters(args) -> int:
    from fractions import Fraction
    from .metrics import cluster_size_histogram, render_percent
    dataset = _load(args)
    t = _cut(args, dataset)
    tags = _heuristic_tags(args, dataset, linking_only=True)
    _, _, results = _run_heuristics(dataset, tags, t)
    links = frozenset().union(*(r.link_pairs for r in results.values()))
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


def _cmd_relayers(args) -> int:
    from .metrics import relayer_usage, render_percent
    dataset = _load(args)
    events_by_pool: dict[str, list] = {}
    for e in dataset.events:
        events_by_pool.setdefault(e.pool_id, []).append(e)

    def percent(share):  # an undefined share stays None: null in the report, "-" in the table
        return share if share is None else render_percent(share)

    payload_rows = []
    for pool in dataset.pools:
        usage = relayer_usage(pool, events_by_pool.get(pool.pool_id, ()))
        payload_rows.append({
            "pool_id": usage.pool_id, "relayers": usage.relayers,
            "withdrawals": usage.withdrawals,
            "relayed_withdrawals": usage.relayed_withdrawals,
            "relayed_withdrawal_share": percent(usage.relayed_withdrawal_share),
            "withdrawers": usage.withdrawers,
            "relayed_withdrawers": usage.relayed_withdrawers,
            "relayed_withdrawer_share": percent(usage.relayed_withdrawer_share)})
    rows = [[r["pool_id"], str(r["relayers"]),
             f"{r['relayed_withdrawals']} ({r['relayed_withdrawal_share'] or '-'})",
             f"{r['relayed_withdrawers']} ({r['relayed_withdrawer_share'] or '-'})"]
            for r in payload_rows]
    payload = {"command": "relayers", "pools": payload_rows}
    _write_report(args, "relayers", payload,
                  _table(["pool", "relayers", "relayed withdrawals",
                          "withdrawers using relayers"], rows))
    return EXIT_OK


def _cmd_flows(args) -> int:
    dataset = _load(args)
    t = _cut(args, dataset)
    index = dataset.build_index(t)
    # per direction: the payload key of its distance sets, their query, the
    # cover query, the claim's far end, and the keys of the flows it ranks
    directions = (
        ("depositors", index.depositors_at_distance, index.source_transfers, "sender",
         "inflow_sources", "uncovered_inflow"),
        ("withdrawers", index.withdrawers_at_distance, index.sink_transfers, "recipient",
         "outflow_sinks", "uncovered_outflow"),
    )
    pools_payload, rows = [], []
    for pool in dataset.pools:
        entry = {"pool_id": pool.pool_id}
        sizes, tops = [], []
        for side, at_distance, covers, far_end, ranked_key, uncovered_key in directions:
            sets = at_distance(pool, args.distance)
            totals: dict[str, int] = {}
            uncovered = 0
            for actor in sets[0]:
                for cover in covers(actor, pool):
                    uncovered += cover.shortfall
                    for claim in cover.claims:
                        end = getattr(claim, far_end)
                        totals[end] = totals.get(end, 0) + claim.amount
            ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
            entry[side] = {str(n): len(s) for n, s in enumerate(sets, 1)}
            entry[ranked_key] = [{"address": a, "value": str(v)} for a, v in ranked]
            entry[uncovered_key] = str(uncovered)
            sizes.append(" ".join(str(len(s)) for s in sets))
            top, value = ranked[0] if ranked else ("-", 0)
            tops.append(f"{top}:{value}")
        pools_payload.append(entry)
        rows.append([pool.pool_id, *sizes, *tops])
    payload = {"command": "flows", "at": t, "distance": args.distance,
               "pools": pools_payload}
    _write_report(args, "flows", payload,
                  _table(["pool", "|D(1..n)|", "|W(1..n)|",
                          "top source", "top sink"], rows))
    return EXIT_OK


def _cmd_flags(args) -> int:
    from . import metrics
    if args.threshold is None:
        args.threshold = metrics.DEFAULT_FUND_THEN_DEPOSIT_THRESHOLD
    dataset = _load(args)
    flags = metrics.fund_then_deposit_flags(dataset.pools, dataset.events,
                                            dataset.labels, args.threshold)
    flagged = [{"address": f.address,
                "first_withdrawal_block": f.first_withdrawal.height,
                "first_deposit_block": f.first_deposit.height,
                "total_deposited": str(f.total_deposited),
                "labels": sorted(f.labels)} for f in flags]
    payload = {"command": "flags", "threshold": str(args.threshold), "flagged": flagged}
    rows = [[r["address"], str(r["first_withdrawal_block"]), str(r["first_deposit_block"]),
             r["total_deposited"], ",".join(r["labels"])] for r in flagged]
    _write_report(args, "flags", payload,
                  _table(["address", "first withdrawal", "first deposit",
                          "deposited", "labels"], rows))
    return EXIT_OK


def _cmd_am_link(args) -> int:
    from . import mining
    if args.search_cap is None:
        args.search_cap = mining.DEFAULT_SEARCH_CAP
    dataset = _load(args)
    # the events are in record order, so each pool's heights come sorted
    deposits_by_actor: dict[str, list] = {}
    withdrawal_blocks: dict[str, list[int]] = {p.pool_id: [] for p in dataset.pools}
    for e in dataset.events:
        if e.kind == DEPOSIT:
            deposits_by_actor.setdefault(e.actor, []).append(e)
        else:
            withdrawal_blocks[e.pool_id].append(e.height)
    claimants: dict[str, list] = {}
    for claim in dataset.ap_claims:
        claimants.setdefault(claim.recipient, []).append(claim)

    outcomes = []
    statuses = []
    for address in sorted(claimants):
        claims = claimants[address]
        own = deposits_by_actor.get(address, [])
        category = mining.classify_claimant(address, own, claims)
        entry = {"address": address, "category": category, "claims": len(claims)}
        if category in (mining.ONE_ONE_ONE, mining.N_ONE_ONE):
            pool = dataset.pool(own[0].pool_id)
            claim = claims[0]
            if category == mining.ONE_ONE_ONE:
                solution = mining.solve_single_claim(
                    own[0].height, claim, pool.am_weight,
                    withdrawal_blocks[pool.pool_id])
            else:
                solution = mining.solve_multi_claim(
                    [e.height for e in own], claim, pool.am_weight,
                    withdrawal_blocks[pool.pool_id], search_cap=args.search_cap)
            statuses.append(solution.status)
            entry.update({
                "pool_id": pool.pool_id,
                "status": solution.status,
                "solutions": solution.solutions,
                "multiplicity": solution.multiplicity,
                "explored": solution.explored})
        else:
            entry["status"] = "not-solved"
        outcomes.append(entry)

    payload = {"command": "am-link", "search_cap": args.search_cap,
               "claimants": outcomes}
    rows = [[o["address"], o["category"], o.get("status", "-"),
             str(len(o.get("solutions", [])))] for o in outcomes]
    _write_report(args, "am-link", payload,
                  _table(["address", "category", "status", "solutions"], rows))
    if args.strict and statuses and all(s == mining.INCONCLUSIVE for s in statuses):
        print("error: every solver run was inconclusive", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _gt_positive_pairs(dataset: Dataset, source: str) -> frozenset[LinkPair]:
    from . import groundtruth as gt_mod
    if source == "airdrop":
        return gt_mod.airdrop_links(dataset.airdrop_claims, dataset.token_transfers,
                                    DEFAULT_AIRDROP_WINDOW)
    if source == "ens":
        return gt_mod.ens_transfer_links(dataset.ens_transfers) | \
            gt_mod.ens_subdomain_links(dataset.ens_subdomains)
    if source == "intersection":
        return _gt_positive_pairs(dataset, "airdrop") & _gt_positive_pairs(dataset, "ens")
    raise InputError(f"no positive pairs for source {source!r}")


def _cmd_validate(args) -> int:
    from . import groundtruth as gt_mod
    from . import heuristics
    from .metrics import render_ratio
    for tag in args.heuristics or ():
        if heuristics.HEURISTICS[tag].joins is None:
            raise InputError(f"{tag} links no address pairs and cannot be validated")
    dataset = _load(args)
    t = _cut(args, dataset)
    tags = _heuristic_tags(args, dataset, linking_only=True)
    index, views, results = _run_heuristics(dataset, tags, t)
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
        found = frozenset().union(
            *(results[(pool.pool_id, tag)].link_pairs for pool in dataset.pools))
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


def _parse_profile(text: str) -> synth.BehaviorProfile:
    from . import synth
    if ":" not in text:
        if text == "mixed":
            return synth.BehaviorProfile.from_weights({b: 1 for b in synth.BEHAVIORS})
        return synth.BehaviorProfile.pure(text)
    weights = {}
    for part in text.split(","):
        name, _, weight = part.partition(":")
        name = name.strip()
        if name in weights:
            raise InputError(f"repeated profile behavior: {name!r}")
        try:
            weights[name] = int(weight)
        except ValueError:
            raise InputError(f"bad profile component: {part!r}")
    return synth.BehaviorProfile.from_weights(weights)


def _cmd_synth(args) -> int:
    from . import synth
    config = synth.GeneratorConfig(
        profile=_parse_profile(args.profile), pools=synth.standard_pools(),
        user_count=args.users, block_span=args.blocks)
    trace = synth.generate_trace(config, args.seed)
    out = write_dataset(trace, args.out)
    print(f"wrote synthetic dataset to {out}: "
          f"{len(trace.events)} pool events, {len(trace.transfers)} transfers, "
          f"{len(trace.ap_claims)} reward claims")
    return EXIT_OK


if __name__ == "__main__":
    run()
