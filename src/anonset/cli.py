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
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import groundtruth as gt_mod
from . import heuristics, metrics, mining, synth
from .dataset import Dataset, ingest, read_ground_truth, write_dataset
from .errors import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_MODE,
    EXIT_OK,
    AnalysisError,
    InputError,
    ModeError,
)
from .ledger import DEPOSIT, WITHDRAWAL, LinkPair, connected_components
from .metrics import render_percent, render_ratio

DEFAULT_AIRDROP_WINDOW = 50_000


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ModeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODE
    except (AnalysisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


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
    p.add_argument("--heuristics", help="comma list, e.g. h1,h2,h3,h4,h5")
    p.add_argument("--combine", action="store_true", help="also combine the heuristics")
    p.add_argument("--tas", action="store_true",
                   help="include the true anonymity set (needs ground truth)")
    p.set_defaults(handler=_cmd_anonymity)

    p = data_command("clusters", "linked-address clusters and their size histogram")
    p.add_argument("--at", type=int)
    p.add_argument("--heuristics", help="default: h2,h3,h4,h5")
    p.set_defaults(handler=_cmd_clusters)

    p = data_command("relayers", "relayer usage per pool")
    p.set_defaults(handler=_cmd_relayers)

    p = data_command("flows", "distance-n extensions and coin-flow aggregation")
    p.add_argument("--at", type=int)
    p.add_argument("--distance", type=_at_least(1), default=2)
    p.set_defaults(handler=_cmd_flows)

    p = data_command("flags", "withdraw-first addresses re-depositing large volume")
    p.add_argument("--threshold", type=_at_least(0),
                   default=metrics.DEFAULT_FUND_THEN_DEPOSIT_THRESHOLD,
                   help="minimum deposited volume in base units")
    p.set_defaults(handler=_cmd_flags)

    p = data_command("am-link", "classify reward claimants and solve their timing")
    p.add_argument("--search-cap", type=_at_least(1), default=mining.DEFAULT_SEARCH_CAP)
    p.add_argument("--strict", action="store_true",
                   help="exit 4 when every solver run is inconclusive")
    p.set_defaults(handler=_cmd_am_link)

    p = data_command("validate", "score heuristic links against side-channel truth")
    p.add_argument("--gt", required=True,
                   choices=("airdrop", "ens", "intersection", "debank"))
    p.add_argument("--heuristics", help="default: h2,h3,h4,h5")
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


def _parse_heuristics(args, dataset: Dataset, linking_only: bool = False) -> tuple[str, ...]:
    raw = getattr(args, "heuristics", None)
    if not raw:
        return heuristics.default_tags(len(dataset.pools), linking_only)
    tags = tuple(dict.fromkeys(tag.strip() for tag in raw.split(",") if tag.strip()))
    unknown = set(tags) - set(heuristics.HEURISTICS)
    if unknown:
        raise InputError(f"unknown heuristics: {sorted(unknown)}")
    for tag in tags:
        if heuristics.HEURISTICS[tag].cross_pool and len(dataset.pools) < 2:
            raise InputError(f"{tag} needs at least two pools in the dataset")
    return tags


def _run_heuristics(dataset: Dataset, tags: Sequence[str], t: int):
    """Build the index and one view per pool, then run ``tags`` on them.

    Returns the index, the views keyed by pool id, and the results keyed
    ``(pool_id, tag)``.
    """
    index = dataset.build_index()
    views = {p.pool_id: heuristics.pool_view(index, p, t) for p in dataset.pools}
    return index, views, heuristics.run_heuristics(tags, list(views.values()))


def _write_report(args, name: str, payload: dict, table: str) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n")
    (out / f"{name}.txt").write_text(table)
    print(f"wrote {out / (name + '.json')} and {out / (name + '.txt')}")


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
             "  ".join("-" * w for w in widths)]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _reduced_set_entry(observed: int, size: int) -> tuple[dict, Fraction | None]:
    """A reduced set's report entry and reduction.  An idle pool, or a set a
    heuristic empties, has none, and is left out of the averages."""
    if not size:
        return {"size": size, "reduction": None}, None
    reduction = Fraction(observed - size, observed)
    return {"size": size, "reduction": render_percent(reduction)}, reduction


def _cmd_anonymity(args) -> int:
    dataset = _load(args)
    t = _cut(args, dataset)
    tags = _parse_heuristics(args, dataset)
    truth = read_ground_truth(args.data) if args.tas else None
    if args.tas and truth is None:
        raise ModeError("--tas needs a synthetic dataset with ground truth")
    _, views, results = _run_heuristics(dataset, tags, t)

    pools_payload = []
    rows = []
    reductions: dict[str, list[Fraction]] = {tag: [] for tag in tags}
    combined_reductions: list[Fraction] = []
    for pool in _selected_pools(args, dataset):
        view = views[pool.pool_id]
        observed = len(view.depositors)
        per = [results[(pool.pool_id, tag)] for tag in tags]
        entry = {"pool_id": pool.pool_id, "at": t, "observed": observed, "heuristics": {},
                 "adv_observed": str(metrics.adversary_advantage(observed)) if observed else None}
        row = [pool.pool_id, str(observed)]
        for r in per:
            entry["heuristics"][r.heuristic], reduction = _reduced_set_entry(observed, r.size)
            if reduction is None:
                row.append(f"{r.size} (-)")
            else:
                reductions[r.heuristic].append(reduction)
                row.append(f"{r.size} (-{render_percent(reduction)})")
        if args.combine:
            size = heuristics.combine(view, per).size
            entry["combined"], reduction = _reduced_set_entry(observed, size)
            if reduction is None:
                entry["adv_reduced"] = entry["r_adv"] = None
                row.append(f"{size} (-)")
            else:
                combined_reductions.append(reduction)
                r_adv = render_percent(metrics.relative_advantage_increase(observed, size))
                entry["adv_reduced"] = str(metrics.adversary_advantage(size))
                entry["r_adv"] = r_adv
                row.append(f"{size} (+{r_adv} adv)")
        if args.tas:
            active = truth.active_depositors.get(pool.pool_id, frozenset())
            entry["true_set"] = len(active)
            row.append(str(len(active)))
        pools_payload.append(entry)
        rows.append(row)

    headers = ["pool", "observed"] + list(tags)
    if args.combine:
        headers.append("combined")
    if args.tas:
        headers.append("true")
    payload = {"command": "anonymity", "at": t, "heuristics": list(tags),
               "pools": pools_payload}
    # unweighted means across pools; the implied gain applies the
    # advantage formula to the mean combined reduction
    averages = {tag: render_percent(sum(vals) / len(vals))
                for tag, vals in reductions.items() if vals}
    table = _table(headers, rows)
    if combined_reductions:
        mean = sum(combined_reductions) / len(combined_reductions)
        averages["combined"] = render_percent(mean)
        averages["implied_advantage_gain"] = render_percent(
            metrics.advantage_increase_from_reduction(mean))
        table += (f"\nmean combined reduction {averages['combined']}"
                  f" -> advantage gain {averages['implied_advantage_gain']}\n")
    payload["average_reduction"] = averages
    _write_report(args, "anonymity", payload, table)
    return EXIT_OK


def _cmd_clusters(args) -> int:
    dataset = _load(args)
    t = _cut(args, dataset)
    tags = _parse_heuristics(args, dataset, linking_only=True)
    _, _, results = _run_heuristics(dataset, tags, t)
    links = frozenset().union(*(r.link_pairs for r in results.values()))
    clusters = connected_components(links)
    histogram = metrics.cluster_size_histogram(clusters)
    shares = {size: render_percent(Fraction(count, len(clusters)))
              for size, count in histogram.items()}
    payload = {
        "command": "clusters", "at": t, "heuristics": list(tags),
        "linked_pairs": len(links), "clusters": len(clusters),
        "histogram": {str(size): {"count": count, "fraction": shares[size]}
                      for size, count in histogram.items()},
        "members": [list(members) for members in clusters],
    }
    rows = [[str(size), str(count), shares[size]] for size, count in histogram.items()]
    _write_report(args, "clusters", payload,
                  _table(["cluster size", "count", "share"], rows))
    return EXIT_OK


def _cmd_relayers(args) -> int:
    dataset = _load(args)
    rows, payload_rows = [], []
    for pool in dataset.pools:
        usage = metrics.relayer_usage(pool, dataset.events)
        payload_rows.append({
            "pool_id": usage.pool_id, "relayers": usage.relayers,
            "withdrawals": usage.withdrawals,
            "relayed_withdrawals": usage.relayed_withdrawals,
            "relayed_withdrawal_share": render_percent(usage.relayed_withdrawal_share),
            "withdrawers": usage.withdrawers,
            "relayed_withdrawers": usage.relayed_withdrawers,
            "relayed_withdrawer_share": render_percent(usage.relayed_withdrawer_share)})
        rows.append([usage.pool_id, str(usage.relayers),
                     f"{usage.relayed_withdrawals} ({render_percent(usage.relayed_withdrawal_share)})",
                     f"{usage.relayed_withdrawers} ({render_percent(usage.relayed_withdrawer_share)})"])
    payload = {"command": "relayers", "pools": payload_rows}
    _write_report(args, "relayers", payload,
                  _table(["pool", "relayers", "relayed withdrawals",
                          "withdrawers using relayers"], rows))
    return EXIT_OK


def _cmd_flows(args) -> int:
    dataset = _load(args)
    t = _cut(args, dataset)
    index = dataset.build_index()
    distances = range(1, args.distance + 1)
    pools_payload, rows = [], []
    for pool in dataset.pools:
        depositors = [index.depositors_at_distance(pool, n, t) for n in distances]
        withdrawers = [index.withdrawers_at_distance(pool, n, t) for n in distances]
        entry = {"pool_id": pool.pool_id,
                 "depositors": {str(n): len(s) for n, s in zip(distances, depositors)},
                 "withdrawers": {str(n): len(s) for n, s in zip(distances, withdrawers)}}

        sources: dict[str, int] = {}
        uncovered_in = 0
        for depositor in sorted(depositors[0]):
            for cover in index.source_transfers(depositor, pool, t):
                uncovered_in += cover.shortfall
                for claim in cover.claims:
                    sources[claim.sender] = sources.get(claim.sender, 0) + claim.amount
        sinks: dict[str, int] = {}
        uncovered_out = 0
        for withdrawer in sorted(withdrawers[0]):
            for cover in index.sink_transfers(withdrawer, pool, t):
                uncovered_out += cover.shortfall
                for claim in cover.claims:
                    sinks[claim.recipient] = sinks.get(claim.recipient, 0) + claim.amount

        def ranked(table: dict[str, int]):
            return sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))

        entry["inflow_sources"] = [{"address": a, "value": str(v)}
                                   for a, v in ranked(sources)]
        entry["outflow_sinks"] = [{"address": a, "value": str(v)}
                                  for a, v in ranked(sinks)]
        entry["uncovered_inflow"] = str(uncovered_in)
        entry["uncovered_outflow"] = str(uncovered_out)
        pools_payload.append(entry)
        top_in = ranked(sources)[0] if sources else ("-", 0)
        top_out = ranked(sinks)[0] if sinks else ("-", 0)
        rows.append([pool.pool_id,
                     " ".join(str(len(s)) for s in depositors),
                     " ".join(str(len(s)) for s in withdrawers),
                     f"{top_in[0]}:{top_in[1]}", f"{top_out[0]}:{top_out[1]}"])
    payload = {"command": "flows", "at": t, "distance": args.distance,
               "pools": pools_payload}
    _write_report(args, "flows", payload,
                  _table(["pool", "|D(1..n)|", "|W(1..n)|",
                          "top source", "top sink"], rows))
    return EXIT_OK


def _cmd_flags(args) -> int:
    dataset = _load(args)
    flags = metrics.fund_then_deposit_flags(dataset.pools, dataset.events,
                                            dataset.labels, args.threshold)
    payload = {"command": "flags", "threshold": str(args.threshold),
               "flagged": [{
                   "address": f.address,
                   "first_withdrawal_block": f.first_withdrawal.block.height,
                   "first_deposit_block": f.first_deposit.block.height,
                   "total_deposited": str(f.total_deposited),
                   "labels": sorted(f.labels)} for f in flags]}
    rows = [[f.address, str(f.first_withdrawal.block.height),
             str(f.first_deposit.block.height), str(f.total_deposited),
             ",".join(sorted(f.labels))] for f in flags]
    _write_report(args, "flags", payload,
                  _table(["address", "first withdrawal", "first deposit",
                          "deposited", "labels"], rows))
    return EXIT_OK


def _cmd_am_link(args) -> int:
    dataset = _load(args)
    deposits_by_actor: dict[str, list] = {}
    for e in dataset.events:
        if e.kind == DEPOSIT:
            deposits_by_actor.setdefault(e.actor, []).append(e)
    withdrawal_blocks = {
        p.pool_id: sorted(e.block.height for e in dataset.events
                          if e.pool_id == p.pool_id and e.kind == WITHDRAWAL)
        for p in dataset.pools}
    claimants: dict[str, list] = {}
    for claim in dataset.ap_claims:
        claimants.setdefault(claim.recipient, []).append(claim)

    outcomes = []
    statuses = []
    for address in sorted(claimants):
        claims = sorted(claimants[address], key=lambda c: (c.block, c.ap))
        own = deposits_by_actor.get(address, [])
        category = mining.classify_claimant(address, own, claims)
        entry = {"address": address, "category": category, "claims": len(claims)}
        if category in (mining.ONE_ONE_ONE, mining.N_ONE_ONE):
            own = sorted(own, key=lambda e: e.block)
            pool = dataset.pool(own[0].pool_id)
            claim = claims[0]
            if category == mining.ONE_ONE_ONE:
                solution = mining.solve_single_claim(
                    own[0].block.height, claim, pool.am_weight,
                    withdrawal_blocks[pool.pool_id])
            else:
                solution = mining.solve_multi_claim(
                    [e.block.height for e in own], claim, pool.am_weight,
                    withdrawal_blocks[pool.pool_id], search_cap=args.search_cap)
            statuses.append(solution.status)
            entry.update({
                "pool_id": pool.pool_id,
                "status": solution.status,
                "solutions": [list(tup) for tup in solution.solutions],
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
    dataset = _load(args)
    t = _cut(args, dataset)
    tags = _parse_heuristics(args, dataset, linking_only=True)
    for tag in tags:
        if heuristics.HEURISTICS[tag].joins is None:
            raise InputError(f"{tag} links no address pairs and cannot be validated")
    index, views, results = _run_heuristics(dataset, tags, t)
    depositors = frozenset().union(*(v.depositors for v in views.values()))
    withdrawers = frozenset().union(*(v.withdrawers for v in views.values()))
    negatives = gt_mod.debank_negative_pairs(dataset.follow_edges, depositors,
                                             withdrawers)

    def found_for(tag: str) -> frozenset[LinkPair]:
        out: frozenset[LinkPair] = frozenset()
        for pool in dataset.pools:
            out |= results[(pool.pool_id, tag)].link_pairs
        return out

    rows, payload_rows = [], []
    if args.gt == "debank":
        for tag in tags:
            found = found_for(tag)
            hits = found & negatives
            payload_rows.append({"heuristic": tag, "pairs": len(found),
                                 "negative_pairs": len(negatives),
                                 "contradicted": len(hits),
                                 "contradicted_pairs": sorted(
                                     [list(p.addresses) for p in hits])})
            rows.append([tag, str(len(found)), str(len(negatives)), str(len(hits))])
        payload = {"command": "validate", "gt": "debank", "at": t,
                   "heuristics": payload_rows}
        _write_report(args, "validate", payload,
                      _table(["heuristic", "pairs", "negative pairs",
                              "contradicted"], rows))
        return EXIT_OK

    positives = _gt_positive_pairs(dataset, args.gt)
    gt_addresses = frozenset(a for p in positives for a in p.addresses)
    for tag in tags:
        if heuristics.HEURISTICS[tag].joins == heuristics.FUNDER:
            # funder links join distance-2 funders to distance-1 depositors
            side_a = frozenset().union(
                *(index.depositors_at_distance(p, 2, t) for p in dataset.pools))
            side_b = depositors
        else:
            side_a, side_b = depositors, withdrawers
        universe = frozenset(
            LinkPair(a, b) for a in side_a & gt_addresses
            for b in side_b & gt_addresses if a != b)
        gt_in_universe = positives & universe
        report = gt_mod.score_links(found_for(tag), gt_in_universe, negatives, universe)
        payload_rows.append({
            "heuristic": tag, "universe": report.universe_size,
            "tp": report.tp, "tn": report.tn, "fp": report.fp, "fn": report.fn,
            "precision": render_ratio(report.precision),
            "recall": render_ratio(report.recall),
            "f1": render_ratio(report.f1),
            "negative_signal_fps": len(report.negative_signal_fps)})
        rows.append([tag, str(report.universe_size), str(report.tp), str(report.tn),
                     str(report.fp), str(report.fn), render_ratio(report.precision),
                     render_ratio(report.recall), render_ratio(report.f1)])
    payload = {"command": "validate", "gt": args.gt, "at": t,
               "positive_pairs": len(positives), "heuristics": payload_rows}
    if args.gt == "intersection":
        payload["note"] = ("intersection of airdrop and name-service evidence is "
                           "typically tiny; treat these scores as statistically weak")
    _write_report(args, "validate", payload,
                  _table(["heuristic", "universe", "tp", "tn", "fp", "fn",
                          "precision", "recall", "f1"], rows))
    return EXIT_OK


def _parse_profile(text: str) -> synth.BehaviorProfile:
    if ":" not in text:
        if text == "mixed":
            return synth.BehaviorProfile.from_weights({b: 1 for b in synth.BEHAVIORS})
        return synth.BehaviorProfile.pure(text)
    weights = {}
    for part in text.split(","):
        name, _, weight = part.partition(":")
        try:
            weights[name.strip()] = int(weight)
        except ValueError:
            raise InputError(f"bad profile component: {part!r}")
    return synth.BehaviorProfile.from_weights(weights)


def _cmd_synth(args) -> int:
    profile = _parse_profile(args.profile)
    config = synth.GeneratorConfig(
        profile=profile, pools=synth.standard_pools(),
        user_count=args.users, block_span=args.blocks,
        am_launch=(args.blocks // 2 + 1_000
                   if profile.fractions.get(synth.AM_SPECULATOR) else None))
    trace = synth.generate_trace(config, args.seed)
    out = write_dataset(trace, args.out)
    print(f"wrote synthetic dataset to {out}: "
          f"{len(trace.events)} pool events, {len(trace.transfers)} transfers, "
          f"{len(trace.ap_claims)} reward claims")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
