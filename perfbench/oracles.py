"""Output oracles: expected report facts computed from the dataset files.

The oracles read the JSON-lines files directly and never import anonset,
so a defect in the package's ingest or analysis code cannot also hide in
the check.  Addresses are canonicalised here the same way the package
documents it (lowercase, ``0x``-prefixed), so the oracles work on the
mixed-case encoding of the relayers workload too.

Each ``check_*`` function takes the dataset facts and a parsed report and
returns a list of problems; an empty list means the report passed.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

DEPOSIT = "deposit"
WITHDRAWAL = "withdrawal"
EXACT = "exact"

_LOADED = re.compile(r"^loaded\s+(\d+) records from (\w+)$", re.MULTILINE)


def canonical(address: str) -> str:
    text = address.lower()
    return text if text.startswith("0x") else "0x" + text


def read_jsonl(path: Path) -> list[dict]:
    with path.open() as handle:
        return [json.loads(line) for line in handle if line.strip()]


class DatasetFacts:
    """What the oracles need from one dataset directory."""

    def __init__(self, data: Path):
        data = Path(data)
        self.record_counts = {}
        for path in sorted(data.glob("*.jsonl")):
            with path.open() as handle:
                self.record_counts[path.stem] = sum(1 for line in handle if line.strip())
        gt_path = data / "ground_truth.json"
        self.ground_truth = json.loads(gt_path.read_text()) if gt_path.exists() else None
        self.pools = {r["pool_id"]: r for r in read_jsonl(data / "pools.jsonl")}
        self.events = [
            (r["pool_id"], r["kind"], r["block"], canonical(r["actor"]),
             r["relayer"] is not None)
            for r in read_jsonl(data / "pool_events.jsonl")]
        self.claims: dict[str, list[dict]] = {}
        for r in read_jsonl(data / "ap_claims.jsonl"):
            self.claims.setdefault(canonical(r["recipient"]), []).append(r)

    def denomination(self, pool_id: str) -> int:
        return int(self.pools[pool_id]["denomination"])

    def pool_events(self, pool_id: str, kind: str, at: int | None = None):
        return [e for e in self.events
                if e[0] == pool_id and e[1] == kind and (at is None or e[2] <= at)]


def check_descriptors(facts: DatasetFacts, stdout: str) -> list[str]:
    """The "loaded N records from F" lines must match the files' line counts."""
    loaded = {name: int(n) for n, name in _LOADED.findall(stdout)}
    if loaded != facts.record_counts:
        return [f"input descriptors {loaded} differ from the files {facts.record_counts}"]
    return []


def _same_pools(facts: DatasetFacts, report: dict) -> list[str]:
    got = [p["pool_id"] for p in report["pools"]]
    if got != sorted(facts.pools):
        return [f"report pools {got} differ from the dataset pools {sorted(facts.pools)}"]
    return []


def check_anonymity(facts: DatasetFacts, report: dict) -> list[str]:
    problems = _same_pools(facts, report)
    at = report["at"]
    active = (facts.ground_truth or {}).get("active_depositors", {})
    for p in report["pools"]:
        pid = p["pool_id"]
        observed = len({e[3] for e in facts.pool_events(pid, DEPOSIT, at)})
        if p["observed"] != observed:
            problems.append(f"{pid}: observed {p['observed']} != {observed} distinct depositors")
        sizes = [h["size"] for h in p["heuristics"].values()]
        if "combined" not in p or not sizes:
            problems.append(f"{pid}: missing combined or per-heuristic sizes")
        elif not p["combined"]["size"] <= min(sizes) <= p["observed"]:
            problems.append(f"{pid}: combined {p['combined']['size']} <= min {min(sizes)}"
                            f" <= observed {p['observed']} does not hold")
        if p.get("true_set") != len(active.get(pid, ())):
            problems.append(f"{pid}: true_set {p.get('true_set')} != "
                            f"{len(active.get(pid, ()))} planted active depositors")
    return problems


def check_flows(facts: DatasetFacts, report: dict) -> list[str]:
    problems = _same_pools(facts, report)
    at = report["at"]
    for p in report["pools"]:
        pid = p["pool_id"]
        denom = facts.denomination(pid)
        for side, kind, listed, uncovered in (
                ("inflow", DEPOSIT, "inflow_sources", "uncovered_inflow"),
                ("outflow", WITHDRAWAL, "outflow_sinks", "uncovered_outflow")):
            total = sum(int(s["value"]) for s in p[listed]) + int(p[uncovered])
            expected = len(facts.pool_events(pid, kind, at)) * denom
            if total != expected:
                problems.append(f"{pid}: {side} {total} != {expected} "
                                f"({kind}s x denomination)")
    return problems


def check_am_link(facts: DatasetFacts, report: dict) -> list[str]:
    problems = []
    withdrawal_blocks = {pid: Counter(e[2] for e in facts.pool_events(pid, WITHDRAWAL))
                         for pid in facts.pools}
    deposit_blocks: dict[tuple[str, str], list[int]] = {}
    for pid, kind, block, actor, _ in facts.events:
        if kind == DEPOSIT:
            deposit_blocks.setdefault((pid, actor), []).append(block)
    truth = {canonical(r["recipient"]): r
             for r in (facts.ground_truth or {}).get("am_truth", ())}
    reported = {o["address"]: o for o in report["claimants"]}
    if set(reported) != set(facts.claims):
        problems.append(f"{len(reported)} claimants reported, "
                        f"{len(facts.claims)} in the claims file")
    for address, o in sorted(reported.items()):
        if o.get("status") != EXACT:
            continue
        pid = o["pool_id"]
        weight = int(facts.pools[pid]["am_weight"])
        deposits = sorted(deposit_blocks.get((pid, address), ()))
        claims = facts.claims.get(address, [])
        if len(claims) != 1:
            problems.append(f"{address}: exact solution for {len(claims)} claims")
            continue
        claim = claims[0]
        solutions = [sorted(s) for s in o["solutions"]]
        if not solutions:
            problems.append(f"{address}: status exact without a solution")
        for sol in solutions:
            if len(sol) != len(deposits):
                problems.append(f"{address}: {len(sol)} withdrawals for {len(deposits)} deposits")
            elif weight * (sum(sol) - sum(deposits)) != claim["ap"]:
                problems.append(f"{address}: solution {sol} does not reproduce ap {claim['ap']}")
            if Counter(sol) - withdrawal_blocks[pid]:
                problems.append(f"{address}: solution {sol} uses blocks with no "
                                f"withdrawal in pool {pid}")
            if any(b >= claim["block"] for b in sol):
                problems.append(f"{address}: solution {sol} is not before the claim")
        planted = truth.get(address)
        if planted and sorted(planted["withdrawal_blocks"]) not in solutions:
            problems.append(f"{address}: planted blocks {planted['withdrawal_blocks']} "
                            f"missing from {solutions}")
    return problems


def check_relayers(facts: DatasetFacts, report: dict) -> list[str]:
    problems = _same_pools(facts, report)
    for p in report["pools"]:
        pid = p["pool_id"]
        withdrawals = facts.pool_events(pid, WITHDRAWAL)
        expected = {"withdrawals": len(withdrawals),
                    "relayed_withdrawals": sum(1 for e in withdrawals if e[4]),
                    "withdrawers": len({e[3] for e in withdrawals})}
        for key, value in expected.items():
            if p[key] != value:
                problems.append(f"{pid}: {key} {p[key]} != {value} in the file")
    return problems


ORACLES = {
    "anonymity": check_anonymity,
    "flows": check_flows,
    "am-link": check_am_link,
    "relayers": check_relayers,
}
