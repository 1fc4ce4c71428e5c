#!/usr/bin/env python3
"""The anonset benchmark: four CLI workloads, output oracles, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload anonymity-mixed-8k --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

For each workload the benchmark generates the dataset with ``anonset
synth`` from the seed, then runs the workload's command as a fresh
``python -m anonset.cli`` process, closed loop with one client, until
``--seconds`` have passed.  Every report is checked (exit code, stderr,
digests, input descriptors, output oracle).  ``--trace 1`` instead runs
the command in-process with timing wrappers around each layer and reports
the per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

perfbench/README.md documents the workloads, the metrics and the
layer-to-metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import oracles
import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINNED = HERE / "pinned.json"

DEFAULT_SEED = 7
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
INVOCATION_TIMEOUT_S = 150
# per-layer metrics in these units are exact counts that must repeat across runs
EXACT_UNITS = ("count", "base_units")


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    users: int
    blocks: int
    command: tuple[str, ...]
    mixed_case: bool = False

    @property
    def report(self) -> str:
        return self.command[0]

    def synth_argv(self, seed: int, out: Path) -> list[str]:
        return ["synth", "--profile", self.profile, "--users", str(self.users),
                "--blocks", str(self.blocks), "--seed", str(seed), "--out", str(out)]

    def command_argv(self, data: Path, out: Path) -> list[str]:
        return [*self.command, "--data", str(data), "--out", str(out)]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("anonymity-mixed-8k", "mixed", 8000, 96000, ("anonymity", "--combine", "--tas")),
    Workload("flows-mixed-1.5k", "mixed", 1500, 18000, ("flows", "--distance", "2")),
    Workload("amlink-speculators-2k", "am-speculator:1,disciplined:1", 2000, 24000, ("am-link",)),
    Workload("relayers-checksum-8k", "mixed", 8000, 96000, ("relayers",), mixed_case=True),
)}


# ---------------------------------------------------------------------------
# environment and inputs


def environment() -> dict:
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.partition(":")[2].strip()
                break
    return {"commit": _git_commit(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu_model,
            "platform": platform.platform(),
            "file_cache": "inputs are read through the OS page cache; the "
                          "benchmark never drops or otherwise touches machine caches"}


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


ADDRESS_FIELDS = ("actor", "tx_sender", "relayer", "sender", "recipient",
                  "address", "owner", "assignee", "follower", "followed")


def mixed_case_copy(src: Path, dst: Path, seed: int) -> None:
    """Copy a dataset, re-encoding every address in mixed case with or
    without ``0x``, as real chain exports spell them.  Seeded."""
    rng = random.Random(f"mixed-case-{seed}")
    spelled: dict[tuple[str, int], str] = {}

    def encode(address: str) -> str:
        bits = rng.getrandbits(41)
        body = address[2:]
        parts = []
        for k in range(0, 40, 8):
            key = (body[k:k + 8], bits >> k & 0xFF)
            part = spelled.get(key)
            if part is None:
                part = spelled[key] = "".join(c.upper() if key[1] >> i & 1 else c
                                              for i, c in enumerate(key[0]))
            parts.append(part)
        return ("0x" if bits >> 40 else "") + "".join(parts)

    dst.mkdir(parents=True)
    for f in sorted(src.iterdir()):
        if f.suffix != ".jsonl":
            shutil.copyfile(f, dst / f.name)
            continue
        lines = []
        for record in oracles.read_jsonl(f):
            for key in ADDRESS_FIELDS:
                if isinstance(record.get(key), str):
                    record[key] = encode(record[key])
            lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
        (dst / f.name).write_text("".join(lines))


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def pinned_reports(workload: Workload, seed: int) -> dict | None:
    if seed != DEFAULT_SEED or not PINNED.is_file():
        return None
    return json.loads(PINNED.read_text())["reports"].get(workload.name)


# ---------------------------------------------------------------------------
# invocations


@dataclass
class Invocation:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """Runs ``python -m anonset.cli argv`` through the small helper in
    spawner.py, so each child's rusage is its own."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], logs: Path) -> Invocation:
        out_path, err_path = logs / "stdout.txt", logs / "stderr.txt"
        request = {"argv": [sys.executable, "-m", "anonset.cli", *argv],
                   "env": child_env(), "cwd": str(ROOT), "timeout": INVOCATION_TIMEOUT_S,
                   "stdout": str(out_path), "stderr": str(err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise SystemExit("error: the spawner helper exited")
        r = json.loads(answer)
        return Invocation(r["wall"], r["cpu"], r["rss_mb"], r["code"],
                          out_path.read_text(), err_path.read_text())


def in_process(cli, argv: list[str]) -> Invocation:
    """Run ``anonset.cli.main(argv)`` in this process, output captured."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return Invocation(time.perf_counter() - start, 0.0, 0.0, code,
                      out.getvalue(), err.getvalue())


class Checker:
    """Checks every invocation of a workload's command and counts failures."""

    def __init__(self, workload: Workload, facts: oracles.DatasetFacts,
                 expected: dict | None):
        self.workload = workload
        self.facts = facts
        self.expected = expected
        self.passed: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def flag(self, problem: str) -> None:
        """A problem of the run as a whole: it makes the run incorrect."""
        self.problems.append(problem)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"invocation {label}: " + "; ".join(problems[:5]))

    def check(self, label: str, inv: Invocation, out: Path) -> None:
        problems = []
        if inv.code != 0:
            problems.append(f"exit code {inv.code}")
        if "Traceback" in inv.stderr:
            problems.append("traceback on stderr")
        digests, body = {}, None
        for suffix in ("json", "txt"):
            f = out / f"{self.workload.report}.{suffix}"
            if f.is_file():
                data = f.read_bytes()
                digests[f.name] = hashlib.sha256(data).hexdigest()
                body = data if suffix == "json" else body
        if len(digests) != 2:
            problems.append(f"reports missing: found {sorted(digests)}")
        if not problems:
            if self.expected is None:
                self.expected = digests
            if digests != self.expected:
                problems.append(f"report digests {digests} != expected {self.expected}")
            problems += oracles.check_descriptors(self.facts, inv.stdout)
            # identical report bytes get the same verdict, so check them once
            key = json.dumps(digests, sort_keys=True)
            if key not in self.passed:
                found = oracles.ORACLES[self.workload.report](self.facts, json.loads(body))
                if not found:
                    self.passed.add(key)
                problems += found
        self.record(label, problems)


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# the two kinds of run


def prepare(workload: Workload, seed: int, work: Path, synth, expected: dict | None,
            spawner: Spawner) -> tuple[Path, Checker, list[float]]:
    """Generate the dataset ``SETUP_REPEATS`` times with ``synth(i, out)``,
    which returns an Invocation, and set up the checker for the command.
    ``expected`` holds the pinned report digests, if any."""
    setup_walls, digests = [], []
    setup_problems = []
    for i in range(SETUP_REPEATS):
        out = work / f"data-{i}"
        inv = synth(i, out)
        setup_walls.append(inv.wall)
        problems = []
        if inv.code != 0 or "Traceback" in inv.stderr:
            problems.append(f"synth exit code {inv.code}: {inv.stderr.strip()[-300:]}")
        else:
            digests.append(tree_digest(out))
            if digests[0] != digests[-1]:
                problems.append("synth output differs from the first setup run")
        setup_problems.append(problems)
    if not digests:
        raise SystemExit(f"error: synth failed: {setup_problems[0]}")
    data = work / "data-0"
    for i in range(1, SETUP_REPEATS):
        shutil.rmtree(work / f"data-{i}", ignore_errors=True)
    canonical_data = data
    if workload.mixed_case:
        data = work / "data-mixed"
        mixed_case_copy(canonical_data, data, seed)
    checker = Checker(workload, oracles.DatasetFacts(data), expected)
    for i, problems in enumerate(setup_problems):
        checker.record(f"setup-{i}", problems)
    if workload.mixed_case:
        # every mixed-case run must reproduce the canonical encoding's reports;
        # the oracles canonicalise addresses, so one set of facts serves both
        out = fresh(work / "reference")
        inv = spawner.run(workload.command_argv(canonical_data, out), work)
        checker.check("reference", inv, out)
    return data, checker, setup_walls


def run_plain(workload: Workload, seed: int, seconds: int, work: Path,
              expected: dict | None, spawner: Spawner) -> tuple[dict, Checker, dict]:
    """Times are scaled to the reference speed by a ``speed.Gauge``."""
    gauge = speed.Gauge()

    def synth(i, out):
        return gauge.scaled(lambda: spawner.run(workload.synth_argv(seed, out), work))

    data, checker, setup_walls = prepare(workload, seed, work, synth, expected, spawner)
    out = work / "reports"
    samples: list[Invocation] = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        fresh(out)
        inv = gauge.scaled(lambda: spawner.run(workload.command_argv(data, out), work))
        checker.check(f"run-{len(samples)}", inv, out)
        samples.append(inv)
    metrics = {
        "wall_s": statistics.median(s.wall for s in samples),
        "cpu_s": statistics.median(s.cpu for s in samples),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "setup_s": statistics.median(setup_walls),
    }
    raw = gauge.log[len(setup_walls):]
    detail = {"samples": len(samples), "setup_samples": len(setup_walls),
              "wall_s": [s.wall for s in samples], "cpu_s": [s.cpu for s in samples],
              "peak_rss_mb": [s.rss_mb for s in samples], "setup_s": setup_walls,
              "raw": {k: statistics.median(e[k] for e in raw) for k in raw[0]},
              "gauge_log": gauge.log}
    return metrics, checker, detail


def import_seconds() -> list[float]:
    code = ("import time; t = time.perf_counter(); import anonset.cli; "
            "print(time.perf_counter() - t)")
    out = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        out.append(float(done.stdout))
    return out


def run_traced(workload: Workload, seed: int, seconds: int, work: Path,
               expected: dict | None, spawner: Spawner,
               specs: list[dict]) -> tuple[dict, Checker, dict]:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import anonset.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "anonset").resolve():
        raise SystemExit(f"error: imported anonset from {cli.__file__}, not {SRC}")
    tracer = tracing.Tracer()

    def traced(run: str, argv: list[str]) -> Invocation:
        tracer.run = run
        tracer.install()
        try:
            return in_process(cli, argv)
        finally:
            tracer.uninstall()

    def synth(i, out):
        return traced(f"setup-{i}", workload.synth_argv(seed, out))

    data, checker, _ = prepare(workload, seed, work, synth, expected, spawner)
    imports = import_seconds()
    out = work / "reports"
    plain_walls, traced_walls, runs, report_bytes = [], [], [], []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        pair = len(runs)
        for with_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            fresh(out)
            argv = workload.command_argv(data, out)
            if with_trace:
                runs.append(f"cmd-{pair}")
                inv = traced(runs[-1], argv)
                traced_walls.append(inv.wall)
                report_bytes.append(sum(f.stat().st_size for f in out.iterdir()))
            else:
                inv = in_process(cli, argv)
                plain_walls.append(inv.wall)
            checker.check(f"{'traced' if with_trace else 'plain'}-{pair}", inv, out)

    per_run = []
    for run, size in zip(runs, report_bytes):
        seconds_by_span, calls = tracing.layer_totals(tracer.spans, run)
        values = {f"{n}_s": t for n, t in seconds_by_span.items()}
        values.update({f"{n}_calls": c for n, c in calls.items()})
        values.update(tracer.counts.get(run, Counter()))
        values["cli.self_s"] = values.pop("cli.main_s", 0.0)
        values["cli.report_bytes"] = size
        ingest = values.get("dataset.ingest_s", 0.0)
        values["dataset.records_per_s"] = values.get("dataset.records", 0) / ingest if ingest else 0.0
        solves = values.get("mining.solve_calls", 0)
        values["mining.exact_share"] = values.get("mining.exact", 0) / solves if solves else 0.0
        per_run.append(values)
    setup_runs = [f"setup-{i}" for i in range(SETUP_REPEATS)]
    setup_seconds = [tracing.layer_totals(tracer.spans, r)[0] for r in setup_runs]

    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name == "cli.import_s":
            metrics[name] = statistics.median(imports)
        elif name == "trace.overhead":
            metrics[name] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1
        elif name in ("synth.generate_s", "dataset.write_s"):
            span = name[:-2]
            metrics[name] = statistics.median(s.get(span, 0.0) for s in setup_seconds)
        else:
            values = [v.get(name, 0) for v in per_run]
            if spec["unit"] in EXACT_UNITS:
                if len(set(values)) != 1:
                    checker.flag(f"count {name} drifted across traced runs: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = float(statistics.median(values))
    detail = {"traced_runs": len(runs), "plain_wall_s": plain_walls,
              "traced_wall_s": traced_walls, "import_s": imports,
              "not_traced": sorted(tracer.missing)}
    tracer.write(work / "spans.jsonl")
    return metrics, checker, detail


# ---------------------------------------------------------------------------
# command line


def run_workload(workload: Workload, seed: int, seconds: int, trace: bool,
                 bench: dict, spawner: Spawner) -> dict:
    work = fresh(WORK / workload.name)
    expected = pinned_reports(workload, seed)
    if trace:
        metrics, checker, detail = run_traced(workload, seed, seconds, work, expected,
                                              spawner, bench["per_layer"])
    else:
        metrics, checker, detail = run_plain(workload, seed, seconds, work, expected,
                                             spawner)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}")
    for name, value in metrics.items():
        shown = f"{value:>16.6f}" if isinstance(value, float) else f"{value:>16}"
        print(f"  {name:<32} {shown} {units[name]}")
    if not trace:
        print(f"  wall_s, cpu_s, peak_rss_mb: median of {detail['samples']} invocations;"
              f" setup_s: median of {detail['setup_samples']} synth runs")
        raw = detail["raw"]
        print(f"  times above are scaled to a gauge time of {speed.REFERENCE_S} s; unscaled"
              f" medians: wall {raw['wall']:.6f} s, cpu {raw['cpu']:.6f} s, gauge wall"
              f" {raw['gauge_wall']:.6f} s, gauge cpu {raw['gauge_cpu']:.6f} s")
    elif detail["not_traced"]:
        print(f"  not traced, missing from the code: {', '.join(detail['not_traced'])}")
    print(f"  {'fail_ratio':<32} {checker.failed}/{checker.attempted} invocations"
          f" = {checker.failed / checker.attempted:.6f} ratio")
    for problem in checker.problems:
        print(f"  problem: {problem}")
    result = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(),
              "correct": not checker.problems, "attempted": checker.attempted,
              "failed": checker.failed, "problems": checker.problems,
              "metrics": metrics, "detail": detail}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2) + "\n")
    print("  environment " + json.dumps(result["environment"], sort_keys=True))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "anonset" / "cli.py").is_file():
        print(f"error: no anonset source under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    with Spawner() as spawner:
        results = [run_workload(WORKLOADS[n], args.seed, seconds, bool(args.trace),
                                bench, spawner) for n in names]
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": units[k.rpartition("/")[2]]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
