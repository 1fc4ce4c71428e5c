#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

Run from the repository root:

    python3 perfbench/selftest.py

It shows that each output oracle accepts a genuine report and rejects the
same report with one number altered, and that self time is computed
correctly on a hand-built span tree and on spans recorded by real
wrappers, and that the speed gauge scales times as documented.  Exits 0
when every check passes, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys

import oracles
import run
import speed
import tracing

def close(a: float, b: float) -> bool:
    return abs(a - b) < 1e-9


def self_time_on_hand_built_tree():
    S = tracing.Span
    spans = [
        S(0, "root", 0.0, 10.0, None, "r"),
        S(1, "a", 1.0, 4.0, 0, "r"),      # overlaps b: the union [1, 6] counts once
        S(2, "b", 3.0, 6.0, 0, "r"),
        S(3, "a.child", 2.0, 3.0, 1, "r"),
        S(4, "c", 8.0, 12.0, 0, "r"),     # clipped to the parent's end at 10
        S(5, "root", 0.0, 1.0, None, "other-run"),
    ]
    selfs = tracing.self_times(spans)
    expected = {0: 10 - 5 - 2, 1: 3 - 1, 2: 3, 3: 1, 4: 4, 5: 1}
    yield (all(close(selfs[i], v) for i, v in expected.items()),
           f"self time on a hand-built tree: {selfs} == {expected}")
    seconds, calls = tracing.layer_totals(spans, "r")
    yield (close(seconds["root"], 3) and calls["root"] == 1 and calls["a"] == 1,
           f"layer totals keep runs apart: {seconds}, {dict(calls)}")


def self_time_from_wrappers():
    tracer = tracing.Tracer()
    clock = iter(range(100))
    tracing.perf_counter, real = (lambda: float(next(clock))), tracing.perf_counter
    try:
        leaf = tracer.wrap("leaf", lambda: None)
        outer = tracer.wrap("outer", lambda: (leaf(), leaf()))
        tracer.run = "w"
        outer()
    finally:
        tracing.perf_counter = real
    # clock: outer 0..5, leaf 1..2, leaf 3..4 -> outer self = 5 - 2
    by_name = {s.name: s for s in tracer.spans}
    seconds, calls = tracing.layer_totals(tracer.spans, "w")
    yield (by_name["leaf"].parent == by_name["outer"].id and calls["leaf"] == 2
           and close(seconds["outer"], 3) and close(seconds["leaf"], 2),
           f"wrapped calls nest and give self time: {seconds}")
    gone = tracing.Tracer()
    gone.install([("tracing", "no_such_function", "x", None, None),
                  ("tracing:NoSuchClass", "method", "y", None, None)])
    yield (gone.missing == {"tracing.no_such_function", "tracing:NoSuchClass.method"}
           and not gone._restore, f"missing patch targets are skipped: {sorted(gone.missing)}")


def gauge_scales_to_reference_speed():
    gauge = speed.Gauge()
    gauge.last = (0.2, 0.25)
    gauge.measure = lambda: (0.4, 0.25)
    inv = gauge.scaled(lambda: run.Invocation(3.0, 2.0, 50.0, 0, "", ""))
    # the gauge took 0.3 s of wall and 0.25 s of CPU around the call on average
    want = (3.0 * speed.REFERENCE_S / 0.3, 2.0 * speed.REFERENCE_S / 0.25)
    yield (close(inv.wall, want[0]) and close(inv.cpu, want[1]) and inv.rss_mb == 50.0
           and gauge.log[-1]["wall"] == 3.0 and gauge.last == (0.4, 0.25),
           f"times scale by the gauge around the call: {inv.wall, inv.cpu} == {want}")


def _bump_observed(report: dict) -> None:
    report["pools"][0]["observed"] += 1


def _bump_uncovered_inflow(report: dict) -> None:
    pool = report["pools"][0]
    pool["uncovered_inflow"] = str(int(pool["uncovered_inflow"]) + 1)


def _bump_solution_block(report: dict) -> None:
    exact = next(o for o in report["claimants"] if o.get("status") == "exact")
    exact["solutions"][0][0] += 1


def _bump_relayed(report: dict) -> None:
    report["pools"][0]["relayed_withdrawals"] += 1


def oracles_reject_one_altered_number():
    sys.path.insert(0, str(run.SRC))
    import anonset.cli as cli

    work = run.fresh(run.WORK / "selftest")
    cases = [
        (run.Workload("a", "mixed", 160, 1920, ("anonymity", "--combine", "--tas")),
         _bump_observed),
        (run.Workload("f", "mixed", 160, 1920, ("flows", "--distance", "2")),
         _bump_uncovered_inflow),
        (run.Workload("m", "am-speculator:1,disciplined:1", 160, 1920, ("am-link",)),
         _bump_solution_block),
        (run.Workload("r", "mixed", 160, 1920, ("relayers",), mixed_case=True),
         _bump_relayed),
    ]
    for workload, alter in cases:
        data = work / f"{workload.name}-data"
        run.in_process(cli, workload.synth_argv(7, data))
        if workload.mixed_case:
            run.mixed_case_copy(data, work / f"{workload.name}-mixed", 7)
            data = work / f"{workload.name}-mixed"
        out = work / f"{workload.name}-out"
        inv = run.in_process(cli, workload.command_argv(data, out))
        facts = oracles.DatasetFacts(data)
        oracle = oracles.ORACLES[workload.report]
        report = json.loads((out / f"{workload.report}.json").read_text())
        genuine = oracle(facts, report) + oracles.check_descriptors(facts, inv.stdout)
        yield (inv.code == 0 and not genuine,
               f"{workload.report}: genuine report accepted {genuine}")
        altered = copy.deepcopy(report)
        alter(altered)
        rejected = oracle(facts, altered)
        yield bool(rejected), f"{workload.report}: one altered number rejected {rejected[:1]}"


def main() -> int:
    failed = 0
    for test in (self_time_on_hand_built_tree, self_time_from_wrappers,
                 gauge_scales_to_reference_speed, oracles_reject_one_altered_number):
        for ok, what in test():
            print(f"{'PASS' if ok else 'FAIL'}  {what}")
            failed += not ok
    print(f"{failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
