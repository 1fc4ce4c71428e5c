#!/usr/bin/env python3
"""Rewrite perfbench/pinned.json with every workload's report digests at
the default seed.

Run from the repository root, only when a change is meant to alter the
reports:

    python3 perfbench/pin.py

The benchmark compares every report it checks at the default seed with
these digests, so a change that alters a report byte shows as a failure.
"""

from __future__ import annotations

import json

import run


def main() -> int:
    reports = {}
    with run.Spawner() as spawner:
        for workload in run.WORKLOADS.values():
            work = run.fresh(run.WORK / workload.name)
            _, checker, _ = run.run_plain(workload, run.DEFAULT_SEED, 0, work, None, spawner)
            if checker.problems:
                print(f"{workload.name}: not pinned: {checker.problems}")
                return 1
            reports[workload.name] = checker.expected
            print(f"{workload.name}: {checker.expected}")
    run.PINNED.write_text(json.dumps({"seed": run.DEFAULT_SEED, "reports": reports},
                                     indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
