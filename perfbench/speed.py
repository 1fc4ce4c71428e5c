"""Scales measured times to a fixed reference speed of the machine.

On a shared host the speed of a CPU drifts by tens of percent over
minutes, as other tenants come and go, and both wall and CPU time of a
fixed task drift with it.  A run of the benchmark lasts well under a
minute, so runs made minutes apart see different machines.  The gauge
times a fixed pure-Python task (parse JSON lines, fold addresses, build
and sort dicts: the kind of work anonset does) right before and after
each measured invocation.  It scales the invocation's time by
``REFERENCE_S / gauge time``.  A scaled time reads as seconds on a machine
where the gauge task takes ``REFERENCE_S``, about this benchmark's 2-vCPU
Xeon host when it is quiet.

The task lives in the benchmark's files and never imports anonset, so a
change to the program moves the invocations' times and not the gauge's.
"""

from __future__ import annotations

import gc
import json
import random
import time
from dataclasses import replace

REFERENCE_S = 0.100
LINES = 20000
WARMUP = 2


def _lines() -> list[str]:
    rng = random.Random("perfbench-speed-gauge")
    lines = []
    for i in range(LINES):
        record = {"actor": f"0x{rng.getrandbits(160):040X}", "block": rng.randrange(10**6),
                  "amount": str(rng.getrandbits(60)), "pool": f"eth-{rng.randrange(4)}",
                  "kind": rng.choice(("deposit", "withdrawal")), "log_index": i}
        lines.append(json.dumps(record, sort_keys=True))
    return lines


class Gauge:
    """Times the fixed task between invocations and scales their times."""

    def __init__(self):
        self.lines = _lines()
        for _ in range(WARMUP):
            self.measure()
        self.last = self.measure()
        self.log: list[dict] = []

    def measure(self) -> tuple[float, float]:
        """Wall and CPU seconds of one pass of the fixed task."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            wall, cpu = time.perf_counter(), time.process_time()
            totals: dict[tuple[str, str], int] = {}
            by_pool: dict[str, list] = {}
            for line in self.lines:
                r = json.loads(line)
                actor = r["actor"].lower()
                key = (actor, r["pool"])
                totals[key] = totals.get(key, 0) + int(r["amount"])
                by_pool.setdefault(r["pool"], []).append((r["block"], r["log_index"], actor))
            for events in by_pool.values():
                events.sort()
            sorted(totals.items())
            return time.perf_counter() - wall, time.process_time() - cpu
        finally:
            if enabled:
                gc.enable()

    def scaled(self, call):
        """Run ``call()``, which returns an Invocation, between two gauge
        passes.  Return it with wall and CPU time scaled to the reference
        speed; the raw times and gauge times go to ``self.log``."""
        before = self.last
        inv = call()
        self.last = after = self.measure()
        gauge_wall = (before[0] + after[0]) / 2
        gauge_cpu = (before[1] + after[1]) / 2
        self.log.append({"wall": inv.wall, "cpu": inv.cpu,
                         "gauge_wall": gauge_wall, "gauge_cpu": gauge_cpu})
        return replace(inv, wall=inv.wall * REFERENCE_S / gauge_wall,
                       cpu=inv.cpu * REFERENCE_S / gauge_cpu)
