"""Runs the benchmark's child processes from a process that stays small.

On Linux a child's ``ru_maxrss`` starts from the peak RSS of the process
that spawned it: exec records the old address space's high-water mark.
The benchmark holds dataset facts in memory, so children it spawned
itself would report the benchmark's peak instead of their own.  This
helper is started before the benchmark loads anything and stays small.
It reads one JSON request per line on stdin, runs the command, and answers
with one JSON line: wall time, CPU time, peak RSS and exit code, all from
the child's own ``wait4`` rusage.  It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "w") as out, open(request["stderr"], "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                    env=request["env"], cwd=request["cwd"])
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                          "rss_mb": usage.ru_maxrss / 1024, "code": proc.returncode}),
              flush=True)


if __name__ == "__main__":
    main()
