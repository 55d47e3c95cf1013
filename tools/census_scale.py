"""Wall time, peak RSS and minor page faults of `ffdigits count` at census
shapes larger than the benchmark's, each in a fresh interpreter: five with one
worker, and q=17 R={0} n=6 again with two, which measures what the census
threads gain.

    python3 tools/census_scale.py

Run from the root of a checkout; the package is imported from ./src.  The peak
RSS is the child's ru_maxrss from wait4, in MiB like perfbench's peak_rss_mb,
and minor_faults its ru_minflt, the pages it faulted in without reading a file.
Prints one JSON line per shape: its label, its worker count, the count it
printed, wall_s, peak_rss_mb and minor_faults.  The shapes need about 0.3 s to
25 s and 40 to 400 MB each.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (label, workers, count arguments); q=3 n=22 needs twice the default budget,
# q=2 R={} n=24 marks every degree through inverted tables of 4096 low rows, and
# q=31 R={0} n=5 is a shape where the circle method's error budget is below 1
# (q >= 29), near the default budget's limit, and marked at both degrees;
# q=101 R={0} n=4, deeper in that regime, needs twice the default budget for
# its 1.04e8 table entries (counted over all 100^4 candidates, though the orbit
# census sieves the 100^3 with c_3 = 1)
SHAPES = [
    ("q=17 R={0} n=6", 1, ["--q", "17", "--forbid", "0", "--n", "6"]),
    ("q=17 R={0} n=6", 2, ["--q", "17", "--forbid", "0", "--n", "6"]),
    ("q=3 R={0} n=20", 1, ["--q", "3", "--forbid", "0", "--n", "20"]),
    ("q=3 R={0} n=22 budget 2e8", 1, ["--q", "3", "--forbid", "0", "--n", "22", "--budget", "200000000"]),
    ("q=2 R={} n=24", 1, ["--q", "2", "--n", "24"]),
    ("q=31 R={0} n=5", 1, ["--q", "31", "--forbid", "0", "--n", "5"]),
    ("q=101 R={0} n=4 budget 2e8", 1, ["--q", "101", "--forbid", "0", "--n", "4", "--budget", "200000000"]),
]


def run_count(workers: int, args: list) -> dict:
    """One `ffdigits count` in a fresh interpreter: its output, wall time, peak RSS
    and minor page faults."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-m", "ffdigits.cli", "count", "--workers", str(workers), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.stdout.close()
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with status {status}")
    return {
        "count": int(out),
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 2),
        "minor_faults": usage.ru_minflt,
    }


def main() -> int:
    for label, workers, count_args in SHAPES:
        row = {"shape": label, "workers": workers, **run_count(workers, count_args)}
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
