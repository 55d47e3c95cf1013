"""Run the benchmark as two interleaved sets of seeds and record how well they agree.

    python3 perfbench/steadiness.py [--workloads census,verify] [--first-seed 1]

For each workload, set A runs seeds first..first+9 and set B the next ten;
the runs alternate A, B, A, B, ... so that both sets see the same host load.
Each run lasts BENCHMARK.json's run_seconds. Per metric and set, the record
holds the median, the spread (the distance between the first and third
quartile, statistics.quantiles(values, n=4), as a share of the median) and the
raw values, plus the shift of set B's median from set A's. Each invocation
appends one record to perfbench/STEADINESS.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10  # per set


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return dict(json.loads(out.stdout.strip().splitlines()[-1]),
                run_s=time.perf_counter() - started)


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "spread": (q3 - q1) / median, "values": values}


def summarize_set(runs: list, seeds: list) -> dict:
    return {
        "seeds": seeds,
        "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs),
        "max_run_s": max(r["run_s"] for r in runs),
        "metrics": {
            name: summarize([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        },
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="census,scan,identity,verify")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    path = BENCH / "STEADINESS.json"
    record = json.loads(path.read_text()) if path.exists() else {"records": []}
    results: dict = {}
    record["records"].append({
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seconds": seconds,
        "workloads": results,
    })
    for workload in args.workloads.split(","):
        seeds = [list(range(args.first_seed + k * RUNS, args.first_seed + (k + 1) * RUNS))
                 for k in (0, 1)]
        runs: list = [[], []]
        for i in range(RUNS):
            for k in (0, 1):
                runs[k].append(run_once(workload, seeds[k][i], seconds))
        sets = [summarize_set(runs[k], seeds[k]) for k in (0, 1)]
        shift = {
            name: sets[1]["metrics"][name]["median"] / sets[0]["metrics"][name]["median"] - 1
            for name in sets[0]["metrics"]
        }
        results[workload] = {"sets": sets, "shift": shift}
        for name in shift:
            a, b = (s["metrics"][name] for s in sets)
            print(f"{workload:<9} {name:<12} A {a['median']:<11.5g} spread {a['spread']:.3f}"
                  f"  B {b['median']:<11.5g} spread {b['spread']:.3f}  shift {shift[name]:+.3f}",
                  flush=True)
        path.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
