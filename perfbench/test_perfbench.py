"""Tests of the benchmark itself: its contract file, references, computed counts,
span arithmetic, failure handling, and counts that repeat exactly across runs.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from ffdigits.checks import CHECKS, PINNED_Q17_NO_ZERO  # noqa: E402
from ffdigits.polys import prime_count  # noqa: E402

REFS = json.loads((BENCH / "references.json").read_text())


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    assert spec["run_seconds"] == run.parse_args(["--workload", "census"]).seconds


def test_verify_grid_is_the_cli_battery():
    assert workloads.CHECK_IDS == tuple(CHECKS)
    for check_id, params in workloads.VERIFY_GRID.items():
        assert set(params) <= set(inspect.signature(CHECKS[check_id]).parameters)


def test_every_seeded_op_has_a_reference():
    assert REFS["count"]["17:0:5"] == PINNED_Q17_NO_ZERO[5]
    for workload in workloads.WORKLOADS:
        for seed in range(64):
            for op in workloads.build_ops(workload, seed):
                for n in op.get("ns", [op.get("n")]):
                    if "q" in op:
                        assert run.reference(op, REFS, n) is not None, op


def test_seed_draws_only_r():
    shape = lambda ops: [(op.get("q"), len(op.get("forbid", ())), op.get("n")) for op in ops]
    for workload in workloads.WORKLOADS:
        assert shape(workloads.build_ops(workload, 1)) == shape(workloads.build_ops(workload, 2))


def test_gauss_formula_matches_package():
    for q in (2, 3, 4, 8, 9, 17):
        for n in range(1, 13):
            assert workloads.prime_count(q, n) == prime_count(q, n)


def test_computed_counts_reproduce_known_shapes():
    assert workloads.window_points(7) == 102_600
    # lemma6 on the default grid p = 5, 7: 34,059,960 bound evaluations
    assert sum(workloads.window_points(p) * p * (p - 2) * 9 for p in (5, 7)) == 34_059_960
    verify = workloads.op_counts(workloads.build_ops("verify", 0)[0])
    assert verify["charsum.pointwise_bound_evals"] == 1_755_000 + 1_740_960
    census = {op["id"]: workloads.op_counts(op) for op in workloads.build_ops("census", 0)}
    assert census["count-q17-n5"]["census.sieve_columns"] == 289
    assert census["count-q17-n5"]["census.candidates"] == 16**5
    twenty = workloads.op_counts({"kind": "count", "q": 2, "forbid": [], "n": 20})
    assert twenty["census.sieve_columns"] == 1966
    scan = workloads.op_counts(workloads.build_ops("scan", 0)[0])
    assert scan["polys.rabin_tests"] == 9837


def test_self_time_subtracts_children():
    spans = [
        {"name": "checks.run_check", "arg": "lemma3", "start": 0.0, "end": 5.0, "parent": None},
        {"name": "circle.farey_enumerate", "arg": 5, "start": 1.0, "end": 3.0, "parent": 0},
        {"name": "laurent.frac_digits", "arg": 5, "start": 1.5, "end": 2.5, "parent": 1},
    ]
    m = run.span_metrics({"op": {"kind": "farey"}, "spans": spans, "result": None})
    assert m["checks.self_s"] == 3.0
    assert m["circle.self_s"] == 1.0
    assert m["laurent.self_s"] == 1.0
    assert m["checks.lemma3_s"] == 5.0


def test_timeout_kills_the_op_and_its_workers():
    (run.OUT / "tmp").mkdir(parents=True, exist_ok=True)
    hang = (
        "import subprocess, sys, time\n"
        "worker = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(30)'])\n"
        "print(worker.pid, flush=True)\n"
        "time.sleep(30)\n"
    )
    res = run.run_process([sys.executable, "-c", hang], 1.0)
    assert res["timed_out"] and res["wall_s"] < 15
    with pytest.raises(ProcessLookupError):
        os.kill(int(res["stdout"]), 0)


def test_wrong_output_fails_the_op():
    op = {"id": "x", "kind": "count", "q": 17, "forbid": [0], "n": 5, "workers": 1}
    run_ok = {"timed_out": False, "returncode": 0, "stdout": f"{PINNED_Q17_NO_ZERO[5]}\n", "stderr": ""}
    assert run.check_output(op, run_ok, REFS)[0] is None
    run_bad = dict(run_ok, stdout="222561\n")
    assert run.check_output(op, run_bad, REFS)[0]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_work_counts_repeat_exactly():
    for workload in ("identity", "verify"):
        first, second = _traced(workload, 1), _traced(workload, 2)
        for result in (first, second):
            assert result["correct"] and result["failed"] == 0
            assert set(result["metrics"]) == set(run.PER_LAYER)
        counts = [name for name, unit in run.PER_LAYER.items() if unit == "count"]
        assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
        assert first["metrics"]["trace.overhead_s"]["unit"] == "s"


def test_no_op_starts_that_could_outlive_the_run_limit():
    runner = run.Runner(REFS, started=time.perf_counter() - run.RUN_LIMIT_S)
    ops = workloads.build_ops("census", 1)
    assert not runner.can_start()
    assert run.run_passes(ops, 30.0, runner, None) == 0
    assert runner.executions == []
