"""Benchmark for ffdigits: four workloads of ops run by a closed loop with one client.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src. Every op
runs in a fresh interpreter, the way a CLI user pays for cold module caches.
run.py repeats passes over the workload's ops while another pass still
fits in --seconds (at least one pass), and reports per-op medians.

--trace 0 prints the end-to-end metrics: wall_s (one pass, the sum of per-op
median wall times), work_per_s (the workload's work units per second of
wall_s), setup_s (median start of a fresh interpreter that imports ffdigits
and builds the workload's fields; the starts are spread over the run, before
its ops) and peak_rss_mb (largest per-op median peak
RSS, pool workers included, from wait4).

--trace 1 alternates each untraced op with a traced copy that spans every call
into the package, runs the probes once, and prints the per-layer metrics:
span times, layer self times, exact work counts (computed from the op shapes,
except census.chunks and checks.*_cases, which the program reports), and
trace.overhead_s (traced pass minus untraced pass).

Every op's output is checked against a reference it does not compute itself;
a mismatch, nonzero exit or timeout is a failed op. The last stdout line is
{"correct", "attempted", "failed", "metrics"}. Details, provenance and spans
go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import (
    CHECK_IDS,
    WORKLOADS,
    build_ops,
    op_counts,
    prime_count,
    probes,
    ref_key,
    window_points,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

OP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 165.0  # no op may run past this point of a run
SETUP_STARTS_PER_PASS = 4  # spread over a pass's ops, at least one before each

# Fields each workload's set-up builds: those its ops use.
VERIFY_FIELDS = (2, 3, 4, 5, 7, 17)

END_TO_END = {
    "wall_s": "s",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# work_per_s counts these units; the alias is the name the unit's rate goes by.
WORK_UNIT = {
    "census": ("candidates_per_s", "candidate polynomials sieved, sum (q-|R|)^n"),
    "scan": ("candidates_per_s", "candidate polynomials sieved, sum (q-|R|)^n"),
    "identity": ("points_per_s", "orthogonality sample points, sum q^(n+1)"),
    "verify": ("cases_per_s", "check cases reported by the battery"),
}

LAYERS = ("field", "polys", "census", "circle", "laurent", "charsum", "checks")

# span name -> per-layer metric holding its total duration
SPAN_METRICS = {
    "field.get_field": "field.tables_s",
    "polys.irreducible_polys": "polys.irreducible_polys_s",
    "census.count_restricted": "census.count_s",
    "circle.orthogonality_count": "circle.orthogonality_count_s",
    "circle.farey_enumerate": "circle.farey_enumerate_s",
    "laurent.frac_digits": "laurent.frac_digits_s",
}

PER_LAYER = {
    "field.tables_s": "s",
    "polys.irreducible_polys_s": "s",
    "polys.rabin_tests": "count",
    "polys.irreducible_yield": "ratio",
    "census.count_s": "s",
    "census.candidates": "count",
    "census.chunks": "count",
    "census.sieve_columns": "count",
    "census.kernel_madds_upper": "count",
    "census.scan_s": "s",
    "census.scan_w1_s": "s",
    "census.parallel_efficiency": "ratio",
    "circle.orthogonality_count_s": "s",
    "circle.orth_points": "count",
    "circle.orth_inner_ops": "count",
    "circle.farey_enumerate_s": "s",
    "circle.farey_points": "count",
    "laurent.frac_digits_s": "s",
    "laurent.frac_digits_calls": "count",
    "charsum.pointwise_bound_evals": "count",
    **{f"checks.{cid}_s": "s" for cid in CHECK_IDS},
    **{f"checks.{cid}_cases": "count" for cid in CHECK_IDS},
    "checks.pointwise_bound_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}

# Counts the program reports: chunks from the census engine's own chunk size,
# cases from the battery. The other counts are computed from the op shapes.
REPORTED_COUNTS = ("census.chunks",) + tuple(f"checks.{cid}_cases" for cid in CHECK_IDS)
COMPUTED_COUNTS = tuple(
    name for name, unit in PER_LAYER.items() if unit == "count" and name not in REPORTED_COUNTS
)


# ---------------------------------------------------------------------------
# child processes

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(OUT / "tmp")
    env.pop("FFDIGITS_WORKERS", None)
    return env


def _wait_group_gone(pgid: int, limit: float = 10.0):
    """Wait for killed pool workers, which are not our children, to be gone."""
    deadline = time.monotonic() + limit
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_process(argv: list, timeout: float) -> dict:
    """Run argv in its own process group; kill the group on timeout.

    Returns wall time, peak RSS of the child and its reaped descendants
    (wait4 rusage), exit code and output.
    """
    with tempfile.TemporaryFile(dir=OUT / "tmp") as out, tempfile.TemporaryFile(
        dir=OUT / "tmp"
    ) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err, start_new_session=True
        )
        timed_out = True
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([pidfd], [], [], max(timeout, 0.0))[0]
            finally:
                os.close(pidfd)
        finally:
            if timed_out:
                os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            if timed_out:
                _wait_group_gone(proc.pid)
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        return {
            "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024,
            "returncode": proc.returncode,
            "timed_out": timed_out,
            "stdout": out.read().decode(errors="replace"),
            "stderr": err.read().decode(errors="replace")[-2000:],
        }


def _via_cli(op: dict) -> bool:
    return op["kind"] in ("count", "scan") and not op.get("trace")


def op_argv(op: dict) -> list:
    """CLI invocation for untraced count/scan ops; op.py for everything else."""
    py = sys.executable
    if _via_cli(op):
        degrees = f"{op['n']}" if op["kind"] == "count" else f"{op['ns'][0]}:{op['ns'][-1]}"
        return [
            py, "-m", "ffdigits.cli", op["kind"],
            "--q", str(op["q"]),
            "--forbid", ",".join(str(c) for c in op["forbid"]),
            "--n", degrees,
            "--workers", str(op["workers"]),
        ]
    return [py, str((BENCH / "op.py").relative_to(ROOT)), json.dumps(op)]


# ---------------------------------------------------------------------------
# correctness

def reference(op: dict, refs: dict, n: int) -> int | None:
    """Exact count recorded at the defining commit, or Gauss's formula for R empty."""
    if not op["forbid"]:
        return prime_count(op["q"], n)
    return refs["count"].get(ref_key(op["q"], op["forbid"], n))


def _parse_scan_table(text: str) -> dict:
    rows = {}
    for line in text.splitlines()[1:]:
        fields = line.split()
        if len(fields) >= 2 and fields[0].isdigit():
            rows[fields[0]] = int(fields[1]) if fields[1].isdigit() else None
    return rows


def check_output(op: dict, run: dict, refs: dict) -> tuple:
    """(error or None, parsed result, spans) for one op execution."""
    if run["timed_out"]:
        return f"timed out after {run['wall_s']:.1f} s", None, []
    if run["returncode"] != 0:
        return f"exit code {run['returncode']}: {run['stderr'].strip()[-300:]}", None, []
    lines = run["stdout"].strip().splitlines()
    if not lines:
        return "no output", None, []
    spans = []
    try:
        if _via_cli(op) and op["kind"] == "count":
            result = {"count": int(lines[-1])}
        elif _via_cli(op):
            result = {"exact": _parse_scan_table(run["stdout"])}
        else:
            payload = json.loads(lines[-1])
            result, spans = payload["result"], payload["spans"]
    except (ValueError, KeyError) as exc:
        return f"unparsable output: {exc}", None, []
    kind = op["kind"]
    if kind == "count":
        want = reference(op, refs, op["n"])
        got = result["count"]
    elif kind == "scan":
        want = {str(n): reference(op, refs, n) for n in op["ns"]}
        got = result["exact"]
    elif kind == "identity":
        want = reference(op, refs, op["n"])
        got = result["orth"]
        if result["orth"] != result["census"]:
            return f"engines disagree: orth {result['orth']}, census {result['census']}", result, spans
    elif kind == "verify":
        failed = [c for c, r in result["checks"].items() if not r["passed"]]
        want, got = [], failed
    elif kind == "farey":
        want = {str(q): window_points(q) for q in op["qs"]}
        got = result["points"]
    else:
        return None, result, spans
    if got != want:
        return f"got {got}, expected {want}", result, spans
    return None, result, spans


# ---------------------------------------------------------------------------
# measurement

class Runner:
    """Runs ops against the run's time limit and keeps every execution."""

    def __init__(self, refs: dict, started: float):
        self.refs = refs
        self.started = started
        self.executions: list = []

    def can_start(self) -> bool:
        """Whether an op started now ends, even at its timeout, within the run limit."""
        return RUN_LIMIT_S - (time.perf_counter() - self.started) >= OP_TIMEOUT_S

    def __call__(self, op: dict) -> dict:
        run = run_process(op_argv(op), OP_TIMEOUT_S)
        error, result, spans = check_output(op, run, self.refs)
        execution = {
            "op": op,
            "wall_s": run["wall_s"],
            "rss_mb": run["rss_mb"],
            "error": error,
            "result": result,
            "spans": spans,
        }
        self.executions.append(execution)
        return execution


class Setup:
    """Fresh interpreters that import ffdigits and build the workload's fields."""

    def __init__(self, workload: str, ops: list):
        qs = VERIFY_FIELDS if workload == "verify" else sorted({op["q"] for op in ops})
        self.argv = op_argv({"id": "setup", "kind": "setup", "qs": list(qs)})
        self.walls: list = []
        self.versions: dict = {}

    def start(self):
        run = run_process(self.argv, OP_TIMEOUT_S)
        if run["returncode"] != 0 or run["timed_out"]:
            raise RuntimeError(f"set-up failed: {run['stderr'].strip()[-500:]}")
        self.walls.append(run["wall_s"])
        self.versions = json.loads(run["stdout"].strip().splitlines()[-1])["result"]


def run_passes(ops: list, seconds: float, runner: Runner, setup: Setup | None) -> int:
    """Repeat passes while another one fits in `seconds`; at least one.

    A traced run (setup None) follows each op with its traced copy; an
    untraced one precedes each op with set-up starts. A pass stops early if
    its next op might not end within the run limit.
    """
    starts_per_op = max(1, SETUP_STARTS_PER_PASS // len(ops))
    started = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for op in ops:
            if not runner.can_start():
                return passes
            if setup:
                for _ in range(starts_per_op):
                    setup.start()
            runner(op)
            if not setup:
                runner(dict(op, trace=True))
        passes += 1
        now = time.perf_counter()
        if now - started + (now - pass_start) > seconds:
            return passes


def _exec_key(execution: dict) -> str:
    op = execution["op"]
    return op["id"] + (" traced" if op.get("trace") and not op.get("probe") else "")


def _median_by_op(executions: list, value) -> dict:
    grouped: dict = {}
    for ex in executions:
        grouped.setdefault(_exec_key(ex), []).append(value(ex))
    return {op_id: statistics.median(vals) for op_id, vals in grouped.items()}


def _work(workload: str, ops: list, executions: list) -> float:
    if workload in ("census", "scan"):
        return sum(op_counts(op)["census.candidates"] for op in ops)
    if workload == "identity":
        return sum(op_counts(op)["circle.orth_points"] for op in ops)
    cases = _median_by_op(
        executions,
        lambda ex: sum(c["cases"] for c in ex["result"]["checks"].values()) if ex["result"] else 0,
    )
    return sum(cases.values())


def end_to_end(workload: str, ops: list, executions: list, setup_s: float) -> dict:
    wall = sum(_median_by_op(executions, lambda ex: ex["wall_s"]).values())
    return {
        "wall_s": wall,
        "work_per_s": _work(workload, ops, executions) / wall,
        "setup_s": setup_s,
        "peak_rss_mb": max(_median_by_op(executions, lambda ex: ex["rss_mb"]).values()),
    }


def span_metrics(execution: dict) -> dict:
    """Span totals and layer self times (duration minus child spans) of one execution."""
    spans = execution["spans"]
    metrics = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] is not None:
            child_time[sp["parent"]] += sp["end"] - sp["start"]
    for sp, children in zip(spans, child_time):
        duration = sp["end"] - sp["start"]
        metrics[sp["name"].split(".")[0] + ".self_s"] += duration - children
        if sp["name"] == "checks.run_check":
            metrics[f"checks.{sp['arg']}_s"] += duration
        elif sp["name"] == "census.census_report":
            key = "census.scan_w1_s" if execution["op"].get("probe") else "census.scan_s"
            metrics[key] += duration
        elif sp["name"] in SPAN_METRICS:
            metrics[SPAN_METRICS[sp["name"]]] += duration
    if execution["op"]["kind"] == "verify" and execution["result"]:
        for cid, check in execution["result"]["checks"].items():
            metrics[f"checks.{cid}_cases"] = check["cases"]
    return metrics


def per_layer(ops: list, executions: list) -> dict:
    traced = [ex for ex in executions if ex["op"].get("trace")]
    traced_ops = [ex for ex in traced if not ex["op"].get("probe")]
    values = {id(ex): span_metrics(ex) for ex in traced}
    metrics = {
        name: sum(_median_by_op(traced, lambda ex: values[id(ex)][name]).values())
        for name in PER_LAYER
    }
    for name in ("checks.{}_cases".format(cid) for cid in CHECK_IDS):
        metrics[name] = int(metrics[name])
    counts: dict = {}
    for op in ops:
        for name, value in op_counts(op).items():
            counts[name] = counts.get(name, 0) + value
    for name in COMPUTED_COUNTS:
        metrics[name] = counts.get(name, 0)
    chunks = _median_by_op(
        traced_ops, lambda ex: ex["result"].get("chunks", 0) if ex["result"] else 0
    )
    metrics["census.chunks"] = int(sum(chunks.values()))
    tests = counts.get("polys.rabin_tests", 0)
    found = counts.get("polys.irreducibles_found", 0)
    metrics["polys.irreducible_yield"] = found / tests if tests else 0.0
    w2 = metrics["census.scan_s"]
    metrics["census.parallel_efficiency"] = metrics["census.scan_w1_s"] / (2 * w2) if w2 else 0.0
    metrics["checks.pointwise_bound_s"] = (
        metrics["checks.lemma3_s"] + metrics["checks.lemma6_s"]
        - metrics["circle.farey_enumerate_s"] - metrics["laurent.frac_digits_s"]
    )
    plain = [ex for ex in executions if not ex["op"].get("trace")]
    metrics["trace.overhead_s"] = sum(
        _median_by_op(traced_ops, lambda ex: ex["wall_s"]).values()
    ) - sum(_median_by_op(plain, lambda ex: ex["wall_s"]).values())
    return metrics


# ---------------------------------------------------------------------------
# provenance and output

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
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
    return None


def provenance(args, ops: list, versions: dict, passes: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "git_commit": _git_commit(),
        "work_unit": WORK_UNIT[args.workload][1],
        "ops": [" ".join(op_argv(op)[1:]) for op in ops],
    }


def print_report(workload: str, executions: list, e2e: dict, layers: dict | None):
    """Per-op medians, then every metric by name with its unit."""
    print(f"{'op':<34} {'samples':>7} {'median_s':>10}")
    for key, wall in _median_by_op(executions, lambda ex: ex["wall_s"]).items():
        samples = sum(1 for ex in executions if _exec_key(ex) == key)
        print(f"{key:<34} {samples:>7} {wall:>10.3f}")
    failed = sum(1 for ex in executions if ex["error"])
    rows = [(name, value, END_TO_END[name], "") for name, value in e2e.items()]
    rows.append((f"{WORK_UNIT[workload][0]} (= work_per_s)", e2e["work_per_s"], "1/s", ""))
    rows.append(("failed_op_ratio", failed / len(executions), "ratio", ""))
    for name, value in (layers or {}).items():
        label = " (computed)" if name in COMPUTED_COUNTS else " (reported)" if name in REPORTED_COUNTS else ""
        rows.append((name, value, PER_LAYER[name], label))
    print(f"{'metric':<40} {'value':>18} unit")
    for name, value, unit, label in rows:
        print(f"{name:<40} {value:>18.6g} {unit}{label}")
    for ex in executions:
        if ex["error"]:
            print(f"FAILED {_exec_key(ex)}: {ex['error']}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)  # BENCHMARK.json run_seconds
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "ffdigits" / "cli.py").is_file():
        print(f"error: no package at {SRC / 'ffdigits'}; run from a checkout", file=sys.stderr)
        return 2
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    refs = json.loads((BENCH / "references.json").read_text())
    ops = build_ops(args.workload, args.seed)
    runner = Runner(refs, started)
    setup = Setup(args.workload, ops)
    try:
        setup.start()
        passes = run_passes(ops, args.seconds, runner, None if args.trace else setup)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    layers = None
    if args.trace:
        for probe in probes(args.workload, ops):
            if runner.can_start():
                runner(probe)
            else:
                runner.executions.append({
                    "op": probe, "wall_s": 0.0, "rss_mb": 0.0, "result": None, "spans": [],
                    "error": "not started: it might not end within the run limit",
                })
    plain = [ex for ex in runner.executions if not ex["op"].get("trace")]
    e2e = end_to_end(args.workload, ops, plain, statistics.median(setup.walls))
    if args.trace:
        layers = per_layer(ops, runner.executions)
    prov = provenance(args, ops, setup.versions, passes)
    prov["setup_starts"] = len(setup.walls)
    print_report(args.workload, runner.executions, e2e, layers)
    print("provenance " + json.dumps(prov, sort_keys=True))

    failed = sum(1 for ex in runner.executions if ex["error"])
    attempted = len(runner.executions)
    shown = layers if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": shown[name], "unit": units[name]} for name in units},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "provenance": prov,
        "failed_op_ratio": failed / attempted,
        "end_to_end": e2e,
        "per_layer": layers,
        "executions": [{k: v for k, v in ex.items() if k != "spans"} for ex in runner.executions],
    }, indent=1, default=str))
    if args.trace:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for i, ex in enumerate(runner.executions):
                for sp in ex["spans"]:
                    fh.write(json.dumps(dict(sp, op=f"{ex['op']['id']}#{i}")) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
