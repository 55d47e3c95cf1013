"""Run one benchmark op in a fresh interpreter and print its result as JSON.

    python3 perfbench/op.py '<op json>'

The op dict comes from workloads.build_ops / probes, plus "trace": true for a
traced op. A traced op wraps a span around each call it makes into a public
function of the package; the spans are printed with the result on the last
line of stdout: {"result": ..., "spans": [...]}. Each span records its name,
argument, start, end and parent (an index into the list). The package must be
importable, e.g. with PYTHONPATH=src.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

from workloads import CHECK_IDS, POINTWISE_D_MAX, POINTWISE_N_MAX, VERIFY_GRID


class Tracer:
    """In-memory span recorder; spans are read once the op has finished."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str, arg=None):
        if not self.enabled:
            yield
            return
        record = {
            "name": name,
            "arg": arg,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def build_field(tr: Tracer, q: int):
    """get_field for F_q plus the first touch of its dense tables (extension fields only)."""
    from ffdigits import FieldSpec, get_field

    with tr.span("field.get_field", q):
        spec = FieldSpec.from_q(q)
        field = get_field(spec.p, spec.k, spec.modulus)
        if field.k > 1:
            field.mul_table, field.add_table, field.trace_table
    return field


def restricted(tr: Tracer, field, forbid):
    from ffdigits import RestrictedSet

    with tr.span("charsum.RestrictedSet", len(forbid)):
        return RestrictedSet(field, frozenset(forbid))


def census_chunks(R, n: int) -> int:
    """Chunks count_restricted splits degree n into, by the engine's own chunk size."""
    from ffdigits import census

    return -(-((R.spec.q - R.s) ** n) // census._CHUNK)


def run_setup(tr: Tracer, op: dict) -> dict:
    import numpy

    for q in op["qs"]:
        build_field(tr, q)
    return {"numpy": numpy.__version__, "python": sys.version.split()[0]}


def run_count(tr: Tracer, op: dict) -> dict:
    from ffdigits import count_restricted
    from ffdigits.polys import irreducible_polys

    field = build_field(tr, op["q"])
    R = restricted(tr, field, op["forbid"])
    n = op["n"]
    for d in range(1, n // 2 + 1):
        with tr.span("polys.irreducible_polys", d):
            irreducible_polys(field, d)
    with tr.span("census.count_restricted", n):
        count = count_restricted(R, n, workers=op["workers"])
    return {"count": count, "chunks": census_chunks(R, n)}


def run_identity(tr: Tracer, op: dict) -> dict:
    from ffdigits import count_restricted, orthogonality_count
    from ffdigits.polys import irreducible_polys

    field = build_field(tr, op["q"])
    R = restricted(tr, field, op["forbid"])
    n = op["n"]
    with tr.span("polys.irreducible_polys", n):
        irreducible_polys(field, n)
    with tr.span("circle.orthogonality_count", n):
        orth = orthogonality_count(R, n)
    with tr.span("census.count_restricted", n):
        census = count_restricted(R, n)
    return {"orth": orth, "census": census, "chunks": census_chunks(R, n)}


def run_scan(tr: Tracer, op: dict) -> dict:
    from ffdigits.census import census_report

    field = build_field(tr, op["q"])
    R = restricted(tr, field, op["forbid"])
    exact = {}
    for n in op["ns"]:
        with tr.span("census.census_report", n):
            exact[str(n)] = census_report(R, n, workers=op["workers"]).exact
    return {"exact": exact, "chunks": sum(census_chunks(R, n) for n in op["ns"])}


def run_verify(tr: Tracer, op: dict) -> dict:
    """Every check in CLI order in one process, as `ffdigits verify all` runs them."""
    from ffdigits import run_check

    checks = {}
    for check_id in CHECK_IDS:
        with tr.span("checks.run_check", check_id):
            result = run_check(check_id, **VERIFY_GRID.get(check_id, {}))
        checks[check_id] = {"passed": result.passed, "cases": result.cases}
    return {"checks": checks}


def run_farey(tr: Tracer, op: dict) -> dict:
    """The Farey points and digit windows the pointwise checks build."""
    from ffdigits.circle import farey_enumerate
    from ffdigits.laurent import frac_digits

    points = {}
    for q in op["qs"]:
        field = build_field(tr, q)
        with tr.span("circle.farey_enumerate", q):
            kept = [
                x
                for x in farey_enumerate(field, POINTWISE_D_MAX)
                if x.g.degree >= 1 and any(c != 0 for c in x.g.coeffs[:-1])
            ]
        with tr.span("laurent.frac_digits", q):
            for x in kept:
                frac_digits(x, POINTWISE_N_MAX)
        points[str(q)] = len(kept)
    return {"points": points}


RUNNERS = {
    "setup": run_setup,
    "count": run_count,
    "identity": run_identity,
    "scan": run_scan,
    "verify": run_verify,
    "farey": run_farey,
}


def main(argv) -> int:
    op = json.loads(argv[1])
    tr = Tracer(bool(op.get("trace")))
    result = RUNNERS[op["kind"]](tr, op)
    print(json.dumps({"result": result, "spans": tr.spans}))
    if op["kind"] == "verify" and not all(c["passed"] for c in result["checks"].values()):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
