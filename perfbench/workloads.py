"""Workload definitions shared by the benchmark (run.py) and the op runner (op.py).

An op is a plain dict, so it can be passed to a fresh interpreter as JSON:
``{"id", "kind", "q", "forbid", "n" | "ns", "workers"}``. The seed only picks
which nonzero forbidden set R of the stated size is drawn.

Sizes are chosen so that one pass over a workload's ops takes 4-12 s on a
2-core Xeon, so a 30 s run holds 2-7 passes to take per-op medians over, and
92 runs of the benchmark fit in under an hour.
"""

from __future__ import annotations

import random
from math import comb

WORKLOADS = ("census", "scan", "identity", "verify")

# The verification battery in CLI order (``ffdigits verify all``).
CHECK_IDS = (
    "pnt",
    "identity",
    "lemma1",
    "lemma2",
    "corollary1",
    "lemma3",
    "lemma4",
    "lemma5",
    "lemma6",
    "corollary2",
    "partition",
    "theorem_trend",
)

# Default grids except where noted. lemma6 drops p = 7, whose 102,600-point
# Farey window and 32M bound calls take ~32 s alone; p = 5 keeps the window
# that lemma3 builds, so the cache sharing of `verify all` still shows.
# pnt enumerates up to degree 6 instead of 8 (the census workload covers
# large enumerations).
VERIFY_GRID = {
    "pnt": {"enum_n_max": 6},
    "lemma6": {"ps": (5,)},
}

# Pointwise checks: (fields, n_max); both use denominators 1 <= deg g <= 3
# that are not powers of t (checks._pointwise_bound_check).
LEMMA3_QS = (3, 5)
LEMMA6_PS = VERIFY_GRID["lemma6"]["ps"]
POINTWISE_N_MAX = 9
POINTWISE_D_MAX = 3
WINDOW_QS = tuple(sorted(set(LEMMA3_QS) | set(LEMMA6_PS)))


def seeded_population(q: int) -> range:
    """Codes a seeded R is drawn from: the nonzero elements of F_q.

    Whether 0 is forbidden decides whether any candidate is divisible by t,
    which moves survivor counts and the sieve's peak memory by up to 2x
    (scan: 456 vs 248 MB); drawing from F_q* keeps that fixed across seeds.
    """
    return range(1, q)


def _forbid(rng: random.Random, q: int, R) -> dict:
    """A fixed forbidden list R, or a seeded draw of R elements."""
    if isinstance(R, list):
        return {"q": q, "forbid": R, "seeded": False}
    return {"q": q, "forbid": sorted(rng.sample(seeded_population(q), R)), "seeded": True}


def ref_key(q: int, forbid, n: int) -> str:
    """Key of a reference count in references.json."""
    return f"{q}:{','.join(str(c) for c in forbid)}:{n}"


def build_ops(workload: str, seed: int) -> list:
    """The op list of one pass over `workload`; R is drawn from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census":
        shapes = [(17, [0], 5), (2, [], 18), (8, 1, 6), (9, 2, 6)]
        return [
            dict(_forbid(rng, q, R), id=f"count-q{q}-n{n}", kind="count", n=n, workers=1)
            for q, R, n in shapes
        ]
    if workload == "scan":
        return [
            dict(_forbid(rng, 3, 1), id="scan-q3-n8:16", kind="scan", ns=list(range(8, 17)), workers=2)
        ]
    if workload == "identity":
        shapes = [(3, 1, 6), (4, 1, 4), (2, [], 11)]
        return [
            dict(_forbid(rng, q, R), id=f"identity-q{q}-n{n}", kind="identity", n=n)
            for q, R, n in shapes
        ]
    if workload == "verify":
        return [{"id": "verify-all", "kind": "verify"}]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def probes(workload: str, ops: list) -> list:
    """Traced ops that redo work outside the workload's ops, run once per traced run."""
    if workload == "scan":
        return [dict(op, id=op["id"] + "-w1", workers=1, trace=True, probe=True) for op in ops]
    if workload == "verify":
        return [{"id": "farey-windows", "kind": "farey", "qs": list(WINDOW_QS), "trace": True,
                 "probe": True}]
    return []


# ---------------------------------------------------------------------------
# exact counts, computed from the op shapes alone

def _mobius(n: int) -> int:
    result, m, f = 1, n, 2
    while f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return 0
            result = -result
        f += 1
    return -result if m > 1 else result


def prime_count(q: int, n: int) -> int:
    """Number of monic irreducibles of degree n over F_q (Gauss's formula)."""
    total = sum(_mobius(n // d) * q**d for d in range(1, n + 1) if n % d == 0)
    return total // n


def window_points(q: int) -> int:
    """Reduced a/g, a != 0, 1 <= deg g <= 3, g not a power of t.

    Over all monic g of degree d the totient sums to q^(2d-1) (q-1); the power
    t^d contributes q^d - q^(d-1).
    """
    return sum(
        q ** (2 * d - 1) * (q - 1) - (q**d - q ** (d - 1))
        for d in range(1, POINTWISE_D_MAX + 1)
    )


def _census_counts(q: int, s: int, n: int) -> dict:
    candidates = (q - s) ** n
    columns = sum(d * prime_count(q, d) for d in range(1, n // 2 + 1))
    return {
        "census.candidates": candidates,
        "census.sieve_columns": columns,
        "census.kernel_madds_upper": candidates * (n + 1) * columns,
    }


def _rabin(q: int, degrees) -> dict:
    """Monics Rabin-tested and irreducibles found for the lists of `degrees`."""
    degrees = [d for d in set(degrees) if d >= 2]
    return {
        "polys.rabin_tests": sum(q**d for d in degrees),
        "polys.irreducibles_found": sum(prime_count(q, d) for d in degrees),
    }


def _add(total: dict, part: dict):
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def op_counts(op: dict) -> dict:
    """Exact work counts of one op, computed from its shape (not measured).

    They are fixed by the op list, so no change to the package can move them.
    Irreducible lists are cached per process, so each degree is tested once
    per op; pool workers rebuilding lists in scan are not counted.
    """
    kind = op["kind"]
    counts: dict = {}
    if kind in ("count", "identity"):
        q, s, n = op["q"], len(op["forbid"]), op["n"]
        _add(counts, _census_counts(q, s, n))
        degrees = list(range(2, n // 2 + 1))
        if kind == "identity":
            degrees.append(n)
            points = q ** (n + 1)
            _add(counts, {
                "circle.orth_points": points,
                "circle.orth_inner_ops": points * prime_count(q, n) * (n + 1),
            })
        _add(counts, _rabin(q, degrees))
    elif kind == "scan":
        q, s = op["q"], len(op["forbid"])
        for n in op["ns"]:
            _add(counts, _census_counts(q, s, n))
        _add(counts, _rabin(q, range(2, max(op["ns"]) // 2 + 1)))
    elif kind == "verify":
        points = sum(window_points(q) for q in WINDOW_QS)
        lemma3_sets = {q: sum(comb(q, s) for s in range(1, q // 2 + 1)) for q in LEMMA3_QS}
        lemma6_sets = {p: p * (p - 2) for p in LEMMA6_PS}
        evals = sum(
            window_points(q) * n_sets * POINTWISE_N_MAX
            for sets in (lemma3_sets, lemma6_sets)
            for q, n_sets in sets.items()
        )
        _add(counts, {
            "circle.farey_points": points,
            "laurent.frac_digits_calls": points,
            "charsum.pointwise_bound_evals": evals,
        })
    return counts
