"""The verification battery: every named check runs one statement of the
machinery over its desk-scale parameter grid and reports pass/fail with the
worst witnesses.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from itertools import combinations, product

import numpy as np

from .census import count_restricted
from .charsum import (
    abs_s_r,
    cauchy_schwarz_bound,
    consecutive_l1_bound,
    digit_weights,
    l1_average_closed_form,
    lemma3_bound,
    lemma6_bound,
)
from .circle import (
    FareyWindows,
    arc_exponent,
    arc_partition_check,
    farey_window_blocks,
    farey_window_rows,
    farey_windows,
    lemma1_errors,
    lemma5_ratio,
    orthogonality_count,
)
from .field import RestrictedSet, digits, get_field, prime_power
from .laurent import RationalPoint
from .polys import Poly, monic_of_code
from .sieve import prime_count

MAX_WITNESSES = 10
# Most forbidden sets that a check enumerates over one field, and most points
# a'/t^n that the direct interval average sums over.  They admit every default
# grid (corollary1 at q = 7: 126 sets; lemma2 at q = 7, n = 4: 2401 points),
# and `verify corollary1 --q 23` (~8.4 * 10^6 sets) is refused at once.
_SUBSET_LIMIT = 1 << 12
_POINT_LIMIT = 1 << 16
# Most window entries (sets x windows x digits) that the per-set passes of a
# pointwise check, or of lemma4, read over one field.  It bounds work, not
# memory: lemma3 and lemma6 hold one block of windows at a time
# (`circle.farey_window_blocks`).  It admits every default grid (lemma6 at
# p = 7: 35 sets x 102,942 windows x 9 digits, ~3.2 * 10^7), and `verify lemma4
# --q 31` (497 sets x 895,592 windows x 8 digits, ~3.6 * 10^9) is refused at once.
_PASS_LIMIT = 1 << 26

# Exact counts for q = 17, R = {0}, pinned from the census on first build.
# The n = 5 row is the asymptotic-trend assertion point.
PINNED_Q17_NO_ZERO = {2: 128, 3: 1440, 4: 17280, 5: 222560}
TREND_DEVIATION_LIMIT = 0.25


@dataclass
class CheckResult:
    check_id: str
    params: dict
    passed: bool
    witnesses: list = dc_field(default_factory=list)
    cases: int = 0
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return {
            "check": self.check_id,
            "params": self.params,
            "pass": self.passed,
            "cases": self.cases,
            "witnesses": self.witnesses,
            "elapsed_s": round(self.elapsed, 3),
        }


class _Recorder:
    """Collects violations, keeping the worst few as witnesses."""

    def __init__(self):
        self.cases = 0
        self.violations = []

    def record(self, ok: bool, margin: float, witness: dict):
        self.cases += 1
        if not ok:
            self.violations.append((margin, witness))

    def result(self, check_id: str, params: dict, started: float) -> CheckResult:
        if not self.cases:
            raise ValueError(f"{check_id}: the parameters select no case")
        worst = sorted(self.violations, key=lambda mv: -mv[0])[:MAX_WITNESSES]
        return CheckResult(
            check_id=check_id,
            params=params,
            passed=not self.violations,
            witnesses=[w for _, w in worst],
            cases=self.cases,
            elapsed=time.perf_counter() - started,
        )


def _bound_sets(count: int, q: int):
    """Refuse past `_SUBSET_LIMIT` forbidden sets, before any is listed."""
    if count > _SUBSET_LIMIT:
        raise ValueError(
            f"the {count} forbidden sets over F_{q} exceed their bound of {_SUBSET_LIMIT}"
        )


def _bound_pass(field, sets, rows: int, n_max: int):
    """Refuse past `_PASS_LIMIT` window entries read by the per-set passes,
    before any window is built."""
    entries = len(sets) * rows * n_max
    if entries > _PASS_LIMIT:
        raise ValueError(
            f"the {entries} window entries that {len(sets)} forbidden sets read over "
            f"F_{field.q} exceed their bound of {_PASS_LIMIT}"
        )


def _subsets(field, sizes) -> list:
    """Every forbidden set with a size in `sizes`: sum C(q, s) of them."""
    _bound_sets(sum(math.comb(field.q, s) for s in sizes), field.q)
    return [frozenset(c) for s in sizes for c in combinations(field.elements(), s)]


def _consecutive_sets(field) -> list:
    """Every cyclic run of 1 to p - 1 residues: p (p - 1) of them."""
    p = field.q
    _bound_sets(p * (p - 1), p)
    return [frozenset((a + j) % p for j in range(s)) for a in range(p) for s in range(1, p)]


# ---------------------------------------------------------------------------
# individual checks

def check_pnt(
    enum_qs=(2, 3, 4, 5),
    enum_n_max=8,
    ident_qs=(2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17),
    ident_n_max=20,
    workers=1,
):
    """Prime-polynomial counting: inversion formula vs enumeration, and the
    exact identity sum_{d|n} d*pi(d) = q^n."""
    started = time.perf_counter()
    rec = _Recorder()
    for q in enum_qs:
        field = get_field(*prime_power(q))
        empty = RestrictedSet(field, frozenset())
        for n in range(1, enum_n_max + 1):
            formula = prime_count(q, n)
            brute = count_restricted(empty, n, workers=workers)
            rec.record(
                formula == brute,
                abs(formula - brute),
                {"q": q, "n": n, "lhs": brute, "rhs": formula, "kind": "enumeration"},
            )
    for q in ident_qs:
        for n in range(1, ident_n_max + 1):
            lhs = sum(d * prime_count(q, d) for d in range(1, n + 1) if n % d == 0)
            rhs = q**n
            rec.record(
                lhs == rhs,
                abs(lhs - rhs),
                {"q": q, "n": n, "lhs": lhs, "rhs": rhs, "kind": "identity"},
            )
    return rec.result(
        "pnt",
        {"enum_qs": list(enum_qs), "enum_n_max": enum_n_max, "ident_n_max": ident_n_max},
        started,
    )


def check_identity(workers=1):
    """Orthogonality-average count vs direct census."""
    started = time.perf_counter()
    rec = _Recorder()
    grid = []
    for q in (2, 3):
        field = get_field(*prime_power(q))
        sets = _subsets(field, range(0, min(2, q - 1) + 1))
        grid.extend((field, R, n) for R in sets for n in range(1, 5))
    field5 = get_field(5)
    sampled = [
        frozenset({0}),
        frozenset({1}),
        frozenset({4}),
        frozenset({0, 1}),
        frozenset({2, 3}),
    ]
    grid.extend((field5, R, 3) for R in sampled)
    for field, forb, n in grid:
        R = RestrictedSet(field, forb)
        via_integral = orthogonality_count(R, n)
        via_census = count_restricted(R, n, workers=workers)
        rec.record(
            via_integral == via_census,
            abs(via_integral - via_census),
            {
                "q": field.q,
                "forbidden": sorted(forb),
                "n": n,
                "lhs": via_integral,
                "rhs": via_census,
            },
        )
    return rec.result("identity", {"qs": [2, 3, 5]}, started)


def check_lemma2(qs=(2, 3, 5, 7), n_max=4, tol=1e-9):
    """Direct interval average of |S_R| vs the Fourier closed form."""
    started = time.perf_counter()
    rec = _Recorder()
    for q in qs:
        if q**n_max > _POINT_LIMIT:
            raise ValueError(
                f"the {q}^{n_max} points of the direct average exceed their bound of "
                f"{_POINT_LIMIT}"
            )
    for q in qs:
        field = get_field(*prime_power(q))
        # every a'/t^n_max; its first q^n rows hold the points a'/t^n of degree n
        windows = digits(np.arange(q**n_max, dtype=np.int64), q, n_max)
        max_s = 3 if q == 7 else q - 1
        for forb in _subsets(field, range(1, max_s + 1)):
            R = RestrictedSet(field, forb)
            prods = abs_s_r(R, windows)
            for n in range(1, n_max + 1):
                direct = float(prods[: q**n, n - 1].mean())  # `l1_average_direct`
                closed = l1_average_closed_form(R, n)
                rel = abs(direct - closed) / max(abs(closed), 1e-300)
                rec.record(
                    rel <= tol,
                    rel,
                    {
                        "q": q,
                        "forbidden": sorted(forb),
                        "n": n,
                        "lhs": direct,
                        "rhs": closed,
                    },
                )
    return rec.result("lemma2", {"qs": list(qs), "n_max": n_max, "tol": tol}, started)


def check_corollary1(qs=(2, 3, 5, 7), n_max=3, tol=1e-9):
    """L1 average bounded by (sqrt(s)+1-2s/q)^n, with equality at s = 1."""
    started = time.perf_counter()
    rec = _Recorder()
    for q in qs:
        field = get_field(*prime_power(q))
        for forb in _subsets(field, range(1, q)):
            R = RestrictedSet(field, forb)
            s = len(forb)
            for n in range(1, n_max + 1):
                lhs = l1_average_closed_form(R, n)
                rhs = cauchy_schwarz_bound(q, s, n)
                if s == 1:
                    ok = abs(lhs - rhs) <= tol * max(1.0, rhs)
                    margin = abs(lhs - rhs)
                else:
                    ok = lhs <= rhs * (1 + tol) + tol
                    margin = lhs - rhs
                rec.record(
                    ok,
                    margin,
                    {"q": q, "forbidden": sorted(forb), "n": n, "lhs": lhs, "rhs": rhs},
                )
    return rec.result("corollary1", {"qs": list(qs), "n_max": n_max, "tol": tol}, started)


def check_corollary2(ps=(3, 5, 7), n_max=4, tol=1e-9):
    """Consecutive forbidden runs: L1 average bounded by (log p + 1 - s/p)^n."""
    started = time.perf_counter()
    rec = _Recorder()
    for p in ps:
        field = get_field(p)
        for forb in _consecutive_sets(field):
            R = RestrictedSet(field, forb)
            for n in range(1, n_max + 1):
                lhs = l1_average_closed_form(R, n)
                rhs = consecutive_l1_bound(p, len(forb), n)
                rec.record(
                    lhs <= rhs * (1 + tol) + tol,
                    lhs - rhs,
                    {"p": p, "forbidden": sorted(forb), "n": n, "lhs": lhs, "rhs": rhs},
                )
    return rec.result("corollary2", {"ps": list(ps), "n_max": n_max}, started)


def _bound_tables(field, sets, n_max, bound_fn) -> list:
    """Per set, table[n, deg g] = bound_fn(q, s, n, deg g) as a float for 1 <= n <= n_max
    and 1 <= deg g <= 3, inf elsewhere: one evaluation per (set, n, deg g).

    Refuses a bound past the float range, where no float comparison would decide
    the points against it; the checks build every table before any window.
    """
    tables = []
    for forb in sets:
        table = np.full((n_max + 1, 4), np.inf)
        for n in range(1, n_max + 1):
            try:
                table[n, 1:] = [bound_fn(field.q, len(forb), n, d) for d in (1, 2, 3)]
            except OverflowError:
                raise ValueError(
                    f"the bound at degree {n} over F_{field.q} passes the float range"
                ) from None
        tables.append(table)
    return tables


def _pointwise_bound_check(rec, field, sets, n_max, tables):
    """Shared driver for the pointwise |S_R(a/g)| bounds (denominator not t^d),
    against each set's `_bound_tables`.

    At degree n, |S_R(a/g)| is the product of |W(x_{-j})| over j <= n
    (`abs_s_r`), so it depends on the point only through how many of its first
    n digits equal each c, and the bound only through deg g.  So one value per
    class (deg g, n, digit counts) decides every point of the class: a first
    stream of the windows (`farey_window_blocks`) collects the classes present,
    and a second, only for the classes that fail, decides their points by each
    one's own product, in row order.  A product past the float range is inf,
    which passes every bound, as the product does.  Every point counts as a
    case; the `MAX_WITNESSES` largest violations of each (set, n) are recorded.
    """
    q, B = field.q, n_max + 1
    # a class is (4 (n - 1) + deg g) B^q + sum_c k_c B^c, with k_c <= n < B digits
    # equal to c.  `farey_window_rows` admits rows max(n_max, 6) <= 2^23 with
    # rows >= q^5 (q - 1), so q <= 9 and every key stays below 4 n_max B^q < 2^59.
    shift = (4 * np.arange(n_max) * B**q)[None, :]

    def stream():
        for block in farey_window_blocks(field, 1, 3, n_max):
            keys = B**block.windows
            np.cumsum(keys, axis=1, out=keys)
            keys += shift
            # deg g = 0 stands for g = t^d, the monic of index 0, which no bound reads
            keys += (block.degs * (block.g_codes != 0) * B**q)[:, None]
            yield block, keys

    cases, classes = 0, np.zeros(0, dtype=np.int64)
    for block, keys in stream():
        cases += int(np.count_nonzero(block.g_codes))
        # sorted and deduplicated by hand: np.unique would import numpy.ma
        merged = np.sort(np.concatenate([classes, keys.ravel()]))
        first = np.ones(len(merged), dtype=bool)
        first[1:] = merged[1:] != merged[:-1]
        classes = merged[first]
        del block, keys, merged, first  # not held while the next block is built
    n = classes // (4 * B**q) + 1
    deg = classes // B**q % 4
    counts = classes[:, None] // B ** np.arange(q) % B
    # a row's product rounds n times, a class's value about 2q times, each
    # within an ulp: a class is flagged when a row of it may violate its bound
    slack = 1 + 2 * (n + q) * np.finfo(float).eps
    Rs, failing = [RestrictedSet(field, forb) for forb in sets], []
    for R, table in zip(Rs, tables):
        W = np.abs(np.array(digit_weights(R)))
        value = np.prod(W**counts, axis=1)
        failing.append(classes[value * slack > table[n, deg] * (1 + 1e-9) + 1e-9])
    top = {}  # (set index, n - 1) -> the largest violations so far: lhs, rhs, rows
    if any(len(f) for f in failing):
        for block, keys in stream():
            for i, R in enumerate(Rs):
                if not len(failing[i]):
                    continue
                hit = np.isin(keys, failing[i])
                some = hit.any(axis=1)
                if not some.any():
                    continue
                rows = block.take(some)
                lhs = abs_s_r(R, rows.windows)  # column n - 1 holds |S_R| at degree n
                bound = tables[i][1:, rows.degs].T
                bad = hit[some] & (lhs > bound * (1 + 1e-9) + 1e-9)
                for j in np.flatnonzero(bad.any(axis=0)):
                    at = np.flatnonzero(bad[:, j])
                    l, b, w = top.get((i, j), (lhs[:0, j], bound[:0, j], rows.take(at[:0])))
                    l, b = np.concatenate([l, lhs[at, j]]), np.concatenate([b, bound[at, j]])
                    w = FareyWindows.concatenate([w, rows.take(at)])
                    # the largest margins; a stable sort keeps row order among ties
                    worst = np.argsort(b - l, kind="stable")[:MAX_WITNESSES]
                    top[i, j] = l[worst], b[worst], w.take(worst)
    for i, forb in enumerate(sets):
        for j in range(n_max):
            lhs, bound, rows = top.get((i, j), ([], [], None))
            for k in range(len(lhs)):
                rec.record(
                    False,
                    float(lhs[k] - bound[k]),
                    {
                        "q": q,
                        "forbidden": sorted(forb),
                        "n": j + 1,
                        "point": str(rows.point(k)),
                        "lhs": float(lhs[k]),
                        "rhs": float(bound[k]),
                    },
                )
            rec.cases += cases - len(lhs)


def check_lemma3(qs=(3, 5), n_max=9):
    """Pointwise bound (q-s)^(n-[n/d]) s^[n/d] at rational points, deg g <= 3."""
    started = time.perf_counter()
    rec = _Recorder()
    fields = [get_field(*prime_power(q)) for q in qs]
    grid = [(field, _subsets(field, range(1, field.q // 2 + 1))) for field in fields]
    for field, sets in grid:
        _bound_pass(field, sets, farey_window_rows(field.q, 1, 3, n_max), n_max)
    tables = [_bound_tables(field, sets, n_max, lemma3_bound) for field, sets in grid]
    for (field, sets), bounds in zip(grid, tables):
        _pointwise_bound_check(rec, field, sets, n_max, bounds)
    return rec.result("lemma3", {"qs": list(qs), "n_max": n_max, "d_max": 3}, started)


def check_lemma6(ps=(5, 7), n_max=9):
    """Pointwise bound (p-s)^n exp(-[n/d]/p^3) for consecutive runs, deg g <= 3.

    Needs at least two consecutive allowed residues (p - s >= 2): with a single
    allowed coefficient |S_R| is identically 1 while the bound dips below 1, so
    s = p - 1 is a true counterexample and stays out of the grid.
    """
    started = time.perf_counter()
    rec = _Recorder()
    fields = [get_field(p) for p in ps]
    grid = [
        (field, [S for S in _consecutive_sets(field) if field.q - len(S) >= 2])
        for field in fields
    ]
    for field, sets in grid:
        _bound_pass(field, sets, farey_window_rows(field.q, 1, 3, n_max), n_max)
    tables = [_bound_tables(field, sets, n_max, lemma6_bound) for field, sets in grid]
    for (field, sets), bounds in zip(grid, tables):
        _pointwise_bound_check(rec, field, sets, n_max, bounds)
    return rec.result(
        "lemma6", {"ps": list(ps), "n_max": n_max, "d_max": 3, "s_max": "p-2"}, started
    )


def check_lemma4(qs=(3, 5), ds=(1, 2), ns=(4, 6, 8)):
    """Summed minor-arc bound over all fractions with deg g <= d."""
    started = time.perf_counter()
    rec = _Recorder()
    n_max = max(ns)
    fields = [get_field(*prime_power(q)) for q in qs]
    grid = [(field, _subsets(field, range(0, 3))) for field in fields]
    d_top = max(ds, default=0)
    for field, sets in grid:
        _bound_pass(field, sets, farey_window_rows(field.q, 0, d_top, n_max), n_max)
    # every bound before any window; one past the float range is refused
    bounds = {}
    for (field, sets), d, n in product(grid, ds, ns):
        if d > n / 2:
            continue
        q = field.q
        for s in {len(forb) for forb in sets}:
            try:
                bounds[q, s, d, n] = (q - s) ** (n - 2 * d) * (q * (1 + np.sqrt(s)) - 2 * s) ** (
                    2 * d
                )
            except OverflowError:
                raise ValueError(
                    f"the bound at degree {n} over F_{q} passes the float range"
                ) from None
    for field, sets in grid:
        q = field.q
        # one build at the largest d, summed over deg g <= d for each d
        fw = farey_windows(field, 0, d_top, n_max)
        for forb in sets:
            R = RestrictedSet(field, forb)
            s = len(forb)
            prods = abs_s_r(R, fw.windows)
            for d in ds:
                within = fw.degs <= d
                for n in ns:
                    if d > n / 2:
                        continue
                    lhs = float(prods[within, n - 1].sum())
                    rhs = bounds[q, s, d, n]
                    rec.record(
                        lhs <= rhs * (1 + 1e-9) + 1e-9,
                        lhs - rhs,
                        {
                            "q": q,
                            "forbidden": sorted(forb),
                            "d": d,
                            "n": n,
                            "lhs": lhs,
                            "rhs": float(rhs),
                        },
                    )
    return rec.result("lemma4", {"qs": list(qs), "ds": list(ds), "ns": list(ns)}, started)


def check_lemma1(q=3, ns=(4, 5, 6)):
    """Square-root cancellation at every arc center, with and without the widest
    offset 1/t^k inside the arc."""
    started = time.perf_counter()
    rec = _Recorder()
    field = get_field(*prime_power(q))
    for n in ns:
        fw, _, error, bound = lemma1_errors(field, n)
        lhs = np.abs(error).ravel()  # each centre, then its offset
        bad = np.nonzero(lhs > bound + 1e-9)[0]
        for j in bad.tolist():
            i, offset = divmod(j, 2)
            gamma = "0"
            if offset:
                k = arc_exponent(int(fw.degs[i]), n) + 1
                gamma = str(RationalPoint(Poly.one(field), Poly.t(field, k)))
            rec.record(
                False,
                float(lhs[j] - bound),
                {
                    "q": q,
                    "n": n,
                    "point": str(fw.point(i)),
                    "gamma": gamma,
                    "lhs": float(lhs[j]),
                    "rhs": bound,
                },
            )
        rec.cases += len(lhs) - len(bad)
    return rec.result("lemma1", {"q": q, "ns": list(ns)}, started)


def check_lemma5(qs=(2, 3), d_max=6):
    """q^deg g / phi(g) <= (1 + log_q deg g) * e for every monic g."""
    started = time.perf_counter()
    rec = _Recorder()
    for q in qs:
        field = get_field(*prime_power(q))
        # largest degree first, so a grid past the divisor sieve's bound fails
        # before any work
        for d in range(d_max, 0, -1):
            ratio, bound = lemma5_ratio(field, d)
            bad = np.flatnonzero(ratio > bound + 1e-12)
            for j in bad.tolist():
                g = monic_of_code(field, d, j).format()
                witness = {"q": q, "g": g, "lhs": float(ratio[j]), "rhs": bound}
                rec.record(False, float(ratio[j] - bound), witness)
            rec.cases += len(ratio) - len(bad)
    return rec.result("lemma5", {"qs": list(qs), "d_max": d_max}, started)


def check_partition(
    cases=((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (3, 5), (4, 4), (4, 5))
):
    """Every discretized point lies in exactly one Farey arc."""
    started = time.perf_counter()
    rec = _Recorder()
    for q, n in cases:
        field = get_field(*prime_power(q))
        ok = arc_partition_check(field, n)
        rec.record(ok, 0.0 if ok else 1.0, {"q": q, "n": n, "lhs": ok, "rhs": True})
    return rec.result("partition", {"cases": [list(c) for c in cases]}, started)


def check_theorem_trend(workers=1, budget=10**8):
    """Census at q = 17, R = {0}: regression-pinned counts and the ratio trend."""
    started = time.perf_counter()
    rec = _Recorder()
    field = get_field(17)
    R = RestrictedSet(field, frozenset({0}))
    lam = float(R.lam)
    deviations = {}
    for n in sorted(PINNED_Q17_NO_ZERO):
        exact = count_restricted(R, n, workers=workers, budget=budget)
        pinned = PINNED_Q17_NO_ZERO[n]
        rec.record(
            exact == pinned,
            abs(exact - pinned),
            {"q": 17, "n": n, "lhs": exact, "rhs": pinned, "kind": "pinned-count"},
        )
        ratio = exact * n * 16 / (17 * 16**n)
        deviations[n] = abs(ratio - lam)
    n_top = max(PINNED_Q17_NO_ZERO)
    rec.record(
        deviations[n_top] < TREND_DEVIATION_LIMIT,
        deviations[n_top] - TREND_DEVIATION_LIMIT,
        {
            "q": 17,
            "n": n_top,
            "lhs": deviations[n_top],
            "rhs": TREND_DEVIATION_LIMIT,
            "kind": "ratio-deviation",
        },
    )
    result = rec.result(
        "theorem_trend",
        {"q": 17, "forbidden": [0], "deviations": {str(k): round(v, 6) for k, v in deviations.items()}},
        started,
    )
    return result


CHECKS = {
    "pnt": check_pnt,
    "identity": check_identity,
    "lemma1": check_lemma1,
    "lemma2": check_lemma2,
    "corollary1": check_corollary1,
    "lemma3": check_lemma3,
    "lemma4": check_lemma4,
    "lemma5": check_lemma5,
    "lemma6": check_lemma6,
    "corollary2": check_corollary2,
    "partition": check_partition,
    "theorem_trend": check_theorem_trend,
}


def run_check(check_id: str, **params) -> CheckResult:
    """Run one named check over its desk-scale grid (overridable via params)."""
    try:
        fn = CHECKS[check_id]
    except KeyError:
        raise ValueError(
            f"unknown check {check_id!r}; known: {', '.join(sorted(CHECKS))}"
        ) from None
    return fn(**params)
