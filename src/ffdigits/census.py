"""Exact parallel census of restricted-coefficient irreducibles.

The engine enumerates coefficient vectors in fixed-size chunks and removes
every candidate with an irreducible factor of degree at most n/2 with the
remainder-code sieve of `sieve`.  It splits a candidate into a low half and a
high half, f = low + t^h high + t^n, and tabulates once per count the
remainder of every low half and of minus every high half modulo each such
irreducible g, packed into one integer code; g divides f exactly when the two
codes agree.  A degree whose codes are dense is sieved by marks: its low codes
are scattered into lists of the low halves per (g, code), and every high half
of a chunk marks those under its own codes.  Degrees whose lists would hold
over twice the entries of their low table compare the two codes per (surviving
candidate, g).  The same sieve lists the irreducibles it divides by.

For c in F_q^*, f(t) -> c^(-n) f(ct) permutes the monic irreducibles of
degree n and sends c_j to c^(j-n) c_j, so it keeps "no coefficient in R"
whenever c R = R.  The group H of such c moves a nonzero c_{n-1} freely, so a
count sieves c_{n-1} over one value per H-orbit of the allowed nonzero values
(and 0, if allowed) and weighs each survivor by |H| (by 1 where c_{n-1} = 0).
With H = {1} every candidate is sieved.  A count
builds its tables once, in the calling thread, and sieves its chunks in
w = min(workers, chunks) interleaved stripes, chunk i in stripe i mod w: the
caller runs stripe 0, and w - 1 threads run the others over the same
read-only tables, as numpy releases the GIL in the sieve's gathers and
compares.  Stripe counts are plain integers, so the result is identical for
any worker count.

A count or a scan loads only `field`, `sieve` and this module, which also
holds the closed-form predictor, main term and error budget of the reports;
the writers import `csv` and `json` when they run, and `main_term` and Lambda
import `fractions` when they are formed.
"""

from __future__ import annotations

import math
import threading
import time
from collections import namedtuple

import numpy as np

from .field import Frozen, RestrictedSet, local_factor
from .sieve import _CHUNK, marks_degree, prime_count, sieve, sieve_tables

DEFAULT_BUDGET = 10**8
# Candidate indices and remainder codes are computed in int64, so both stay
# below 2^63.
_INT64_LIMIT = 1 << 63


class BudgetError(RuntimeError):
    """The requested enumeration exceeds the polynomial-test budget."""


# ---------------------------------------------------------------------------
# the count

def count_restricted(
    R: RestrictedSet, n: int, workers: int = 1, budget: int = DEFAULT_BUDGET
) -> int:
    """Exact number of irreducibles of degree n with no forbidden coefficient."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    field = R.spec
    m = field.q - R.s
    # exact unless m >= 2 and n passes the budget's bit length, where it passes the budget
    total = m ** min(n, budget.bit_length() + 1)
    if total > budget:
        raise BudgetError(
            f"{m}^{n} candidate polynomials exceed the budget of {budget}"
        )
    if total >= _INT64_LIMIT:
        raise BudgetError(
            f"{m}^{n} candidate polynomials exceed the int64 decode limit of 2^63"
        )
    if n == 0:
        return 0
    _check_sieve_budget(field.q, m, n, budget)
    columns, order = _orbit_columns(R, n)
    tables = sieve_tables(field, n, columns)
    total = math.prod(len(vals) for vals in columns)  # the candidates sieved, m^n if H = {1}
    # the indices below `zeros` are the candidates with c_{n-1} = 0, its column's
    # first value when allowed (c_{n-1} is the most significant digit)
    zeros = total // len(columns[-1]) if columns[-1][0] == 0 else 0
    starts = range(0, total, _CHUNK)
    stripes = max(1, min(workers, len(starts)))  # workers < 1 runs serially
    stop = threading.Event()

    def stripe(i: int) -> int:
        """The count of chunks i, i + stripes, ...; the threads stop at `stop`."""
        count = 0
        for lo in starts[i::stripes]:
            if stop.is_set():
                break
            found = sieve(tables, lo, min(lo + _CHUNK, total))
            if order == 1:
                count += len(found)
            else:  # each survivor stands for its H-orbit, except those with c_{n-1} = 0
                count += order * len(found) - (order - 1) * int(np.searchsorted(found, zeros))
        return count

    if stripes == 1:
        return stripe(0)
    # imported here, so that a start that runs no pool does not load it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=stripes - 1) as pool:
        rest = pool.map(stripe, range(1, stripes))
        try:
            return stripe(0) + sum(rest)
        finally:
            # set once every stripe is summed, or when the caller's own stripe
            # raises (an interrupt, say), so that the pool does not sieve on
            stop.set()


def _orbit_columns(R: RestrictedSet, n: int) -> tuple:
    """(columns, |H|): the census's value sets for c_0..c_{n-1}, and the order of
    H = {c in F_q^*: c R = R}.  c_0..c_{n-2} take R's complement; c_{n-1} takes 0
    when allowed and the smallest code of each H-orbit of the other allowed values.
    With H = {1} every column is the complement."""
    field, allowed = R.spec, R.complement
    # scalar products: a prime field builds no q x q table for them
    H = [c for c in range(1, field.q) if all(field.mul(c, r) in R.forbidden for r in R.forbidden)]
    top, seen = [], set()
    for a in allowed:
        if a not in seen:
            top.append(a)
            seen.update(field.mul(c, a) for c in H)
    return (allowed,) * (n - 1) + (tuple(top),), len(H)


def _check_sieve_budget(q: int, m: int, n: int, budget: int):
    """Refuse, before any irreducible list exists, sieve tables (`marks_degree`) past the budget."""
    half = n // 2
    if half >= 63 or q**half >= _INT64_LIMIT:
        raise BudgetError(
            f"remainder codes modulo degree {half} exceed the int64 limit of 2^63"
        )
    listed = sum(q**d for d in range(1, half + 1))
    if listed > budget:
        raise BudgetError(
            f"{listed} candidates for the sieve's irreducible lists exceed the budget of {budget}"
        )
    entries = _table_entries(q, m, n)
    if entries > budget:
        raise BudgetError(
            f"{entries} sieve table entries exceed the budget of {budget}"
        )


def _table_entries(q: int, m: int, n: int) -> int:
    """The entries of the sieve tables over m^n candidates (`marks_degree`): per
    irreducible of degree d <= n/2, m^(n//2) high codes and either m^h low codes or
    q^d m^(h-d) inverse slots, h = n - n//2.  The tables of an orbit census, whose
    c_{n-1} column is smaller, hold no more."""
    half = n // 2
    h = n - half
    entries = 0
    for d in range(1, half + 1):
        past = m ** (h - d)  # low halves per choice of c_0..c_{d-1}
        mark = marks_degree(q, d, past, m**h)
        entries += prime_count(q, d) * (m**half + (q**d * past if mark else m**h))
    return entries


# ---------------------------------------------------------------------------
# reporting

class PredictorParams(Frozen, namedtuple("PredictorParams", "q s n zero_in_R")):
    """The shape (q, s = |R|, n, whether 0 is in R) that the predictor and the main term read."""

    __slots__ = ()

    def __new__(cls, q: int, s: int, n: int, zero_in_R: bool):
        if not 0 <= s < q:
            raise ValueError("need 0 <= s < q")
        if n < 1:
            raise ValueError(f"degree must be >= 1, got {n}")
        return super().__new__(cls, q, s, n, zero_in_R)

    @classmethod
    def from_restricted(cls, R: RestrictedSet, n: int) -> "PredictorParams":
        return cls(q=R.spec.q, s=R.s, n=n, zero_in_R=R.zero_in_R)

    @property
    def lam(self):
        """Lambda as a `Fraction`, imported here so that a census does not load it."""
        from fractions import Fraction

        return Fraction(*local_factor(self.q, self.s, self.zero_in_R))

    @property
    def flagged(self) -> bool:
        """True when s exceeds the sqrt(q)/2 comfort zone of the asymptotic."""
        return 4 * self.s**2 > self.q


def main_term(P: PredictorParams):
    """Exact main term (q*Lambda/(q-1)) * pi(n) * (1 - s/q)^n, as a `Fraction`."""
    from fractions import Fraction

    return (
        Fraction(P.q, P.q - 1)
        * P.lam
        * prime_count(P.q, P.n)
        * Fraction(P.q - P.s, P.q) ** P.n
    )


def predictor(P: PredictorParams) -> float:
    """(q/(q-1)) * (q-s)^n / n * Lambda; inf past the float range.  The quotient of
    two ints is correctly rounded, so this is the float of the exact fraction."""
    num, den = local_factor(P.q, P.s, P.zero_in_R)
    try:
        return P.q * (P.q - P.s) ** P.n * num / ((P.q - 1) * P.n * den)
    except OverflowError:
        return math.inf


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def error_budget(q: int, s: int, n: int) -> float:
    """Reported (never asserted) total error, all implied constants set to 1.

    Defined for n >= 3, where the minor-arc split U = sqrt(2n/5) lies in [1, n/2].
    """
    if n < 3:
        raise ValueError(f"the error budget needs n >= 3, got {n}")
    lq = math.log(q)
    return _safe_exp(-math.sqrt(n) / (2 * math.sqrt(10)) * lq) + _safe_exp(
        n * (0.75 * lq + math.log(math.sqrt(s) + 1) - math.log(q - s))
    )


class CensusReport(
    Frozen,
    namedtuple(
        "CensusReport",
        "q s forbidden n exact predictor ratio lam budget_total elapsed error",
        defaults=(None,),
    ),
):
    """One degree's census against its predictor; `lam` is Lambda as a float."""

    __slots__ = ()

    def row(self) -> dict:
        """The frozen report columns, `REPORT_COLUMNS`."""
        values = (
            self.q,
            self.s,
            ",".join(str(c) for c in self.forbidden),
            self.n,
            self.exact,
            self.predictor,
            self.ratio,
            float(self.lam),
            self.budget_total,
            round(self.elapsed, 6),
        )
        return dict(zip(REPORT_COLUMNS, values))


REPORT_COLUMNS = [
    "q", "s", "forbidden", "n", "exact", "predictor", "ratio", "lambda", "budget_total", "elapsed_s"
]


def census_report(
    R: RestrictedSet, n: int, workers: int = 1, budget: int = DEFAULT_BUDGET
) -> CensusReport:
    params = PredictorParams.from_restricted(R, n)
    num, den = local_factor(params.q, params.s, params.zero_in_R)
    start = time.perf_counter()
    exact = None
    ratio = None
    error = None
    try:
        exact = count_restricted(R, n, workers=workers, budget=budget)
        scale = params.q * (params.q - params.s) ** n
        ratio = exact * n * (params.q - 1) / scale
    except BudgetError as exc:
        error = str(exc)
    elapsed = time.perf_counter() - start
    try:
        budget_total = error_budget(params.q, params.s, n)
    except ValueError:
        budget_total = None
    return CensusReport(
        q=params.q,
        s=params.s,
        forbidden=tuple(sorted(R.forbidden)),
        n=n,
        exact=exact,
        predictor=predictor(params),
        ratio=ratio,
        lam=num / den,
        budget_total=budget_total,
        elapsed=elapsed,
        error=error,
    )


def scan(
    R: RestrictedSet, n_values, workers: int = 1, budget: int = DEFAULT_BUDGET
) -> list:
    """One census report per degree, sorted by degree; row errors do not abort."""
    return [
        census_report(R, n, workers=workers, budget=budget)
        for n in sorted(n_values)
    ]


def write_csv(reports, fh):
    """Write the reports as CSV to a text file opened with newline=""."""
    import csv

    writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
    writer.writeheader()
    for rep in reports:
        writer.writerow(rep.row())


def report_json_line(report: CensusReport) -> str:
    import json

    return json.dumps(report.row(), sort_keys=True)


def write_json(reports, fh):
    """Write the reports to a text file, one JSON line each."""
    for rep in reports:
        fh.write(report_json_line(rep) + "\n")
