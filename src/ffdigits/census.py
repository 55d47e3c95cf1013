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
candidate, g).  The same sieve lists the irreducibles it divides by.  A count
builds its tables once, in the calling thread, and sieves its chunks in
w = min(workers, chunks) interleaved stripes, chunk i in stripe i mod w: the
caller runs stripe 0, and w - 1 threads run the others over the same
read-only tables, as numpy releases the GIL in the sieve's gathers and
compares.  Stripe counts are plain integers, so the result is identical for
any worker count.

A count loads only `field`, `sieve` and this module: the reports import the
predictor (`circle`) and their writers `csv` and `json` when they run.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from fractions import Fraction

from .field import RestrictedSet
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
    tables = sieve_tables(field, n, tuple(c for c in field.elements() if c not in R.forbidden))
    starts = range(0, total, _CHUNK)
    stripes = max(1, min(workers, len(starts)))  # workers < 1 runs serially
    stop = threading.Event()

    def stripe(i: int) -> int:
        """The count of chunks i, i + stripes, ...; the threads stop at `stop`."""
        count = 0
        for lo in starts[i::stripes]:
            if stop.is_set():
                break
            count += len(sieve(tables, lo, min(lo + _CHUNK, total)))
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


def _check_sieve_budget(q: int, m: int, n: int, budget: int):
    """Refuse, before any irreducible list exists, sieve tables (`marks_degree`) past the budget."""
    half = n // 2
    h = n - half
    if half >= 63 or q**half >= _INT64_LIMIT:
        raise BudgetError(
            f"remainder codes modulo degree {half} exceed the int64 limit of 2^63"
        )
    listed = sum(q**d for d in range(1, half + 1))
    if listed > budget:
        raise BudgetError(
            f"{listed} candidates for the sieve's irreducible lists exceed the budget of {budget}"
        )
    entries = sum(
        prime_count(q, d) * (m**half + (q**d * m ** (h - d) if marks_degree(q, m, h, d) else m**h))
        for d in range(1, half + 1)
    )
    if entries > budget:
        raise BudgetError(
            f"{entries} sieve table entries exceed the budget of {budget}"
        )


# ---------------------------------------------------------------------------
# reporting

@dataclass(frozen=True)
class CensusReport:
    q: int
    s: int
    forbidden: tuple
    n: int
    exact: int | None
    predictor: float
    ratio: float | None
    lam: Fraction
    budget_total: float | None
    elapsed: float
    error: str | None = None

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
    from .circle import PredictorParams, error_budget, predictor  # not loaded by a count

    params = PredictorParams.from_restricted(R, n)
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
        lam=params.lam,
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
