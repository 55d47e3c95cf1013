"""Exact parallel census of restricted-coefficient irreducibles.

The engine enumerates coefficient vectors in fixed-size chunks and sieves each
chunk with vectorized trial division by the cached irreducibles of degree up to
n/2.  Chunk counts are plain integers merged in chunk order, so the result is
identical for any worker count.
"""

from __future__ import annotations

import csv
import json
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .charsum import RestrictedSet, consecutive_l1_bound
from .circle import ErrorBudget, PredictorParams, error_budget, predictor
from .field import digits, get_field
from .polys import irreducible_polys, remainder_basis

DEFAULT_BUDGET = 10**8
_CHUNK = 1 << 15
# Candidate indices are decoded in int64, so there must be fewer than 2^63.
_DECODE_LIMIT = 1 << 63


class BudgetError(RuntimeError):
    """The requested enumeration exceeds the polynomial-test budget."""


# ---------------------------------------------------------------------------
# per-process sieve tables

_stage_cache: dict = {}


def _stages(field, n: int):
    """Per degree d <= n/2: the stacked remainder bases of all irreducibles of degree d."""
    key = (field, n)
    got = _stage_cache.get(key)
    if got is None:
        got = []
        for d in range(1, n // 2 + 1):
            polys = irreducible_polys(field, d)
            bases = [remainder_basis(g, n) for g in polys]
            stacked = np.concatenate(bases, axis=1) if bases else None
            got.append((d, bases, stacked))
        _stage_cache[key] = got
    return got


def _census_chunk(args) -> int:
    p, k, modulus, forbidden, n, start, stop = args
    field = get_field(p, k, modulus)
    comp = np.array(
        [c for c in field.elements() if c not in forbidden], dtype=np.int64
    )
    C = np.ones((stop - start, n + 1), dtype=np.int64)
    C[:, :n] = comp[digits(np.arange(start, stop, dtype=np.int64), len(comp), n)]
    if n == 1:
        return len(C)
    for d, bases, stacked in _stages(field, n):
        if field.k == 1:
            rem = (C @ stacked) % p
            divisible = (rem.reshape(len(C), -1, d) == 0).all(axis=2).any(axis=1)
        else:
            mul_t = field.mul_table
            add_t = field.add_table
            divisible = np.zeros(len(C), dtype=bool)
            for B in bases:
                is_div = np.ones(len(C), dtype=bool)
                for i in range(d):
                    acc = np.zeros(len(C), dtype=np.int64)
                    for j in range(n + 1):
                        if B[j, i]:
                            acc = add_t[acc, mul_t[C[:, j], B[j, i]]]
                    is_div &= acc == 0
                    if not is_div.any():
                        break
                divisible |= is_div
        C = C[~divisible]
        if not len(C):
            break
    return len(C)


def count_restricted(
    R: RestrictedSet, n: int, workers: int = 1, budget: int = DEFAULT_BUDGET
) -> int:
    """Exact number of irreducibles of degree n with no forbidden coefficient."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    field = R.spec
    total = (field.q - R.s) ** n
    if total > budget:
        raise BudgetError(
            f"{total} candidate polynomials exceed the budget of {budget}"
        )
    if total >= _DECODE_LIMIT:
        raise BudgetError(
            f"{total} candidate polynomials exceed the int64 decode limit of 2^63"
        )
    if n == 0:
        return 0
    chunks = (
        (
            field.p,
            field.k,
            field.modulus,
            frozenset(R.forbidden),
            n,
            lo,
            min(lo + _CHUNK, total),
        )
        for lo in range(0, total, _CHUNK)
    )
    if workers > 1 and total > _CHUNK:
        return _pool_count(chunks, workers)
    return sum(_census_chunk(c) for c in chunks)


def _pool_count(chunks, workers: int) -> int:
    """Sum of chunk counts, at most 2 * workers chunks in flight, read in chunk order."""
    count = 0
    pending = deque()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for c in chunks:
            pending.append(pool.submit(_census_chunk, c))
            if len(pending) >= 2 * workers:
                count += pending.popleft().result()
        while pending:
            count += pending.popleft().result()
    return count


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
    budget: ErrorBudget | None
    consecutive: bool
    consecutive_bound: float | None
    elapsed: float
    error: str | None = None

    def row(self) -> dict:
        """The frozen report columns."""
        return {
            "q": self.q,
            "s": self.s,
            "forbidden": ",".join(str(c) for c in self.forbidden),
            "n": self.n,
            "exact": self.exact,
            "predictor": self.predictor,
            "ratio": self.ratio,
            "lambda": float(self.lam),
            "budget_total": self.budget.total if self.budget else None,
            "elapsed_s": round(self.elapsed, 6),
        }


REPORT_COLUMNS = [
    "q",
    "s",
    "forbidden",
    "n",
    "exact",
    "predictor",
    "ratio",
    "lambda",
    "budget_total",
    "elapsed_s",
]


def census_report(
    R: RestrictedSet, n: int, workers: int = 1, budget: int = DEFAULT_BUDGET
) -> CensusReport:
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
        budget_rec = error_budget(params.q, params.s, n)
    except ValueError:
        budget_rec = None
    consecutive = R.is_consecutive
    cons_bound = (
        consecutive_l1_bound(params.q, params.s, n) if consecutive else None
    )
    return CensusReport(
        q=params.q,
        s=params.s,
        forbidden=tuple(sorted(R.forbidden)),
        n=n,
        exact=exact,
        predictor=predictor(params),
        ratio=ratio,
        lam=params.lam,
        budget=budget_rec,
        consecutive=consecutive,
        consecutive_bound=cons_bound,
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


def write_csv(reports, path):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        for rep in reports:
            writer.writerow(rep.row())


def report_json_line(report: CensusReport) -> str:
    return json.dumps(report.row(), sort_keys=True)


def write_json(reports, path):
    with open(path, "w") as fh:
        for rep in reports:
            fh.write(report_json_line(rep) + "\n")
