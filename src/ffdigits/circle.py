"""Farey-arc machinery and the count pipeline: arc enumeration and partition,
the square-root-cancellation error check at rational points, the main-term and
predictor formulas, the error budget, and the orthogonality-identity count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .charsum import RestrictedSet, local_factor, s_at, s_at_window, s_r_at
from .field import FieldSpec, digits, matmul
from .laurent import RationalPoint, e_q_of
from .polys import (
    Poly,
    enumerate_monic,
    euler_phi,
    factorize,
    mobius,
    poly_gcd,
    prime_count,
    remainder_basis,
)


class NumericalError(RuntimeError):
    """The orthogonality average failed to land on an integer."""


ORTH_TOLERANCE = 1e-6
# Largest (point x irreducible) array, in entries, built at once by the
# orthogonality count.  At 2^15 the temporaries of one block added ~1 MB to the
# peak RSS of a q=3, n=6 count; at 2^13 they add ~0.1 MB, at the same speed.
_BLOCK = 1 << 13


@dataclass(frozen=True)
class FareyArc:
    """Ball around a/g of radius q^(-radius_exponent)."""

    center: RationalPoint
    radius_exponent: int

    def contains(self, x: RationalPoint) -> bool:
        # |b/h - a/g| = |b g - a h| / |g h|, with no need to reduce the difference
        a, g = self.center.a, self.center.g
        diff = x.a * g - a * x.g
        return diff.is_zero or diff.degree - g.degree - x.g.degree < -self.radius_exponent


def _polys_below_degree(field: FieldSpec, d: int):
    """All polynomials of degree < d, by ascending code."""
    q = field.q
    for v in range(q**d):
        yield Poly(field, digits(v, q, d))


def farey_enumerate(field: FieldSpec, d_max: int):
    """Every reduced fraction a/g with g monic and deg a < deg g <= d_max.

    Starts with 0/1; then denominators by increasing degree.
    """
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    yield RationalPoint.zero(field)
    one = Poly.one(field)
    for d in range(1, d_max + 1):
        for g in enumerate_monic(field, d):
            for a in _polys_below_degree(field, d):
                if a.is_zero:
                    continue
                if poly_gcd(a, g) == one:
                    yield RationalPoint(a, g)


@dataclass(frozen=True)
class FareyWindows:
    """Reduced fractions a/g, one row each, with their first m digits.

    Row i is the numerator with code `codes[i]` over the denominator
    `denominators[g_index[i]]`; `windows[i]` holds x_{-1}, ..., x_{-m} and
    `degs[i]` the degree of the denominator.
    """

    denominators: tuple
    g_index: np.ndarray
    codes: np.ndarray
    windows: np.ndarray
    degs: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)

    def point(self, i: int) -> RationalPoint:
        g = self.denominators[self.g_index[i]]
        a = Poly(g.field, digits(int(self.codes[i]), g.field.q, g.degree))
        return RationalPoint(a, g)


def farey_windows(
    field: FieldSpec, d_min: int, d_max: int, m: int, exclude_t_powers: bool = False
) -> FareyWindows:
    """The points of `farey_enumerate` with d_min <= deg g <= d_max, optionally
    without the denominators t^d, and their digit windows, in the same order.

    The digit x_{-j} of a/g is the t^(d-1) coefficient of t^(j-1) a mod g, so a
    Hankel matrix H_g maps the coefficient row of a to its window.  A numerator
    is coprime to g exactly when its remainder mod each irreducible factor of g
    is nonzero.  `farey_enumerate` with `frac_digits` is the reference.
    """
    if m < 1:
        raise ValueError("window length must be >= 1")
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    q = field.q
    gs = []
    g_index, codes, degs = ([np.zeros(0, dtype=np.int64)] for _ in range(3))
    windows = [np.zeros((0, m), dtype=np.int64)]

    def add_rows(g, row_codes, rows):
        g_index.append(np.full(len(rows), len(gs), dtype=np.int64))
        gs.append(g)
        codes.append(row_codes)
        windows.append(rows)
        degs.append(np.full(len(rows), g.degree, dtype=np.int64))

    if d_min <= 0 and not exclude_t_powers:
        add_rows(Poly.one(field), np.zeros(1, dtype=np.int64), np.zeros((1, m), dtype=np.int64))
    for d in range(max(d_min, 1), d_max + 1):
        numer = np.arange(1, q**d, dtype=np.int64)
        A = digits(numer, q, d)  # coefficient rows of every nonzero numerator
        nonzero_mod = {}  # irreducible w -> (a mod w != 0) for every numerator a
        for g in enumerate_monic(field, d):
            if exclude_t_powers and not any(g.coeffs[:-1]):
                continue
            coprime = np.ones(len(A), dtype=bool)
            for w, _ in factorize(g).factors:
                if w not in nonzero_mod:
                    nonzero_mod[w] = matmul(field, A, remainder_basis(w, d - 1)).any(axis=1)
                coprime &= nonzero_mod[w]
            h = remainder_basis(g, d + m - 2)[:, d - 1]  # h[k] = [t^(d-1)] (t^k mod g)
            hankel = h[np.arange(d)[:, None] + np.arange(m)]
            add_rows(g, numer[coprime], matmul(field, A[coprime], hankel))
    return FareyWindows(
        tuple(gs),
        np.concatenate(g_index),
        np.concatenate(codes),
        np.concatenate(windows),
        np.concatenate(degs),
    )


def arc_exponent(deg_g, n: int):
    """The arc around a/g at level n is |x - a/g| < q^(-arc_exponent(deg g, n)).

    The paper's radius is 1/(|g| q^(n/2)).  Norms are integer powers of q, so
    |x - a/g| < q^(-deg g - n/2) holds exactly when the exponent reaches
    deg g + floor(n/2).  With deg g <= floor(n/2) these arcs tile the unit
    interval: Dirichlet's theorem puts every x in one, and distinct reduced
    fractions a/g, b/h are |ah - bg|/|gh| >= q^(-deg g - floor(n/2)) apart, so
    no arc holds another's centre and, norms being ultrametric, none meet.
    Works on ints and on int64 arrays of degrees.
    """
    return deg_g + n // 2


def arc_partition_check(field: FieldSpec, n: int) -> bool:
    """True iff the arcs at level n cover each point a'/t^n exactly once.

    |x - a/g| < q^(-e) says that x and a/g share their first e digits, since
    digits subtract without carries.  The digits of a'/t^n are the top
    coefficients of a' and then zeros, so for e <= n the arc holds the points
    whose codes lie in [P q^(n-e), (P+1) q^(n-e)), P the first e digits of a/g
    with x_{-1} most significant.  The arcs tile the level exactly when these
    intervals, sorted by start, abut from 0 to q^n.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    q = field.q
    m = max(n, arc_exponent(n // 2, n))
    fw = farey_windows(field, 0, n // 2, m)
    e = arc_exponent(fw.degs, n)
    prefix = np.where(np.arange(m) < e[:, None], fw.windows, 0)
    # a point has no digits past x_{-n}, so a longer prefix names at most one point
    keep = ~prefix[:, n:].any(axis=1)
    start = prefix[keep, :n] @ q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    order = np.argsort(start)
    start, end = start[order], (start + q ** np.maximum(n - e[keep], 0))[order]
    return bool(start[0] == 0 and end[-1] == q**n and np.array_equal(start[1:], end[:-1]))


# ---------------------------------------------------------------------------
# error at a rational point against the major-arc main term

@dataclass(frozen=True)
class PointErrorReport:
    main: complex
    error: complex
    bound: float

    @property
    def ok(self) -> bool:
        return abs(self.error) <= self.bound + 1e-9


def lemma1_error(a: Poly, g: Poly, gamma, n: int, mu_phi=None) -> PointErrorReport:
    """Split S(a/g + gamma) into its major-arc main term and the remainder.

    The remainder is checked against the square-root cancellation bound
    q^(n - floor(n/2)/2).  `mu_phi` is (mobius, euler_phi) of the monic g, if
    the caller already has it.
    """
    field = g.field
    if gamma is None:
        gamma = RationalPoint.zero(field)
    if poly_gcd(a, g) != Poly.one(field) and not a.is_zero:
        raise ValueError("a and g must be coprime")
    half_down = n // 2
    if not (a.degree < g.degree or a.is_zero) or g.degree > half_down:
        raise ValueError("need |a| < |g| <= q^(n/2)")
    if not gamma.norm_less_than(-arc_exponent(g.degree, n)):
        raise ValueError("gamma outside the arc radius")
    q = field.q
    if mu_phi is None:
        mu_phi = (mobius(g.monic()), euler_phi(g.monic()))
    mu, phi = mu_phi
    main = 0j
    if mu != 0 and gamma.norm_less_than(-n):
        main = (
            Fraction(mu, phi)
            * prime_count(field, n)
            * 1.0
            * e_q_of(Poly.t(field, n), gamma)
        )
    total = s_at(field, n, RationalPoint(a, g) + gamma)
    bound = q ** (n - half_down / 2)
    return PointErrorReport(main=complex(main), error=total - main, bound=bound)


def lemma5_ratio(g: Poly):
    """(q^deg g / phi(g), (1 + log_q(deg g)) * e) for monic g of positive degree."""
    if g.degree < 1:
        raise ValueError("need deg g >= 1")
    q = g.field.q
    ratio = Fraction(q**g.degree, euler_phi(g.monic()))
    bound = (1 + math.log(g.degree, q)) * math.e
    return float(ratio), bound


# ---------------------------------------------------------------------------
# predictor and error budget

@dataclass(frozen=True)
class PredictorParams:
    q: int
    s: int
    n: int
    zero_in_R: bool

    def __post_init__(self):
        if not 0 <= self.s < self.q:
            raise ValueError("need 0 <= s < q")
        if self.n < 1:
            raise ValueError(f"degree must be >= 1, got {self.n}")

    @classmethod
    def from_restricted(cls, R: RestrictedSet, n: int) -> "PredictorParams":
        return cls(q=R.spec.q, s=R.s, n=n, zero_in_R=R.zero_in_R)

    @property
    def lam(self) -> Fraction:
        return local_factor(self.q, self.s, self.zero_in_R)

    @property
    def flagged(self) -> bool:
        """True when s exceeds the sqrt(q)/2 comfort zone of the asymptotic."""
        return 4 * self.s**2 > self.q


def main_term(P: PredictorParams) -> Fraction:
    """Exact main term (q*Lambda/(q-1)) * pi(n) * (1 - s/q)^n."""
    return (
        Fraction(P.q, P.q - 1)
        * P.lam
        * prime_count(P.q, P.n)
        * Fraction(P.q - P.s, P.q) ** P.n
    )


def predictor(P: PredictorParams) -> float:
    """(q/(q-1)) * (q-s)^n / n * Lambda; inf past the float range."""
    try:
        return float(Fraction(P.q, P.q - 1) * Fraction((P.q - P.s) ** P.n, P.n) * P.lam)
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


# ---------------------------------------------------------------------------
# the orthogonality-identity count

def orthogonality_count(R: RestrictedSet, n: int) -> int:
    """Count restricted irreducibles through the discrete orthogonality average.

    Averages S(a/t^(n+1)) * conj(S_R(a/t^(n+1))) over all q^(n+1) points and
    rounds; a deviation of 1e-6 or more from an integer is a hard error.
    Points are taken in blocks of fixed size, so the summation order is fixed.
    """
    field = R.spec
    m = n + 1
    npoints = field.q**m
    step = max(1, _BLOCK // prime_count(field, n))
    total = 0j
    for lo in range(0, npoints, step):
        codes = np.arange(lo, min(lo + step, npoints), dtype=np.int64)
        window = digits(codes, field.q, m)[:, ::-1]  # window[:, j] = a_{n-j}
        total += (s_at_window(field, n, window) * s_r_at(R, n, window).conj()).sum()
    value = complex(total) / npoints
    nearest = round(value.real)
    deviation = max(abs(value.imag), abs(value.real - nearest))
    if deviation >= ORTH_TOLERANCE:
        raise NumericalError(
            f"orthogonality average {value} deviates {deviation:.3g} from an integer"
        )
    return int(nearest)
