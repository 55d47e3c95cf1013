"""Farey-arc machinery and the count pipeline: arc enumeration and partition,
the square-root-cancellation error check at rational points, and the
orthogonality-identity count.  The main term, the predictor and the error
budget live next to the census (`census`) and are re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .census import PredictorParams, error_budget, main_term, predictor  # noqa: F401  re-exported
from .charsum import irreducible_counts, residue_counts, s_at_window
from .field import FieldSpec, RestrictedSet, add, digits, matmul, undigits
from .laurent import RationalPoint
from .polys import Poly, enumerate_monic, mobius_phi, monic_of_code, poly_gcd
from .sieve import _BLOCK, prime_count, remainder_bases


class NumericalError(RuntimeError):
    """The orthogonality sums broke the symmetry or the divisibility they must have."""


# Most window entries (rows x window length) that `farey_window_blocks` computes
# over all its blocks.  It bounds work, not memory: a stream holds one block of
# about `_BLOCK` entries at a time, and only `farey_windows` holds them all.  It
# admits every default check (lemma6 at p = 7: ~10^5 rows x 9 digits) and
# q <= 9 at deg g <= 3 with 9 digits.
_WINDOW_LIMIT = 1 << 23


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
            for v in range(1, field.q**d):  # numerators by ascending code
                a = Poly(field, digits(v, field.q, d))
                if poly_gcd(a, g) == one:
                    yield RationalPoint(a, g)


@dataclass(frozen=True)
class FareyWindows:
    """Reduced fractions a/g, one row each, with their first m digits.

    Row i is the numerator with code `codes[i]` over the monic g of degree
    `degs[i]` with code `g_codes[i]`, both sum c_j q^j with c_0 least
    significant (`polys.monic_of_code`); `windows[i]` holds x_{-1}, ..., x_{-m}.
    """

    field: FieldSpec
    g_codes: np.ndarray
    codes: np.ndarray
    windows: np.ndarray
    degs: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)

    def point(self, i: int) -> RationalPoint:
        d = int(self.degs[i])
        a = Poly(self.field, digits(int(self.codes[i]), self.field.q, d))
        return RationalPoint(a, monic_of_code(self.field, d, int(self.g_codes[i])))

    def take(self, rows) -> "FareyWindows":
        """The rows `rows`, an index array or a mask, in that order."""
        return FareyWindows(self.field, *(getattr(self, k)[rows] for k in _ROW_ARRAYS))

    @staticmethod
    def concatenate(blocks) -> "FareyWindows":
        """The rows of one or more `blocks`, one block after another."""
        blocks = list(blocks)
        arrays = (np.concatenate([getattr(b, k) for b in blocks]) for k in _ROW_ARRAYS)
        return FareyWindows(blocks[0].field, *arrays)


_ROW_ARRAYS = ("g_codes", "codes", "windows", "degs")


def farey_window_rows(q: int, d_min: int, d_max: int, m: int) -> int:
    """The number of rows of `farey_windows` over F_q, in closed form: the
    reduced a/g with deg g = d number q^(2d-1)(q-1).  Refuses past
    `_WINDOW_LIMIT` entries of length m."""
    if m < 1:
        raise ValueError("window length must be >= 1")
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    rows = int(d_min <= 0) + sum(
        q ** (2 * d - 1) * (q - 1) for d in range(max(d_min, 1), d_max + 1)
    )
    if rows * m > _WINDOW_LIMIT:
        raise ValueError(
            f"the {rows} Farey windows of length {m} exceed their bound of "
            f"{_WINDOW_LIMIT} entries"
        )
    return rows


def farey_window_blocks(field: FieldSpec, d_min: int, d_max: int, m: int):
    """`farey_windows` as consecutive `FareyWindows` blocks, in its order: first
    the row of 0/1 (none when d_min > 0), then, degree by degree, the reduced
    fractions over a block of consecutive denominators g, of about `_BLOCK`
    window entries.

    The digit x_{-j} of a/g is the t^(d-1) coefficient of t^(j-1) a mod g, so a
    Hankel matrix H_g maps the coefficient row of a to its window, and one
    product of every nonzero numerator against H_g for every g of a block gives
    the windows of all those pairs.  The pair is reduced exactly when its first
    2 d_max digits are those of no reduced fraction b/h with 0 < deg h < d.  If
    a/g is not reduced, it is such a b/h.  If it is reduced, the two are
    distinct and |a/g - b/h| = |ah - bg| / |gh| >= q^(-d - deg h) > q^(-2 d_max),
    so they differ in one of those digits.  So only the keys of the lower
    degrees are kept.  Refuses past `_WINDOW_LIMIT` entries of the windows it
    computes, max(m, 2 d_max) digits over every degree up to d_max, before it
    builds anything (`farey_window_rows`).
    """
    width = max(m, 2 * d_max)
    farey_window_rows(field.q, min(d_min, 1), d_max, width)
    q = field.q
    zero = np.zeros(int(d_min <= 0), dtype=np.int64)
    yield FareyWindows(field, zero, zero, np.zeros((len(zero), m), dtype=np.int64), zero)
    # the sorted keys of the reduced fractions of lower degrees, after a sentinel
    lower = np.full(1, -1, dtype=np.int64)
    for d in range(1, d_max + 1):
        A = digits(np.arange(1, q**d, dtype=np.int64), q, d)  # every nonzero numerator
        step = max(1, _BLOCK // (len(A) * width))  # denominators per block
        keys = []
        for start in range(0, q**d, step):
            G = digits(np.arange(start, min(start + step, q**d), dtype=np.int64), q, d)
            # h[j, k] = [t^(d-1)] (t^k mod g_j)
            h = remainder_bases(field, G, d + width - 2)[:, :, d - 1]
            hankel = h[:, np.arange(d)[:, None] + np.arange(width)]
            pairs = matmul(field, A, hankel).reshape(-1, width)  # row (g - start, a - 1)
            # the bound holds q^(2 d_max) < 2^24, so the keys fit in int64
            key = undigits(pairs[:, : 2 * d_max], q)
            # by search, where np.isin would sort a block and import numpy.ma to do it
            reduced = np.flatnonzero(lower.take(np.searchsorted(lower, key), mode="clip") != key)
            if d < d_max:
                keys.append(key[reduced])
            if d >= d_min:
                g, a = np.divmod(reduced, q**d - 1)
                windows = pairs[reduced, :m]
                del pairs  # not held while the block is read
                degs = np.full(len(g), d, dtype=np.int64)
                yield FareyWindows(field, start + g, a + 1, windows, degs)
        lower = np.sort(np.concatenate([lower, *keys]))


def farey_windows(field: FieldSpec, d_min: int, d_max: int, m: int) -> FareyWindows:
    """The points of `farey_enumerate` with d_min <= deg g <= d_max and their
    digit windows, in the same order: by deg g, then by the codes of g and a.
    The blocks of `farey_window_blocks`, concatenated; `farey_enumerate` with
    `frac_digits` is the reference.
    """
    return FareyWindows.concatenate(farey_window_blocks(field, d_min, d_max, m))


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
    start = undigits(prefix[keep, n - 1 :: -1], q)  # x_{-1} most significant
    order = np.argsort(start)
    start, end = start[order], (start + q ** np.maximum(n - e[keep], 0))[order]
    return bool(start[0] == 0 and end[-1] == q**n and np.array_equal(start[1:], end[:-1]))


# ---------------------------------------------------------------------------
# error at the arc centres against the major-arc main term

def lemma1_errors(field: FieldSpec, n: int) -> tuple:
    """S(a/g + gamma) against its major-arc main term at every centre a/g of
    level n, for gamma = 0 and for the widest offset gamma = t^(-k) inside the
    arc, k = arc_exponent(deg g, n) + 1.

    Returns (fw, main, error, bound): the centres as `farey_windows` rows, the
    main terms and the errors S - main as (rows, 2) complex arrays, column 1 at
    the offset, and the square-root cancellation bound q^(n - floor(n/2)/2).
    Digits add without carries, so the window of a/g + t^(-k) is that of a/g
    with x_{-k} raised by 1; deg g <= n/2 puts k <= n+1 inside the window.  The
    main term mu(g)/phi(g) pi(n) e(t^n gamma) is present at gamma = 0, and at
    the offset only when |gamma| < q^(-n), that is k = n+1, where
    e(t^n gamma) = psi(1).
    """
    # both bounds before any window or list is built, then S's table
    farey_window_rows(field.q, 0, n // 2, n + 1)
    irreducible_counts(field, n)
    fw = farey_windows(field, 0, n // 2, n + 1)
    pi = prime_count(field, n)
    ratio = np.zeros(len(fw))
    for d in range(n // 2 + 1):
        mu, phi = mobius_phi(field, d)
        at = fw.degs == d
        ratio[at] = mu[fw.g_codes[at]] * pi / phi[fw.g_codes[at]]
    k = arc_exponent(fw.degs, n) + 1
    rows = np.arange(len(fw))
    shifted = fw.windows.copy()
    shifted[rows, k - 1] = add(field, shifted[rows, k - 1], 1)
    # each centre, then its offset
    windows = np.stack([fw.windows, shifted], axis=1).reshape(-1, n + 1)
    S = s_at_window(field, n, windows).reshape(-1, 2)
    offset = np.where(k == n + 1, field.psi(1), 0)
    main = ratio[:, None] * np.stack([np.ones(len(fw)), offset], axis=1)
    return fw, main, S - main, field.q ** (n - n // 2 / 2)


def lemma5_ratio(field: FieldSpec, d: int) -> tuple:
    """(q^d / phi(g) for every monic g of degree d >= 1, in `enumerate_monic`
    order, and (1 + log_q d) * e)."""
    if d < 1:
        raise ValueError("need deg g >= 1")
    q = field.q
    return q**d / mobius_phi(field, d)[1], (1 + math.log(d, q)) * math.e


# ---------------------------------------------------------------------------
# the orthogonality-identity count

def orthogonality_count(R: RestrictedSet, n: int) -> int:
    """Count restricted irreducibles through the discrete orthogonality average.

    The average of S(x) conj(S_R(x)) over the q^(n+1) points x = a/t^(n+1) is
    exact in integers.  With C the `residue_counts` of the irreducibles and C_R
    those of the allowed monics (a tensor product of one allowed-digit row per
    coefficient), psi(x_{-n-1}) cancels and the average is
    q^(-n) sum_k T_k e(k/p), T_k = sum_x sum_r C[x, r] C_R[x, r - k].  x -> c x
    for c in F_p^* gives T_k = T_{k/c}, so the count is (T_0 - T_1) / q^n; T_k
    that differ at k != 0, or a remainder, raise `NumericalError`.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    spec = R.spec
    C = irreducible_counts(spec, n)  # checks the bound before anything is listed
    allowed = np.isin(np.arange(spec.q), R.complement)
    C_R = residue_counts(spec, n, reduce(np.outer, [allowed] * n, np.ones(1, bool)).ravel())
    # q^n <= 2^20 under the bound, so T_k <= q^n pi(n) (q - s)^n < 2^60 is exact in int64
    M = C.T @ C_R  # M[r, r'] = sum_x C[x, r] C_R[x, r']
    T = [int(np.trace(np.roll(M, k, axis=1))) for k in range(spec.p)]
    count, rest = divmod(T[0] - T[1], spec.q**n)
    if len(set(T[1:])) > 1 or rest:
        raise NumericalError(f"T_k = {T} differ at k != 0, or q^n does not divide T_0 - T_1")
    return count
