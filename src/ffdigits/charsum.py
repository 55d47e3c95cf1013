"""Exponential sums over restricted-coefficient polynomials and over
irreducibles, Fourier data of digit sets, and the pointwise/averaged bounds
used by the verification battery.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .field import FieldSpec, RestrictedSet, digits, madd, undigits
from .laurent import RationalPoint, e_q_of, frac_digits
from .polys import enumerate_monic, irreducible_rows

# Most entries p q^n of one `residue_counts` table.  It admits every default
# check, (q, n) = (17, 4), (3, 12), (2, 20) and lemma1 at q = 9, n = 5; the
# transform's temporaries then hold about three tables, ~50 MB at the bound.
_COUNTS_LIMIT = 1 << 21


# ---------------------------------------------------------------------------
# Fourier data

def fourier_indicator(spec: FieldSpec, A, r: int) -> complex:
    """sum_{a in A} psi(a * r)."""
    return sum(spec.psi(spec.mul(a, r)) for a in A)


@lru_cache(maxsize=None)
def digit_weights(R: RestrictedSet) -> tuple:
    """W[d] = sum_{c allowed} psi(c * d); one digit's factor in the product formula.

    The products c * d come as one row per allowed c, by increasing c (on prime
    fields reduced mod p, with no q x q table), and the rows are summed one after
    another, in the order of `fourier_indicator`'s loop, so W is that loop's.
    """
    spec = R.spec
    E = np.arange(spec.q, dtype=np.int64)
    products = madd(spec, 0, np.array(R.complement, dtype=np.int64)[:, None], E)
    return tuple(spec.psi_table[products].sum(axis=0).tolist())


# ---------------------------------------------------------------------------
# the sums S_R and S

def _windows(window, n: int) -> np.ndarray:
    w = np.asarray(window, dtype=np.int64)
    if w.shape[-1] < n + 1:
        raise ValueError(f"window of length {w.shape[-1]} too short for degree {n}")
    return w


def _result(values: np.ndarray, w: np.ndarray):
    return values if w.ndim > 1 else values.item()


def s_r_at(R: RestrictedSet, n: int, window):
    """S_R(x) from the digit-product formula, given x_{-1}..x_{-n-1}.

    `window` is one window or an (N, >= n+1) int64 array of windows; an array
    gives the N values.
    """
    w = _windows(window, n)
    W = np.array(digit_weights(R))
    # the monic leading term times one weight per lower digit
    return _result(R.spec.psi_table[w[..., n]] * W[w[..., :n]].prod(-1), w)


def s_r_definitional(R: RestrictedSet, n: int, x: RationalPoint) -> complex:
    """Brute-force S_R(x) straight from the definition; the oracle for s_r_at."""
    return sum(e_q_of(m, x) for m in enumerate_monic(R.spec, n, R.complement))


def _counts_entries(spec: FieldSpec, n: int) -> int:
    """p q^n, the entries of a `residue_counts` table; refuses past `_COUNTS_LIMIT`."""
    if spec.p * spec.q**n > _COUNTS_LIMIT:
        raise ValueError(f"F_{spec.q} residue counts of degree {n} pass {_COUNTS_LIMIT} entries")
    return spec.p * spec.q**n


def residue_counts(spec: FieldSpec, n: int, indicator) -> np.ndarray:
    """C[x, r]: the number of h with `indicator[h]` set and Tr(sum_j h_j x_j) = r,
    for every x in F_q^n, by its code sum_j x_j q^j as h, and r in F_p.  Tr is
    additive, so each coordinate in turn moves the entries at h_j along r by
    Tr(h_j x_j) and sums over h_j.  Refuses past `_COUNTS_LIMIT` before it allocates.
    """
    _counts_entries(spec, n)
    q, p, E = spec.q, spec.p, np.arange(spec.q)
    # back[h, x, r] = r - Tr(h x), the residue that moves to r
    back = (np.arange(p) - spec.trace_table[madd(spec, 0, E[:, None], E)][..., None]) % p
    C = np.zeros((q**n, p), dtype=np.int64)
    C[:, 0] = indicator
    for j in range(n):
        old = C.reshape(q ** (n - 1 - j), q, q**j, p)  # axis 1 holds coordinate j
        C = np.zeros_like(old)
        for h in range(q):
            C += old[:, h][:, :, back[h]].swapaxes(1, 2)
    return C.reshape(q**n, p)


@lru_cache(maxsize=1)
def irreducible_counts(spec: FieldSpec, n: int) -> np.ndarray:
    """Read-only `residue_counts` of the monic irreducibles of degree n, by their
    rows in `polys.irreducible_rows`, which are listed after the bound is checked."""
    indicator = np.zeros(_counts_entries(spec, n) // spec.p, dtype=bool)
    indicator[undigits(irreducible_rows(spec, n), spec.q)] = True
    C = residue_counts(spec, n, indicator)
    C.flags.writeable = False
    return C


def s_at_window(spec: FieldSpec, n: int, window):
    """S(x) from its digit window x_{-1}..x_{-n-1}, as `frac_digits` returns it.

    `window` is one window or an (N, >= n+1) int64 array of windows; an array
    gives the N values.  The t^{-1} coefficient of h*x is sum_j h_j x_{-j-1}
    plus x_{-n-1} from the leading h_n = 1, so S(x) is psi(x_{-n-1}) times
    sum_r e(r/p) `irreducible_counts`[code of x_{-1}..x_{-n}, r].
    """
    w = _windows(window, n)
    roots = np.exp(2j * np.pi * np.arange(spec.p) / spec.p)
    C = irreducible_counts(spec, n)[undigits(w[..., :n], spec.q)]
    return _result(spec.psi_table[w[..., n]] * (C @ roots), w)


def s_at(spec: FieldSpec, n: int, x: RationalPoint) -> complex:
    """S(x): the character sum over all monic irreducibles of degree n."""
    return s_at_window(spec, n, frac_digits(x, n + 1))


# ---------------------------------------------------------------------------
# averaged and pointwise bounds

def l1_average_closed_form(R: RestrictedSet, n: int) -> float:
    """Closed form for the average of |S_R| over the unit interval: the
    normalized L1 mass of the allowed set's Fourier coefficients, to the n."""
    return (sum(abs(w) for w in digit_weights(R)) / R.spec.q) ** n


def abs_s_r(R: RestrictedSet, windows: np.ndarray) -> np.ndarray:
    """|S_R| at every degree from digit windows x_{-1}..x_{-m}: column n-1 holds
    |S_R(x)| at degree n, the product of |W| over the first n digits (`s_r_at`;
    the leading term's character has modulus 1)."""
    return np.cumprod(np.abs(np.array(digit_weights(R)))[windows], axis=-1)


def l1_average_direct(R: RestrictedSet, n: int) -> float:
    """Average of |S_R(a/t^n)| over all q^n discretization points; the oracle."""
    q = R.spec.q
    windows = digits(np.arange(q**n, dtype=np.int64), q, n)
    return float(abs_s_r(R, windows)[:, n - 1].mean()) if n else 1.0


def cauchy_schwarz_bound(q: int, s: int, n: int) -> float:
    """(sqrt(s) + 1 - 2s/q)^n, an upper bound for the L1 average."""
    if not 0 <= s < q:
        raise ValueError("need 0 <= s < q")
    return (math.sqrt(s) + 1 - 2 * s / q) ** n


def consecutive_l1_bound(p: int, s: int, n: int) -> float:
    """(log p + 1 - s/p)^n, the L1 bound for a consecutive forbidden run."""
    return (math.log(p) + 1 - s / p) ** n


def lemma3_bound(q: int, s: int, n: int, d: int) -> int:
    """(q-s)^(n - floor(n/d)) * s^floor(n/d), exact."""
    if d < 1:
        raise ValueError("denominator degree must be >= 1")
    if s > q - s:
        raise ValueError(f"bound needs q - s >= s, got q={q}, s={s}")
    z = n // d
    return (q - s) ** (n - z) * s**z


def lemma6_bound(p: int, s: int, n: int, d: int) -> float:
    """(p-s)^n * exp(-floor(n/d)/p^3) for consecutive forbidden runs."""
    if d < 1:
        raise ValueError("denominator degree must be >= 1")
    return (p - s) ** n * math.exp(-(n // d) / p**3)


def nonzero_digit_count(x: RationalPoint, n: int) -> int:
    """Number of nonzero digits among x_{-1}, ..., x_{-n}."""
    if n < 1:
        return 0
    return sum(1 for d in frac_digits(x, n) if d)
