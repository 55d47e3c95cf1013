"""Exponential sums over restricted-coefficient polynomials and over
irreducibles, Fourier data of digit sets, and the pointwise/averaged bounds
used by the verification battery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .field import FieldSpec, add, digits, matmul
from .laurent import RationalPoint, e_q_of, frac_digits
from .polys import Poly, enumerate_monic, irreducible_rows, prime_count

# Largest (window x irreducible) product, in entries, that `s_at_window` forms
# at once.  At 2^15 the temporaries of one block added ~1 MB to the peak RSS of
# a q=3, n=6 orthogonality count; at 2^13 they add ~0.1 MB, at the same speed.
_BLOCK = 1 << 13


def local_factor(q: int, s: int, zero_in_R: bool) -> Fraction:
    """Lambda, the local correction at t: 1 when 0 is forbidden, else 1 - 1/(q - s)."""
    if zero_in_R:
        return Fraction(1)
    return 1 - Fraction(1, q - s)


@dataclass(frozen=True)
class RestrictedSet:
    """A forbidden coefficient set R inside F_q."""

    spec: FieldSpec
    forbidden: frozenset = dc_field(default_factory=frozenset)

    def __post_init__(self):
        bad = [c for c in self.forbidden if not 0 <= c < self.spec.q]
        if bad:
            raise ValueError(f"forbidden codes out of range: {bad}")
        if len(self.forbidden) >= self.spec.q:
            raise ValueError("the allowed coefficient set must be nonempty")

    @classmethod
    def of(cls, spec: FieldSpec, *codes) -> "RestrictedSet":
        return cls(spec, frozenset(codes))

    @classmethod
    def parse(cls, spec: FieldSpec, text: str) -> "RestrictedSet":
        text = text.strip()
        if not text:
            return cls(spec, frozenset())
        return cls(spec, frozenset(spec.parse_element(tok) for tok in text.split(",")))

    @property
    def s(self) -> int:
        return len(self.forbidden)

    @property
    def complement(self) -> tuple:
        return tuple(c for c in self.spec.elements() if c not in self.forbidden)

    @property
    def zero_in_R(self) -> bool:
        return 0 in self.forbidden

    @property
    def lam(self) -> Fraction:
        return local_factor(self.spec.q, self.s, self.zero_in_R)

    @property
    def is_consecutive(self) -> bool:
        """True for a nonempty cyclic run r, r+1, ..., r+s-1 in a prime field."""
        if self.spec.k != 1 or not self.forbidden:
            return False
        p = self.spec.q
        if self.s == p - 1:
            return True
        members = self.forbidden
        starts = [c for c in members if (c - 1) % p not in members]
        return len(starts) == 1

    def format(self) -> str:
        return ",".join(self.spec.format_element(c) for c in sorted(self.forbidden))


# ---------------------------------------------------------------------------
# Fourier data

def fourier_indicator(spec: FieldSpec, A, r: int) -> complex:
    """sum_{a in A} psi(a * r)."""
    return sum(spec.psi(spec.mul(a, r)) for a in A)


@lru_cache(maxsize=None)
def digit_weights(R: RestrictedSet) -> tuple:
    """W[d] = sum_{c allowed} psi(c * d); one digit's factor in the product formula."""
    spec = R.spec
    comp = R.complement
    return tuple(fourier_indicator(spec, comp, d) for d in spec.elements())


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


def s_at_window(spec: FieldSpec, n: int, window):
    """S(x) from its digit window x_{-1}..x_{-n-1}, as `frac_digits` returns it.

    `window` is one window or an (N, >= n+1) int64 array of windows; an array
    gives the N values.  The t^{-1} coefficient of h*x is sum_j h_j x_{-j-1},
    so one F_q product against the coefficient rows of the irreducibles h
    gives every character argument at once; the leading h_n = 1 adds x_{-n-1}.
    The windows go in row blocks of at most `_BLOCK` (window x irreducible)
    entries, and at least one row.
    """
    w = _windows(window, n)
    W = np.atleast_2d(w)
    H = irreducible_rows(spec, n).T
    step = max(1, _BLOCK // max(1, H.shape[1]))
    out = np.empty(len(W), dtype=complex)
    for lo in range(0, len(W), step):
        rows = W[lo : lo + step]
        acc = matmul(spec, rows[:, :n], H)
        out[lo : lo + step] = spec.psi_table[add(spec, acc, rows[:, n, None])].sum(-1)
    return _result(out, w)


def s_at(spec: FieldSpec, n: int, x: RationalPoint) -> complex:
    """S(x): the character sum over all monic irreducibles of degree n."""
    if x.is_zero:
        return complex(prime_count(spec, n))
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
