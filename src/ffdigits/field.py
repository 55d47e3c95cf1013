"""Arithmetic in the finite field F_q (q = p^k), its trace map and additive
character, and the forbidden coefficient sets R inside F_q with their local factor.

Elements are stored as integer codes in [0, q): an element with polynomial-basis
coordinates (c_0, ..., c_{k-1}) relative to the defining modulus has code
sum_i c_i * p^i.  For prime fields the code is just the residue, so ordinary
integers double as field elements.  All operations keep elements fully reduced.

The array primitives (negate, add, madd, matmul) broadcast like numpy and
are the only place that chooses between reducing integers mod p (prime fields)
and gathering from the q x q op tables (extension fields).
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import cached_property, lru_cache

import numpy as np

# Extension fields larger than this would need prohibitively large op tables.
_TABLE_LIMIT = 4096


class FieldError(ValueError):
    """Invalid field construction or mixed-field operands."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_power(q: int) -> tuple:
    """(p, k) with q = p^k; FieldError if q is not a prime power."""
    if q >= 2:
        p = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)
        k, w = 0, q
        while w % p == 0:
            w //= p
            k += 1
        if w == 1:
            return p, k
    raise FieldError(f"{q} is not a prime power")


def digits(value, base: int, width: int):
    """The `width` base-`base` digits of `value`, least significant first.

    An int gives a tuple of ints; an int64 array of shape S gives an int64
    array of shape S + (width,).
    """
    if isinstance(value, np.ndarray):
        out = value[..., None] // base ** np.arange(width, dtype=np.int64)
        out %= base  # in place: no second array of the output's size
        return out
    out = []
    for _ in range(width):
        value, d = divmod(value, base)
        out.append(d)
    return tuple(out)


def undigits(rows, base: int, dtype=np.int64) -> np.ndarray:
    """The values whose base-`base` digits, least significant first, lie along the last
    axis of `rows`, by Horner's rule in `dtype`, which must hold them: `digits` inverted."""
    rows = np.asarray(rows)
    out = rows[..., -1].astype(dtype) if rows.shape[-1] else np.zeros(rows.shape[:-1], dtype)
    for j in range(rows.shape[-1] - 2, -1, -1):
        np.multiply(out, base, out=out, casting="unsafe")
        np.add(out, rows[..., j], out=out, casting="unsafe")
    return out


def _mod(X, p: int):
    """X mod p, in place on the caller's own X: numpy vectorizes // by a scalar, not %."""
    # where a single % costs less than three calls; np.size would build an array from an int
    if isinstance(X, int) or X.size < 1024:
        return X % p
    Q = X // p
    X -= np.multiply(Q, p, out=Q)
    return X


def negate(field: FieldSpec, A: np.ndarray) -> np.ndarray:
    """-A over F_q, elementwise."""
    if field.k == 1:
        return _mod(-A, field.p)
    return field.neg_table[A]


def add(field: FieldSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A + B over F_q, elementwise."""
    if field.k == 1:
        return _mod(A + B, field.p)
    return field.add_table[A, B]


def madd(field: FieldSpec, C: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """C + A B over F_q, elementwise."""
    if field.k == 1:
        return _mod(C + A * B, field.p)
    return field.add_table[C, field.mul_table[A, B]]


def matmul(field: FieldSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B over F_q, broadcasting leading (batch) dimensions like numpy.

    Prime fields reduce the integer product mod p, which is exact while
    A.shape[-1] * (p - 1)^2 < 2^63 and needs no q x q table; extension fields
    accumulate one column of A times one row of B at a time.
    """
    if field.k == 1:
        return _mod(A @ B, field.p)
    out = A[..., :0] @ B[..., :0, :]  # zeros in the broadcast output shape
    for i in range(A.shape[-1]):
        out = madd(field, out, A[..., i, None], B[..., i, None, :])
    return out


class FieldSpec:
    """The field F_q with q = p^k elements, with all scalar ops on element codes."""

    def __init__(self, p: int, k: int = 1, modulus=None):
        if not is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        if k < 1:
            raise FieldError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.q = p**k
        if k == 1:
            if modulus is not None:
                raise FieldError("modulus only applies to extension fields")
            self.modulus = None
        else:
            if self.q > _TABLE_LIMIT:
                raise FieldError(f"extension field of size {self.q} unsupported")
            from .sieve import irreducible_codes  # sieve imports this module

            # the monic irreducibles of degree k over F_p, by increasing code
            listed = irreducible_codes(get_field(p), k)
            if modulus is None:
                # the smallest by code, constant term least significant
                modulus = tuple(listed[0].tolist()) + (1,)
            else:
                modulus = tuple(c % p for c in modulus)
                if len(modulus) != k + 1 or modulus[-1] != 1:
                    raise FieldError("modulus must be monic of degree k")
                if not (listed == modulus[:k]).all(axis=1).any():
                    raise FieldError("modulus is reducible over the prime field")
            self.modulus = modulus

    # -- identity / serialization -------------------------------------------

    def _key(self):
        return (self.p, self.k, self.modulus)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"FieldSpec({self.spec_string()!r})"

    def spec_string(self) -> str:
        """`p^k:m_0,...,m_k` wire form, modulus omitted for prime fields."""
        if self.k == 1:
            return str(self.p)
        mods = ",".join(str(c) for c in self.modulus)
        return f"{self.p}^{self.k}:{mods}"

    @classmethod
    def from_q(cls, q: int, modulus=None) -> "FieldSpec":
        """Build F_q from the prime power q alone."""
        p, k = prime_power(q)
        return cls(p, k, modulus)

    # -- element coding ------------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def coords(self, a: int) -> tuple:
        """Polynomial-basis coordinates (c_0, ..., c_{k-1}) of an element code."""
        self._check(a)
        return digits(a, self.p, self.k)

    def encode(self, coords) -> int:
        """The element code of coordinates (c_0, ..., c_{k-1}), each in [0, p)."""
        return int(undigits(coords, self.p))

    def _check(self, a: int):
        if not 0 <= a < self.q:
            raise FieldError(f"element code {a} out of range for {self.spec_string()}")

    def format_element(self, a: int) -> str:
        if self.k == 1:
            return str(a)
        return "[" + " ".join(str(c) for c in self.coords(a)) + "]"

    def parse_element(self, text: str) -> int:
        text = text.strip()
        if text.startswith("["):
            coords = [int(c) for c in text.strip("[]").split()]
            if not 1 <= len(coords) <= self.k or not all(0 <= c < self.p for c in coords):
                raise FieldError(f"{text!r} needs 1 to {self.k} coordinates in [0, {self.p})")
            a = self.encode(coords)
        else:
            a = int(text)
        self._check(a)
        return a

    # -- arithmetic ----------------------------------------------------------

    # the scalar ops are the array primitives applied to ints

    def add(self, a: int, b: int) -> int:
        return int(add(self, a, b))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        return int(negate(self, a))

    def mul(self, a: int, b: int) -> int:
        return int(madd(self, 0, a, b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return int(self.inv_table[a])

    def pow(self, a: int, e: int) -> int:
        """Power by repeated squaring; negative exponents invert first."""
        if e < 0:
            a, e = self.inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    # -- trace and characters ------------------------------------------------

    def trace(self, a: int) -> int:
        """Trace down to F_p, returned as a residue in [0, p)."""
        self._check(a)
        return int(self.trace_table[a])

    def psi(self, a: int) -> complex:
        """The additive character exp(2*pi*i*trace(a)/p)."""
        return self.psi_table[a].item()

    # -- dense op tables (also reused by the census) -------------------------

    # Multiplication by t, addition and negation are F_p-linear on coordinates,
    # so the tables are built from the coordinate array of all q elements.

    @cached_property
    def _coords(self) -> np.ndarray:
        return digits(np.arange(self.q, dtype=np.int64), self.p, self.k)

    @cached_property
    def mul_table(self) -> np.ndarray:
        p, k, C = self.p, self.k, self._coords
        # shifted[i][a] holds the coordinates of t^i * a; shifting by one
        # replaces c_{k-1} t^k with -c_{k-1} (m_0 + ... + m_{k-1} t^{k-1}).
        shifted = [C]
        for _ in range(k - 1):
            last = shifted[-1]
            up = np.zeros_like(last)
            up[:, 1:] = last[:, :-1]
            shifted.append((up - last[:, -1:] * np.array(self.modulus[:k])) % p)
        X = np.stack(shifted).astype(np.float64)
        # a * b = sum_i b_i (t^i * a), one coordinate j at a time: a (q, q, k)
        # array of coordinates would hold k times the table.  Each sum is at most
        # k (p - 1)^2, so float64 products, which numpy runs with BLAS, are exact
        C = C.astype(np.float64)
        return sum(p**j * ((C @ X[:, :, j]).astype(np.int64) % p) for j in range(k))

    @cached_property
    def add_table(self) -> np.ndarray:
        C = self._coords
        # one coordinate at a time, as in mul_table
        return sum(self.p**j * ((C[:, None, j] + C[None, :, j]) % self.p) for j in range(self.k))

    @cached_property
    def neg_table(self) -> np.ndarray:
        return undigits(-self._coords % self.p, self.p)

    @cached_property
    def inv_table(self) -> np.ndarray:
        # the inverse of a is the column where row a of mul_table holds 1;
        # row 0 has none, and argmax leaves its entry at 0
        return np.argmax(self.mul_table == 1, axis=1).astype(np.int64)

    @cached_property
    def trace_table(self) -> np.ndarray:
        """Tr(a) = a + a^p + ... + a^(p^(k-1)) for every element code a, by k - 1
        Frobenius steps over all codes at once; on prime fields, arange(p)."""
        trace = frob = np.arange(self.q, dtype=np.int64)
        for _ in range(self.k - 1):
            power = frob
            for _ in range(self.p - 1):
                power = self.mul_table[power, frob]
            frob = power
            trace = add(self, trace, frob)
        if trace.max() >= self.p:
            raise FieldError("trace left the prime subfield")  # sanity
        return trace

    @cached_property
    def psi_table(self) -> np.ndarray:
        """psi(a) for every element code a, as a complex128 array."""
        roots = np.array([cmath.exp(2j * cmath.pi * r / self.p) for r in range(self.p)])
        return roots[self.trace_table]


@lru_cache(maxsize=None)
def get_field(p: int, k: int = 1, modulus=None) -> FieldSpec:
    """Interned FieldSpec constructor, so a field's tables and modulus are built once."""
    return FieldSpec(p, k, modulus)


# ---------------------------------------------------------------------------
# value records, the forbidden set R and its local factor

class Frozen:
    """Mixed into a namedtuple class ahead of it: an instance equals only instances of
    its own class with equal fields, as a frozen dataclass does, and hashes by its fields.
    A census builds its records from this and not from `dataclasses`, which it never loads."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


def local_factor(q: int, s: int, zero_in_R: bool) -> tuple:
    """Lambda, the local correction at t, as (numerator, denominator): 1 when 0 is
    forbidden, else 1 - 1/(q - s)."""
    return (1, 1) if zero_in_R else (q - s - 1, q - s)


class RestrictedSet(Frozen, namedtuple("RestrictedSet", "spec forbidden")):
    """A forbidden coefficient set R inside F_q."""

    __slots__ = ()

    def __new__(cls, spec: FieldSpec, forbidden: frozenset = frozenset()):
        bad = [c for c in forbidden if not 0 <= c < spec.q]
        if bad:
            raise ValueError(f"forbidden codes out of range: {bad}")
        if len(forbidden) >= spec.q:
            raise ValueError("the allowed coefficient set must be nonempty")
        return super().__new__(cls, spec, forbidden)

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
    def lam(self):
        """Lambda as a `Fraction`, imported here so that a census does not load it."""
        from fractions import Fraction

        return Fraction(*local_factor(self.spec.q, self.s, self.zero_in_R))

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
