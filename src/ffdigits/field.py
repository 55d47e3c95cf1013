"""Arithmetic in the finite field F_q (q = p^k), its trace map and additive character.

Elements are stored as integer codes in [0, q): an element with polynomial-basis
coordinates (c_0, ..., c_{k-1}) relative to the defining modulus has code
sum_i c_i * p^i.  For prime fields the code is just the residue, so ordinary
integers double as field elements.  All operations keep elements fully reduced.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

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
        return (value[..., None] // base ** np.arange(width, dtype=np.int64)) % base
    out = []
    for _ in range(width):
        value, d = divmod(value, base)
        out.append(d)
    return tuple(out)


def negate(field: FieldSpec, A: np.ndarray) -> np.ndarray:
    """-A over F_q for an int64 array of element codes, coordinate by coordinate."""
    p, k = field.p, field.k
    return (-digits(A, p, k) % p) @ p ** np.arange(k, dtype=np.int64)


def matmul(field: FieldSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B over F_q for int64 arrays of element codes.

    Prime fields reduce the integer product mod p, which is exact while
    A.shape[1] * (p - 1)^2 < 2^63 and needs no q x q table; extension fields
    go through the op tables.
    """
    if field.k == 1:
        return (A @ B) % field.p
    mul, add = field.mul_table, field.add_table
    out = np.zeros((len(A), B.shape[1]), dtype=np.int64)
    for i in range(A.shape[1]):
        out = add[out, mul[A[:, i, None], B[i]]]
    return out


def _irreducible_over_prime_field(modulus: tuple, p: int) -> bool:
    from .polys import Poly, is_irreducible

    return is_irreducible(Poly(get_field(p), modulus))


@lru_cache(maxsize=None)
def default_modulus(p: int, k: int) -> tuple:
    """The monic irreducible of degree k over F_p that is smallest by element
    code, constant term least significant."""
    for v in range(p**k):
        modulus = digits(v, p, k) + (1,)
        if _irreducible_over_prime_field(modulus, p):
            return modulus
    raise FieldError(f"no irreducible modulus of degree {k} over F_{p}")  # unreachable


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
            if modulus is None:
                modulus = default_modulus(p, k)
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise FieldError("modulus must be monic of degree k")
            if not _irreducible_over_prime_field(modulus, p):
                raise FieldError("modulus is reducible over the prime field")
            self.modulus = modulus
        self._mul_table = None
        self._add_table = None
        self._inv_table = None
        self._trace_table = None
        self._psi_table = None

    # -- identity / serialization -------------------------------------------

    def _key(self):
        return (self.p, self.k, self.modulus)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return (FieldSpec, (self.p, self.k, self.modulus))

    def __repr__(self):
        return f"FieldSpec({self.spec_string()!r})"

    def spec_string(self) -> str:
        """`p^k:m_0,...,m_k` wire form, modulus omitted for prime fields."""
        if self.k == 1:
            return str(self.p)
        mods = ",".join(str(c) for c in self.modulus)
        return f"{self.p}^{self.k}:{mods}"

    @classmethod
    def from_string(cls, text: str) -> "FieldSpec":
        text = text.strip()
        if "^" not in text:
            return cls.from_q(int(text))
        head, _, tail = text.partition(":")
        ps, _, ks = head.partition("^")
        p, k = int(ps), int(ks)
        modulus = tuple(int(c) for c in tail.split(",")) if tail else None
        return cls(p, k, modulus)

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
        a = 0
        for c in reversed(list(coords)):
            a = a * self.p + (c % self.p)
        return a

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
            if len(coords) > self.k:
                raise FieldError(f"too many coordinates in {text!r}")
            a = self.encode(coords)
        else:
            a = int(text)
        self._check(a)
        return a

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self.add_table[a, b].item()

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self.encode((-c) % self.p for c in self.coords(a))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        return self.mul_table[a, b].item()

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return int(self.inv_table[a])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

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
        if self.k == 1:
            self._check(a)
            return a
        return int(self.trace_table[a])

    def psi(self, a: int) -> complex:
        """The additive character exp(2*pi*i*trace(a)/p)."""
        return self.psi_table[a].item()

    # -- dense op tables (also reused by the census) -------------------------

    # Multiplication by t and addition are F_p-linear on coordinates, so both
    # tables are built from the coordinate array of all q elements.

    @property
    def mul_table(self) -> np.ndarray:
        if self._mul_table is None:
            p, k = self.p, self.k
            C = digits(np.arange(self.q, dtype=np.int64), p, k)
            # shifted[i][a] holds the coordinates of t^i * a; shifting by one
            # replaces c_{k-1} t^k with -c_{k-1} (m_0 + ... + m_{k-1} t^{k-1}).
            shifted = [C]
            for _ in range(k - 1):
                last = shifted[-1]
                up = np.zeros_like(last)
                up[:, 1:] = last[:, :-1]
                shifted.append((up - last[:, -1:] * np.array(self.modulus[:k])) % p)
            X = np.stack(shifted)
            # a * b = sum_i b_i (t^i * a), one coordinate j at a time
            self._mul_table = sum(p**j * ((C @ X[:, :, j]) % p) for j in range(k))
        return self._mul_table

    @property
    def add_table(self) -> np.ndarray:
        if self._add_table is None:
            p = self.p
            C = digits(np.arange(self.q, dtype=np.int64), p, self.k)
            self._add_table = sum(
                p**j * ((C[:, None, j] + C[None, :, j]) % p) for j in range(self.k)
            )
        return self._add_table

    @property
    def inv_table(self) -> np.ndarray:
        if self._inv_table is None:
            # the inverse of a is the column where row a of mul_table holds 1;
            # row 0 has none, and argmax leaves its entry at 0
            self._inv_table = np.argmax(self.mul_table == 1, axis=1).astype(np.int64)
        return self._inv_table

    @property
    def trace_table(self) -> np.ndarray:
        if self._trace_table is None:
            # the trace is F_p-linear: tr(a) = sum_i c_i tr(t^i) for coordinates c
            basis = []
            for i in range(self.k):
                acc, frob = 0, self.p**i  # the code of t^i
                for _ in range(self.k):
                    acc = self.add(acc, frob)
                    frob = self.pow(frob, self.p)
                if acc >= self.p:
                    raise FieldError("trace left the prime subfield")  # sanity
                basis.append(acc)
            C = digits(np.arange(self.q, dtype=np.int64), self.p, self.k)
            self._trace_table = (C @ np.array(basis, dtype=np.int64)) % self.p
        return self._trace_table

    @property
    def psi_table(self) -> np.ndarray:
        """psi(a) for every element code a, as a complex128 array."""
        if self._psi_table is None:
            roots = np.array([cmath.exp(2j * cmath.pi * r / self.p) for r in range(self.p)])
            traces = np.arange(self.q) if self.k == 1 else self.trace_table
            self._psi_table = roots[traces]
        return self._psi_table


@lru_cache(maxsize=None)
def get_field(p: int, k: int = 1, modulus=None) -> FieldSpec:
    """Interned FieldSpec constructor, so worker processes share table work."""
    return FieldSpec(p, k, modulus)
