"""The ring F_q[t]: arithmetic, gcd, Rabin's irreducibility test, the product
sieve (irreducible lists, Mobius and totient), and enumeration.  The
remainder-code sieve, its irreducible lists and their count are in `sieve`.

Polynomials are immutable dense coefficient tuples (ascending powers of t) of
field element codes.  The zero polynomial is the empty tuple with degree -1.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .field import FieldError, FieldSpec, digits, is_prime, matmul, undigits
from .sieve import _BLOCK, _divisors, irreducible_codes
from .sieve import prime_count  # noqa: F401  perfbench's self-tests read it from here


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def t(cls, field, power: int = 1):
        return cls(field, (0,) * power + (1,))

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def norm(self) -> int:
        """|f| = q^deg f, with |0| = 0."""
        return 0 if self.is_zero else self.field.q ** self.degree

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- arithmetic ----------------------------------------------------------

    def _same(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldError("polynomials over different fields")

    def __add__(self, other):
        self._same(other)
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(F, (F.add(self[i], other[i]) for i in range(n)))

    def __neg__(self):
        F = self.field
        return Poly(F, (F.neg(c) for c in self.coeffs))

    def __sub__(self, other):
        self._same(other)
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(F, (F.sub(self[i], other[i]) for i in range(n)))

    def __mul__(self, other):
        self._same(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.field)
        F = self.field
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Poly(F, out)

    def scale(self, c: int) -> "Poly":
        F = self.field
        return Poly(F, (F.mul(c, x) for x in self.coeffs))

    def shift(self, j: int) -> "Poly":
        """Multiply by t^j."""
        if self.is_zero:
            return self
        return Poly(self.field, (0,) * j + self.coeffs)

    def __divmod__(self, other):
        self._same(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        dg = other.degree
        inv_lead = F.inv(other.leading)
        rem = list(self.coeffs)
        quo = [0] * max(len(rem) - dg, 0)
        for i in range(len(rem) - 1, dg - 1, -1):
            c = rem[i]
            if c:
                c = F.mul(c, inv_lead)
                quo[i - dg] = c
                for j in range(dg + 1):
                    rem[i - dg + j] = F.sub(rem[i - dg + j], F.mul(c, other.coeffs[j]))
        return Poly(F, quo), Poly(F, rem[:dg])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        return self.scale(self.field.inv(self.leading))

    # -- identity / display --------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"Poly({self.format()!r})"

    def format(self) -> str:
        """Comma-separated coefficients, constant term first."""
        if self.is_zero:
            return self.field.format_element(0)
        return ",".join(self.field.format_element(c) for c in self.coeffs)

    @classmethod
    def parse(cls, field: FieldSpec, text: str) -> "Poly":
        text = text.strip()
        if "[" in text:
            parts, depth, cur = [], 0, ""
            for ch in text:
                if ch == "," and depth == 0:
                    parts.append(cur)
                    cur = ""
                    continue
                if ch == "[":
                    depth += 1
                if ch == "]":
                    depth -= 1
                cur += ch
            parts.append(cur)
        else:
            parts = text.split(",")
        return cls(field, (field.parse_element(p) for p in parts))


# ---------------------------------------------------------------------------
# gcd and modular powers

def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd; gcd(f, 0) is the monic normalization of f, gcd(0, 0) = 0."""
    while not g.is_zero:
        f, g = g, f % g
    if f.degree == 0:
        return Poly.one(f.field)
    return f.monic()


def pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    if e < 0:
        raise ValueError("negative exponent")
    result = Poly.one(base.field) % mod
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# irreducibility: Rabin's test

def is_irreducible(f: Poly) -> bool:
    """Rabin test: t^{q^n} = t mod f and gcd(t^{q^{n/l}} - t, f) = 1 for primes l | n."""
    if not f.is_monic or f.degree < 1:
        raise ValueError("irreducibility test needs a monic polynomial of degree >= 1")
    n = f.degree
    if n == 1:
        return True
    q = f.field.q
    t = Poly.t(f.field)
    check_at = {n // ell for ell in _divisors(n) if is_prime(ell)}
    h = t
    for j in range(1, n + 1):
        h = pow_mod(h, q, f)  # h = t^{q^j} mod f
        if j in check_at and poly_gcd(h - t, f).degree != 0:
            return False
    return h == t


# ---------------------------------------------------------------------------
# the product sieve: the irreducible lists that S reads, Mobius and totient

def _multiples(field: FieldSpec, W: np.ndarray, d: int):
    """The codes of the products w h, for every row w of W and every monic h of
    degree d - e, as int64 arrays yielded a block at a time; row w holds the
    non-leading coefficients w_0, ..., w_{e-1} of a monic w of degree e.

    Row i of the banded Toeplitz matrix of w is t^i w, so one matmul of a block
    of rows (h_0, ..., h_{d-e-1}, 1) with the matrices of a block of w forms
    all their products; no product holds more than `_BLOCK` entries.  Each
    product is monic of degree d, and its leading coefficient is not formed.
    """
    q, e = field.q, W.shape[1]
    m = d - e
    rows = max(1, _BLOCK // d)
    for i in range(0, len(W), rows):
        block = W[i : i + rows]
        T = np.zeros((m + 1, len(block), d + 1), dtype=np.int64)
        for k in range(m + 1):
            T[k, :, k : k + e] = block
            T[k, :, k + e] = 1
        T = T[:, :, :d].reshape(m + 1, -1)
        step = max(1, _BLOCK // T.shape[1])
        for lo in range(0, q**m, step):
            H = digits(np.arange(lo, min(lo + step, q**m), dtype=np.int64), q, m)
            H = np.concatenate([H, np.ones((len(H), 1), dtype=np.int64)], axis=1)
            yield undigits(matmul(field, H, T).reshape(-1, d), q)


@lru_cache(maxsize=None)
def irreducible_rows(field: FieldSpec, d: int) -> np.ndarray:
    """Coefficient rows (c_0, ..., c_{d-1}) of the monic irreducibles of degree
    d, by increasing code (`enumerate_monic` order), as a read-only int64 array.

    A monic of degree d is reducible exactly when it has an irreducible divisor
    of degree e <= d/2, so the irreducibles are the monics whose code no
    `_multiples` of this function's own list of degree e hits: a sieve of
    Eratosthenes by multiplication, which shares no list or table with
    `irreducible_codes` (trial division by remainder codes) or with Rabin's
    test (`is_irreducible`).  The tests compare all three.
    """
    if d < 1:
        return np.zeros((0, 0), dtype=np.int64)
    reducible = np.zeros(field.q**d, dtype=bool)
    for e in range(1, d // 2 + 1):
        for codes in _multiples(field, irreducible_rows(field, e), d):
            reducible[codes] = True
    rows = digits(np.flatnonzero(~reducible), field.q, d)
    rows.flags.writeable = False
    return rows


def irreducible_polys(field: FieldSpec, d: int) -> tuple:
    """All monic irreducibles of degree d as `Poly`, in enumeration order."""
    return tuple(Poly(field, row + [1]) for row in irreducible_rows(field, d).tolist())


# Most monics q^d of one degree that `mobius_phi` covers.  It admits every
# default check and q in {2, 3} up to degree 9.
_DIVISOR_LIMIT = 1 << 15


@lru_cache(maxsize=1)
def mobius_phi(field: FieldSpec, d: int) -> tuple:
    """(mu, phi) of every monic of degree d, as read-only int64 arrays indexed by
    the monic's code (`enumerate_monic` order), by a multiplicative sieve.

    The products w h over the monic h of degree d - e are the multiples of
    degree d of an irreducible w of degree e (`_multiples`, over the sieve list
    `irreducible_codes`); a monic's code then occurs once per irreducible
    divisor of degree e.  Counting the codes per degree gives omega, the number
    of distinct irreducible divisors, and sum e.  A monic is squarefree exactly
    when its e sum to d; then mu = (-1)^omega, and otherwise mu = 0.
    phi = q^(d - sum e) * prod (q^e - 1), exactly.  The cache keeps one degree,
    since the checks walk g by degree.
    """
    q = field.q
    if q**d > _DIVISOR_LIMIT:
        raise ValueError(
            f"the divisor sieve over the {q}^{d} monics of degree {d} "
            f"exceeds its bound of {_DIVISOR_LIMIT}"
        )
    omega, sum_e = (np.zeros(q**d, dtype=np.int64) for _ in range(2))
    phi = np.ones(q**d, dtype=np.int64)
    for e in range(1, d + 1):
        blocks = _multiples(field, irreducible_codes(field, e), d)
        divisors = sum(np.bincount(codes, minlength=q**d) for codes in blocks)
        omega += divisors
        sum_e += e * divisors
        phi *= (q**e - 1) ** divisors
    mu = np.where(sum_e == d, 1 - 2 * (omega % 2), 0)
    phi *= q ** (d - sum_e)
    for x in (mu, phi):
        x.flags.writeable = False
    return mu, phi


def _monic_code(f: Poly) -> int:
    """The code sum c_i q^i of the monic f, its index in `enumerate_monic` order."""
    if not f.is_monic:
        raise ValueError("need a monic polynomial")
    return int(undigits(f.coeffs[:-1], f.field.q))


def monic_of_code(field: FieldSpec, d: int, j: int) -> Poly:
    """The monic of degree d with code j (`_monic_code`)."""
    return Poly(field, digits(j, field.q, d) + (1,))


def mobius(f: Poly) -> int:
    """(-1)^(number of distinct irreducible factors) if squarefree, else 0."""
    return int(mobius_phi(f.field, f.degree)[0][_monic_code(f)])


def euler_phi(f: Poly) -> int:
    """Size of (F_q[t]/(f))^x, exactly: |f| * prod over divisors w (1 - 1/|w|)."""
    return int(mobius_phi(f.field, f.degree)[1][_monic_code(f)])


# ---------------------------------------------------------------------------
# enumeration

def enumerate_monic(field: FieldSpec, n: int, allowed=None):
    """Monic degree-n polynomials whose n non-leading coefficients lie in `allowed`.

    The j-th has c_i = A[digits(j, m, n)[i]], A the m allowed elements sorted:
    c_0 is the least significant digit, as in element codes and the census's
    candidate index.  With every element allowed, j is the monic's code
    (`_monic_code`).
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    allowed = tuple(field.elements()) if allowed is None else tuple(sorted(allowed))
    if not allowed:
        raise ValueError("allowed coefficient set must be nonempty")
    for high_first in product(allowed, repeat=n):
        yield Poly(field, high_first[::-1] + (1,))
