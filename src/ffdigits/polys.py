"""The ring F_q[t]: arithmetic, gcd, irreducibility, the remainder-code sieve,
factorization and counting.

Polynomials are immutable dense coefficient tuples (ascending powers of t) of
field element codes.  The zero polynomial is the empty tuple with degree -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .field import FieldError, FieldSpec, digits, matmul, negate


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

    @classmethod
    def constant(cls, field, c: int):
        return cls(field, (c,))

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

    def derivative(self) -> "Poly":
        F = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            scalar = i % F.p  # prime-subfield scalar has code i mod p
            out.append(F.mul(scalar, self.coeffs[i]))
        return Poly(F, out)

    def __call__(self, x: int) -> int:
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

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
            return "0" if self.field.k == 1 else self.field.format_element(0)
        return ",".join(self.field.format_element(c) for c in self.coeffs)

    @classmethod
    def parse(cls, field: FieldSpec, text: str) -> "Poly":
        text = text.strip()
        if field.k > 1 and "[" in text:
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


def remainder_bases(field: FieldSpec, G: np.ndarray, n: int) -> np.ndarray:
    """t^j mod g for j = 0..n, for every monic g of one degree d at once.

    Row i of G holds the non-leading coefficients g_0..g_{d-1} of one g.  The
    result has shape (len(G), n+1, d); entry [i, j] is the coefficient row of
    t^j mod g_i, from the recurrence r_{j+1} = t r_j - top(r_j) g_i.  Prime
    fields reduce mod p; extension fields go through the op tables.
    """
    N, d = G.shape
    out = np.zeros((N, n + 1, d), dtype=np.int64)
    if d == 0:
        return out
    p, k = field.p, field.k
    minus_g = negate(field, G)
    r = np.zeros((N, d), dtype=np.int64)
    r[:, 0] = 1
    for j in range(n + 1):
        out[:, j] = r
        top = r[:, -1:]
        r = np.concatenate([np.zeros((N, 1), dtype=np.int64), r[:, :-1]], axis=1)
        if k == 1:
            r = (r + top * minus_g) % p
        else:
            r = field.add_table[r, field.mul_table[top, minus_g]]
    return out


def remainder_basis(g: Poly, n: int) -> np.ndarray:
    """Coefficient matrix of t^j mod g for j = 0..n, shape (n+1, deg g).

    Row j holds the remainder of t^j, so the coefficient row of any f with
    deg f <= n, multiplied into it over F_q, gives the coefficients of f mod g.
    """
    G = np.array(g.monic().coeffs[:-1], dtype=np.int64).reshape(1, -1)
    return remainder_bases(g.field, G, n)[0]


# ---------------------------------------------------------------------------
# irreducibility: Rabin's test, and the cached lists by Berlekamp's test

def _prime_factors(n: int) -> list:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f: Poly) -> bool:
    """Rabin test: t^{q^n} = t mod f and gcd(t^{q^{n/l}} - t, f) = 1 for primes l | n."""
    if not f.is_monic or f.degree < 1:
        raise ValueError("irreducibility test needs a monic polynomial of degree >= 1")
    n = f.degree
    if n == 1:
        return True
    q = f.field.q
    t = Poly.t(f.field)
    check_at = {n // ell for ell in _prime_factors(n)}
    h = t
    for j in range(1, n + 1):
        h = pow_mod(h, q, f)  # h = t^{q^j} mod f
        if j in check_at and poly_gcd(h - t, f).degree != 0:
            return False
    return h == t


# Largest block of remainder bases, in entries, built at once by the Berlekamp
# test.  At 2^16 the blocks' temporaries raised the peak RSS of the identity
# benchmark ops by 1 MB.  At 2^12 and 2^13 the peak moved by no more than the
# 0.35 MB by which the heap layout varies from build to build, and 2^13 saved
# only 4% of the wall time.
_BERLEKAMP_BLOCK = 1 << 12


def _batched_ops(field: FieldSpec):
    """comb(a, x, b, y) = a x - b y and vecmat(h, A) = h A over F_q, elementwise
    and per row, on int64 arrays of element codes."""
    if field.k == 1:
        p = field.p
        comb = lambda a, x, b, y: (a * x - b * y) % p  # noqa: E731
        vecmat = lambda h, A: (h[:, None, :] @ A)[:, 0] % p  # noqa: E731
        return comb, vecmat
    mul, add = field.mul_table, field.add_table
    neg = negate(field, np.arange(field.q, dtype=np.int64))

    def comb(a, x, b, y):
        return add[mul[a, x], neg[mul[b, y]]]

    def vecmat(h, A):
        acc = np.zeros_like(h)
        for i in range(h.shape[1]):
            acc = add[acc, mul[h[:, i, None], A[:, i]]]
        return acc

    return comb, vecmat


def _nullity_one(field: FieldSpec, Q: np.ndarray) -> np.ndarray:
    """rank(Q_f - I) == d - 1 for each d x d matrix Q_f of Q, by fraction-free
    Gaussian elimination over F_q, one column of every matrix per step."""
    N, d, _ = Q.shape
    comb, _ = _batched_ops(field)
    M = comb(1, Q, 1, np.eye(d, dtype=np.int64))
    rows = np.arange(N)
    free = np.ones((N, d), dtype=bool)  # rows not yet used as a pivot
    rank = np.zeros(N, dtype=np.int64)
    for c in range(d):
        nonzero = (M[:, :, c] != 0) & free
        has = nonzero.any(axis=1)
        piv = nonzero.argmax(axis=1)
        pivot_row = M[rows, piv]
        # every row r becomes pivot * r - r[c] * pivot_row, which clears column
        # c off the free rows and keeps their span; the pivot row itself becomes
        # zero and is never read again, and a matrix without a pivot is unchanged
        scale = np.where(has, pivot_row[:, c], 1)
        factor = np.where(has[:, None], M[:, :, c], 0)
        M = comb(scale[:, None, None], M, factor[:, :, None], pivot_row[:, None, :])
        free[rows[has], piv[has]] = False
        rank += has
    return rank == d - 1


def _fixes_t(field: FieldSpec, Q: np.ndarray, t_row: np.ndarray) -> np.ndarray:
    """t Q_f^d == t for each Q_f of Q, given the coefficient row of t mod f:
    that is, t^(q^d) = t mod f."""
    _, vecmat = _batched_ops(field)
    h = t_row
    for _ in range(Q.shape[1]):
        h = vecmat(h, Q)
    return (h == t_row).all(axis=1)


def _berlekamp_irreducible(field: FieldSpec, G: np.ndarray) -> np.ndarray:
    """Berlekamp's test on the monics t^d + g_{d-1} t^{d-1} + ... + g_0, one per
    row of G: a boolean mask of the irreducible ones.

    Row i of the Frobenius matrix Q_f is t^(iq) mod f.  h -> h^q is F_q-linear
    on F_q[t]/(f), since every coefficient is fixed by it, and the nullity of
    Q_f - I counts the distinct irreducible factors of f, squarefree or not.
    So f is irreducible or a proper power w^e when the rank is d - 1, and
    t^(q^d) = t mod f then rules out w^e: f divides t^(q^d) - t, which is
    squarefree.
    """
    d = G.shape[1]
    bases = remainder_bases(field, G, max(1, field.q * (d - 1)))
    Q = bases[:, : field.q * (d - 1) + 1 : field.q]
    keep = np.flatnonzero(_nullity_one(field, Q))
    keep = keep[_fixes_t(field, Q[keep], bases[keep, 1])]
    irreducible = np.zeros(len(G), dtype=bool)
    irreducible[keep] = True
    return irreducible


@lru_cache(maxsize=None)
def irreducible_rows(field: FieldSpec, d: int) -> np.ndarray:
    """Coefficient rows (c_0, ..., c_{d-1}) of the monic irreducibles of degree
    d, in `enumerate_monic` order, as a read-only int64 array, by a batched
    Berlekamp test over all q^d monics.

    The census sieve (`irreducible_codes`) and Rabin's test (`is_irreducible`)
    list the same polynomials by other tests; the tests compare all three.
    """
    if d < 1:
        return np.zeros((0, 0), dtype=np.int64)
    q = field.q
    # the bases of one monic hold at most (q (d-1) + 2) d entries
    step = max(1, _BERLEKAMP_BLOCK // ((q * (d - 1) + 2) * d))
    found = []
    for lo in range(0, q**d, step):
        # enumeration order puts c_0 most significant
        G = digits(np.arange(lo, min(lo + step, q**d), dtype=np.int64), q, d)[:, ::-1]
        found.append(G[_berlekamp_irreducible(field, G)])
    rows = np.concatenate(found)
    rows.flags.writeable = False
    return rows


def irreducible_polys(field: FieldSpec, d: int) -> tuple:
    """All monic irreducibles of degree d as `Poly`, in enumeration order."""
    return tuple(Poly(field, row + [1]) for row in irreducible_rows(field, d).tolist())


# ---------------------------------------------------------------------------
# the remainder-code sieve and the irreducible lists it builds

# Largest remainder matrix, in entries, built at once while tabulating codes.
_BLOCK = 1 << 20
# Candidates sieved at once while listing irreducibles.
_CANDIDATES = 1 << 15


def _codes(field, A: np.ndarray, basis: np.ndarray, d: int, out: np.ndarray):
    """Write into `out` the codes sum_i r_i q^i of the degree-<d remainders
    A @ basis, one per d columns of `basis`."""
    weights = field.q ** np.arange(d, dtype=np.int64)
    step = max(1, _BLOCK // basis.shape[1])
    for i in range(0, len(A), step):
        rem = matmul(field, A[i : i + step], basis)
        out[i : i + step] = rem.reshape(len(rem), -1, d) @ weights


def sieve_tables(field: FieldSpec, n: int, allowed: tuple) -> list:
    """Per degree d <= n/2: (lowcode, highcode) over the irreducibles of degree d.

    The candidate with index L + m^h H (m = len(allowed), h = n - n//2) is
    low_L + t^h high_H + t^n, where low_L carries c_0..c_{h-1} and high_H
    carries c_h..c_{n-1}.  lowcode[L, j] is the code of low_L mod g_j and
    highcode[H, j] the code of -(t^h high_H + t^n) mod g_j, so g_j divides the
    candidate exactly when the two codes are equal.
    """
    if n < 2:
        return []
    m, half = len(allowed), n // 2
    h = n - half
    low = np.array(allowed, dtype=np.int64)[digits(np.arange(m**h, dtype=np.int64), m, h)]
    # digit index m stands for the leading coefficient 1
    neg = np.array([field.neg(c) for c in allowed + (1,)], dtype=np.int64)
    high_idx = digits(np.arange(m**half, dtype=np.int64), m, half)
    high = neg[np.concatenate([high_idx, np.full((m**half, 1), m)], axis=1)]
    tables = []
    for d in range(1, half + 1):
        G = irreducible_codes(field, d)
        code_type = np.min_scalar_type(field.q**d - 1)
        lowcode = np.empty((len(low), len(G)), dtype=code_type)
        highcode = np.empty((len(high), len(G)), dtype=code_type)
        # the bases of all of G hold (n+1) d len(G) entries, which no budget counts
        step = max(1, _BLOCK // ((n + 1) * d))
        for i in range(0, len(G), step):
            bases = remainder_bases(field, G[i : i + step], n)
            basis = bases.transpose(1, 0, 2).reshape(n + 1, -1)  # d columns per g
            _codes(field, low, basis[:h], d, lowcode[:, i : i + step])
            _codes(field, high, basis[h:], d, highcode[:, i : i + step])
        tables.append((lowcode, highcode))
    return tables


def sieve(tables: list, idx: np.ndarray) -> np.ndarray:
    """The candidate indices L + m^h H (`sieve_tables`) whose codes agree for
    no irreducible of `tables`; the low tables have the m^h rows."""
    if not tables:
        return idx
    split = len(tables[0][0])
    L, H = idx % split, idx // split
    for lowcode, highcode in tables:
        keep = ~(lowcode[L] == highcode[H]).any(axis=1)
        L, H = L[keep], H[keep]
        if not len(L):
            break
    return L + split * H


@lru_cache(maxsize=None)
def irreducible_codes(field: FieldSpec, d: int) -> np.ndarray:
    """Coefficient rows (c_0, ..., c_{d-1}) of the monic irreducibles of degree
    d, in `enumerate_monic` order, as a read-only int64 array.

    The sieve over all q^d monics leaves exactly the irreducibles; its divisors
    are the irreducibles of degree <= d/2, listed by the same function, down to
    the q linear polynomials, which no stage removes.
    """
    if d < 1:
        return np.zeros((0, 0), dtype=np.int64)
    q = field.q
    tables = sieve_tables(field, d, tuple(field.elements()))
    found = [
        sieve(tables, np.arange(lo, min(lo + _CANDIDATES, q**d), dtype=np.int64))
        for lo in range(0, q**d, _CANDIDATES)
    ]
    rows = digits(np.concatenate(found), q, d)
    # candidate indices put c_0 least significant, enumeration most significant
    rows = rows[np.lexsort(rows.T[::-1])]
    rows.flags.writeable = False
    return rows


# ---------------------------------------------------------------------------
# factorization

@dataclass(frozen=True)
class Factorization:
    field: "FieldSpec"
    unit: int  # field element code
    factors: tuple  # ((Poly, multiplicity), ...) sorted by (degree, coeffs)

    def reassemble(self) -> Poly:
        out = Poly.constant(self.field, self.unit)
        for w, m in self.factors:
            for _ in range(m):
                out = out * w
        return out


def _pth_root(f: Poly) -> Poly:
    # f with zero derivative is g(t^p); coefficient p-th root is c^(q/p)
    F = f.field
    e = F.q // F.p
    return Poly(F, (F.pow(f[i * F.p], e) for i in range(f.degree // F.p + 1)))


def _equal_degree_split(f: Poly, d: int) -> list:
    """Split a monic product of distinct degree-d irreducibles.

    Trial elements come from a counter so runs are reproducible.
    """
    if f.degree == d:
        return [f]
    F = f.field
    one = Poly.one(F)
    counter = F.q  # first trial of degree >= 1
    while True:
        # the polynomial with code `counter`; it has at most bit_length digits
        r = Poly(F, digits(counter, F.q, counter.bit_length())) % f
        counter += 1
        if r.degree < 1:
            continue
        if F.p == 2:
            m = d * F.k
            s, acc = r, r
            for _ in range(m - 1):
                s = (s * s) % f
                acc = acc + s
            g = poly_gcd(acc, f)
        else:
            g = poly_gcd(pow_mod(r, (F.q**d - 1) // 2, f) - one, f)
        if 0 < g.degree < f.degree:
            return _equal_degree_split(g, d) + _equal_degree_split(f // g, d)


def _factor_squarefree(f: Poly) -> list:
    """Distinct-degree then equal-degree factorization of a monic squarefree f."""
    out = []
    F = f.field
    t = Poly.t(F)
    h = t
    d = 0
    while f.degree > 0:
        d += 1
        if 2 * d > f.degree:
            out.append(f)
            break
        h = pow_mod(h, F.q, f)
        g = poly_gcd(h - t, f)
        if g.degree > 0:
            out.extend(_equal_degree_split(g, d))
            f = f // g
            h = h % f
    return out


def factorize(f: Poly) -> Factorization:
    """Full factorization into monic irreducibles times a unit."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    unit = f.leading
    factors = {}

    def work(g: Poly, mult: int):
        if g.degree < 1:
            return
        dg = g.derivative()
        if dg.is_zero:
            work(_pth_root(g), mult * f.field.p)
            return
        squarefree = g // poly_gcd(g, dg)
        for w in _factor_squarefree(squarefree):
            m = 0
            while True:
                quo, rem = divmod(g, w)
                if not rem.is_zero:
                    break
                g = quo
                m += 1
            factors[w] = factors.get(w, 0) + mult * m
        if g.degree > 0:
            work(g, mult)  # leftover is a p-th power

    work(f.monic(), 1)
    ordered = tuple(sorted(factors.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs)))
    return Factorization(field=f.field, unit=unit, factors=ordered)


def mobius(f: Poly) -> int:
    """(-1)^(number of distinct irreducible factors) if squarefree, else 0."""
    if not f.is_monic:
        raise ValueError("mobius is defined for monic polynomials")
    if f.degree == 0:
        return 1
    fac = factorize(f)
    if any(m > 1 for _, m in fac.factors):
        return 0
    return -1 if len(fac.factors) % 2 else 1


def euler_phi(f: Poly) -> int:
    """Size of (F_q[t]/(f))^x, exactly: |f| * prod over factors (1 - 1/|w|)."""
    if not f.is_monic:
        raise ValueError("euler_phi is defined for monic polynomials")
    if f.degree == 0:
        return 1
    q = f.field.q
    out = 1
    for w, m in factorize(f).factors:
        d = w.degree
        out *= q ** (d * (m - 1)) * (q**d - 1)
    return out


# ---------------------------------------------------------------------------
# counting and enumeration

def int_mobius(n: int) -> int:
    """Integer Mobius function by trial factorization."""
    if n < 1:
        raise ValueError("int_mobius needs n >= 1")
    out = 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            out = -out
        f += 1
    if n > 1:
        out = -out
    return out


def _divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def prime_count(q, n: int) -> int:
    """pi(n) = (1/n) sum_{d|n} mu(n/d) q^d, exact in big integers."""
    if isinstance(q, FieldSpec):
        q = q.q
    if n < 1:
        raise ValueError("prime_count needs n >= 1")
    total = sum(int_mobius(n // d) * q**d for d in _divisors(n))
    assert total % n == 0
    return total // n


def enumerate_monic(field: FieldSpec, n: int, allowed=None):
    """Monic degree-n polynomials whose n non-leading coefficients lie in `allowed`.

    Yields in lexicographic order of the coefficient vector (c_0, ..., c_{n-1}).
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if allowed is None:
        allowed = tuple(field.elements())
    else:
        allowed = tuple(sorted(allowed))
        if not allowed:
            raise ValueError("allowed coefficient set must be nonempty")
    if n == 0:
        yield Poly.one(field)
        return
    for lower in product(allowed, repeat=n):
        yield Poly(field, lower + (1,))
