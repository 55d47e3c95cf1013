"""The remainder-code sieve: the census's sieve tables and stages, the lists of
monic irreducibles they divide by, and the count of those irreducibles.

A monic of degree n is split into a low and a high half, and g divides it
exactly when the codes of the two halves' remainders mod g agree
(`sieve_tables`, `sieve`).  The same sieve over all q^d monics of degree d
leaves the irreducibles (`irreducible_codes`), which also give the defining
moduli of the extension fields.  This module imports only `field`, so that a
census compiles nothing else.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import prod

import numpy as np

from .field import FieldSpec, _mod, add, digits, madd, matmul, negate, undigits


def remainder_bases(field: FieldSpec, G: np.ndarray, n: int) -> np.ndarray:
    """t^j mod g for j = 0..n, for every monic g of one degree d at once.

    Row i of G holds the non-leading coefficients g_0..g_{d-1} of one g.  The
    result has shape (len(G), n+1, d); entry [i, j] is the coefficient row of
    t^j mod g_i, from the recurrence r_{j+1} = t r_j - top(r_j) g_i.
    """
    N, d = G.shape
    out = np.zeros((N, n + 1, d), dtype=np.int64)
    if d == 0:
        return out
    minus_g = negate(field, G)
    r = np.zeros((N, d), dtype=np.int64)
    r[:, 0] = 1
    for j in range(n + 1):
        out[:, j] = r
        top = r[:, -1:]
        r = np.concatenate([np.zeros((N, 1), dtype=np.int64), r[:, :-1]], axis=1)
        r = madd(field, r, top, minus_g)
    return out



# ---------------------------------------------------------------------------
# the remainder-code sieve and the irreducible lists it builds

# Most entries that one step of a sieve holds at once: a block of remainder bases,
# a remainder product while tabulating codes, the low codes that a mark stage
# scatters or the inverse entries that it gathers, the codes that a compare stage
# compares, or a block of products w h in the product sieve.  Beyond its tables
# and its chunk, a census then holds a few such blocks.  On a host with 2 MB of L2
# per core, 2^16 and 2^17 sieved fastest of 2^14 ... 2^20 at q = 17, n = 6 and
# q = 3, n = 20 (2^20 took 3.5x as long at q = 17), and 2^16 holds less.
_BLOCK = 1 << 16
# Candidates sieved at once: one chunk of a census, or of the monics that
# `irreducible_codes` lists from.
_CHUNK = 1 << 15


def _codes(field, columns: list, bases: np.ndarray, out: np.ndarray):
    """Write to out[C, i], C in `digits` order of the choices of c_k from columns[k], the
    code sum_j r_j q^j of the remainder mod g_i of sum_k c_k t^e_k, bases[i, k] = t^e_k
    mod g_i.  Rows V grow a column at a time (`_column`), on prime fields unreduced in the
    narrowest type that holds len(columns) (p - 1)^2, then are reduced once and packed into
    out's type by `undigits`.  No V holds over `_BLOCK` entries: later columns are offsets."""
    q, d = field.q, bases.shape[2]
    prefix = np.cumprod([1] + [len(vals) for vals in columns])  # rows per g of k columns
    bound = len(columns) * (field.p - 1) ** 2 if field.k == 1 else q - 1
    acc = np.int16 if bound < 1 << 15 else np.int32 if bound < 1 << 31 else np.int64
    inner = max(1, int(np.searchsorted(prefix * d, _BLOCK, side="right"))) - 1
    rows = int(prefix[inner])  # V spans the first `inner` columns
    width = max(1, _BLOCK // (rows * d))
    bases = bases.transpose(1, 0, 2).astype(acc)
    for b in range(0, bases.shape[1], width):
        basis = bases[:, b : b + width].reshape(len(columns), -1)
        V = np.zeros((1, basis.shape[1]), dtype=acc)
        for vals, r in zip(columns[:inner], basis):
            V = _column(field, V, np.asarray(vals, dtype=acc), r)
        # one choice of the outer columns, most significant first, per block of rows
        for T, top in enumerate(product(*columns[inner:][::-1])):
            if top:
                X = add(field, V, matmul(field, np.array(top[::-1], dtype=acc), basis[inner:]))
            else:  # V is read once: reduced in place on prime fields, already on extensions
                X = _mod(V, field.p) if field.k == 1 else V
            codes = undigits(X.reshape(rows, -1, d), q, out.dtype)
            out[T * rows : (T + 1) * rows, b : b + codes.shape[1]] = codes
        del X, codes  # the next block's V is built without these


def _column(field, V: np.ndarray, vals: np.ndarray, r: np.ndarray) -> np.ndarray:
    """V + c r for every c of vals, as rows with c most significant; unreduced on prime fields."""
    V, vals = V[None], vals[:, None, None]
    return (vals * r + V if field.k == 1 else madd(field, V, vals, r)).reshape(-1, r.shape[-1])


def marks_degree(q: int, d: int, past: int, low: int) -> bool:
    """Whether `sieve_tables` marks degree d: its inverse's q^d * past slots hold <= 2 low,
    with `low` the low halves and `past` the low halves per choice of their first d digits."""
    return q**d * past <= 2 * low


def sieve_tables(field: FieldSpec, n: int, columns) -> tuple:
    """(split, marks, compares): one sieve stage per irreducible degree d <= n/2.

    columns[k] is the tuple of values that c_k takes, k < n, and candidate indices
    are mixed-radix over their sizes, c_0 least significant.  The candidate with
    index L + split H is low_L + t^h high_H + t^n, where low_L carries c_0..c_{h-1}
    and high_H carries c_h..c_{n-1}; h is the smallest h >= n//2 at which the
    split = |columns[0]| ... |columns[h-1]| low halves are at least as many as the
    high halves (h = n - n//2 for m >= 2 values in every column).
    lowcode[L, j] is the code of low_L mod g_j and highcode[H, j] the code of
    -(t^h high_H + t^n) mod g_j, so g_j divides the candidate exactly when the two
    codes are equal; `_codes` builds both from one run of `remainder_bases` per
    block of irreducibles.  A compare stage keeps (lowcode, highcode), a mark stage
    (`marks_degree`) (inverse, highcode) with inverse[j q^d + lowcode[L, j], L // P_d] = L,
    P_d = |columns[0]| ... |columns[d-1]|, and split in every other slot: low halves
    with equal digits past the first d differ only below t^d, so in codes.
    """
    q, half, sizes = field.q, n // 2, [len(vals) for vals in columns]
    h = next(h for h in range(half, n + 1) if prod(sizes[:h]) >= prod(sizes[h:]))
    split = prod(sizes[:h])
    # minus the high digits, then minus the leading 1
    high_columns = [negate(field, np.array(vals, dtype=np.int64)) for vals in [*columns[h:], (1,)]]
    rows = np.arange(split)
    marks, compares = [], []
    for d in range(1, half + 1):
        G, size, past = irreducible_codes(field, d), q**d, prod(sizes[d:h])
        mark = marks_degree(q, d, past, split)
        highcode = np.empty((prod(sizes[h:]), len(G)), dtype=np.min_scalar_type(size - 1))
        if mark:
            low = np.full((len(G) * size, past), split, dtype=np.min_scalar_type(split))
            column = rows // prod(sizes[:d])
        else:
            low = np.empty((split, len(G)), dtype=highcode.dtype)
        # a block's remainder bases and its low codes hold at most _BLOCK entries each
        step = max(1, _BLOCK // max((n + 1) * d, split))
        for i in range(0, len(G), step):
            bases = remainder_bases(field, G[i : i + step], n)
            if mark:
                lowcode = np.empty((split, len(bases)), dtype=highcode.dtype)
                _codes(field, columns[:h], bases[:, :h], lowcode)
                # a column at a time, so that the scatter's index arrays hold split entries
                for j in range(len(bases)):
                    low[(i + j) * size + lowcode[:, j].astype(np.int64), column] = rows
                del lowcode  # not held while the high codes are built
            else:
                _codes(field, columns[:h], bases[:, :h], low[:, i : i + step])
            _codes(field, high_columns, bases[:, h:], highcode[:, i : i + step])
        (marks if mark else compares).append((low, highcode))
    return split, marks, compares


def sieve(tables: tuple, start: int, stop: int) -> np.ndarray:
    """The candidate indices in [start, stop) (`sieve_tables`) whose codes agree
    for no irreducible of `tables`.

    The mark stages set dead[H, L] for every low row L that an inverse lists
    under a code of the high row H; the compare stages then test the codes of
    the survivors.
    """
    split, marks, compares = tables
    h0 = start // split
    # column split takes the sentinel slots of the inverses
    dead = np.zeros(((stop - 1) // split + 1 - h0, split + 1), dtype=bool)
    for inverse, highcode in marks:
        width, g = inverse.shape[1], highcode.shape[1]
        size = len(inverse) // g
        # gather at most _BLOCK entries of the inverse at once
        step = max(1, _BLOCK // width)
        for i in range(0, dead.shape[0] * g, step):
            H, j = np.divmod(np.arange(i, min(i + step, dead.shape[0] * g)), g)
            dead[H[:, None], inverse[j * size + highcode[h0 + H, j]]] = True
    offset = h0 * split
    idx = start + np.flatnonzero(~dead[:, :split].ravel()[start - offset : stop - offset])
    H, L = np.divmod(idx, split)
    for lowcode, highcode in compares:
        # compare at most _BLOCK codes of each table at once, in buffers taken once
        # per stage: blocks that allocated their codes (just under 128 KiB at
        # uint16) made the heap hand pages back and fault them in
        g = lowcode.shape[1]
        # no larger than the survivors, which a small census has few of
        step = max(1, min(_BLOCK // g, len(L)))
        keep = np.empty(len(L), dtype=bool)
        # taken after keep, on top of the heap, which hands them back once freed
        low, high = np.empty((step, g), lowcode.dtype), np.empty((step, g), lowcode.dtype)
        for i in range(0, len(L), step):
            k = min(step, len(L) - i)
            # mode "clip" takes no copy of out; every index is in range
            np.take(lowcode, L[i : i + k], axis=0, out=low[:k], mode="clip")
            np.take(highcode, H[i : i + k], axis=0, out=high[:k], mode="clip")
            # two codes agree exactly where their xor is 0
            np.bitwise_xor(low[:k], high[:k], out=low[:k])
            np.all(low[:k], axis=1, out=keep[i : i + k])
        del low, high  # not held while the survivors are compacted
        L, H = L[keep], H[keep]
        if not len(L):
            break
    return L + split * H


@lru_cache(maxsize=None)
def irreducible_codes(field: FieldSpec, d: int) -> np.ndarray:
    """Coefficient rows (c_0, ..., c_{d-1}) of the monic irreducibles of degree
    d, by increasing code (`enumerate_monic` order), as a read-only int64 array.

    A monic's code is its candidate index in the sieve over all q^d monics,
    which leaves exactly the irreducibles, in order; its divisors
    are the irreducibles of degree <= d/2, listed by the same function, down to
    the q linear polynomials, which no stage removes.
    """
    if d < 1:
        return np.zeros((0, 0), dtype=np.int64)
    q = field.q
    tables = sieve_tables(field, d, (tuple(field.elements()),) * d)
    found = [sieve(tables, lo, min(lo + _CHUNK, q**d)) for lo in range(0, q**d, _CHUNK)]
    rows = digits(np.concatenate(found), q, d)
    rows.flags.writeable = False
    return rows


# ---------------------------------------------------------------------------
# counting

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

