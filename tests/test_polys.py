import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffdigits import polys, sieve
from ffdigits.field import digits, get_field, is_prime, matmul
from ffdigits.polys import (
    Poly,
    enumerate_monic,
    euler_phi,
    irreducible_polys,
    irreducible_rows,
    is_irreducible,
    mobius,
    poly_gcd,
    pow_mod,
)
from ffdigits.sieve import int_mobius, irreducible_codes, prime_count, remainder_bases

F2 = get_field(2)
F3 = get_field(3)
F4 = get_field(2, 2)
F5 = get_field(5)
F7 = get_field(7)
F8 = get_field(2, 3)
F9 = get_field(3, 2)
F17 = get_field(17)


def P(field, *coeffs):
    return Poly(field, coeffs)


def random_poly(field, max_deg):
    return st.lists(
        st.integers(0, field.q - 1), min_size=0, max_size=max_deg + 1
    ).map(lambda cs: Poly(field, cs))


# ---------------------------------------------------------------------------
# arithmetic

def test_known_product_f2():
    assert P(F2, 1, 1, 1) * P(F2, 1, 1) == P(F2, 1, 0, 0, 1)


def test_divmod_f3():
    quo, rem = divmod(P(F3, 0, 0, 0, 1), P(F3, 1, 1))
    assert quo == P(F3, 1, 2, 1)
    assert rem == P(F3, 2)


def test_gcd_conventions():
    f = P(F3, 2, 2)  # 2(t + 1)
    assert poly_gcd(f, Poly.zero(F3)) == P(F3, 1, 1)
    assert poly_gcd(Poly.zero(F3), f) == P(F3, 1, 1)
    # degree-0 gcds normalize to the constant 1
    assert poly_gcd(P(F3, 2), P(F3, 0, 1)) == Poly.one(F3)


def test_division_by_zero_poly():
    with pytest.raises(ZeroDivisionError):
        divmod(P(F3, 1, 1), Poly.zero(F3))


@settings(max_examples=60)
@given(random_poly(F4, 5), random_poly(F4, 3))
def test_divmod_reassembles(f, g):
    if g.is_zero:
        return
    quo, rem = divmod(f, g)
    assert quo * g + rem == f
    assert rem.degree < g.degree


@settings(max_examples=60)
@given(random_poly(F5, 4), random_poly(F5, 4))
def test_gcd_divides_both(f, g):
    d = poly_gcd(f, g)
    if d.is_zero:
        assert f.is_zero and g.is_zero
        return
    assert (f % d).is_zero
    assert (g % d).is_zero


def test_norm():
    assert P(F3, 1, 1).norm() == 3
    assert Poly.zero(F3).norm() == 0


# ---------------------------------------------------------------------------
# irreducibility

def test_irreducible_examples():
    assert is_irreducible(P(F2, 1, 1, 1))
    assert not is_irreducible(P(F2, 0, 0, 1))
    assert is_irreducible(P(F17, 0, 1))


def test_irreducible_rejects_bad_input():
    with pytest.raises(ValueError):
        is_irreducible(P(F3, 2, 2))  # not monic
    with pytest.raises(ValueError):
        is_irreducible(Poly.one(F3))


@pytest.mark.parametrize("field,n", [(F2, 4), (F3, 3), (F4, 2), (F5, 2)])
def test_irreducible_count_matches_formula(field, n):
    count = sum(1 for f in enumerate_monic(field, n) if is_irreducible(f))
    assert count == prime_count(field.q, n)


LIST_GRID = [(F2, 8), (F3, 5), (F4, 4), (F5, 4), (F7, 3), (F8, 3), (F9, 3)]


@lru_cache(maxsize=None)
def rabin(field, d):
    """The monic irreducibles of degree d by Rabin's test, in enumeration order."""
    return tuple(f for f in enumerate_monic(field, d) if is_irreducible(f))


def test_irreducible_list_cached():
    assert irreducible_polys(F2, 2) == (P(F2, 1, 1, 1),)
    assert len(irreducible_polys(F3, 2)) == 3


@pytest.mark.parametrize("field,d_max", LIST_GRID)
def test_sieve_lists_and_bases_match_rabin(field, d_max, monkeypatch):
    def banned(*args):
        raise AssertionError("the sieve built a Poly or ran Rabin's test")

    irreducible_codes.cache_clear()  # list every degree, recursion included
    with monkeypatch.context() as m:
        m.setattr(polys, "Poly", banned)
        m.setattr(polys, "is_irreducible", banned)
        codes = [irreducible_codes(field, d) for d in range(d_max + 1)]
    assert codes[0].shape == (0, 0)
    for d in range(1, d_max + 1):
        assert codes[d].tolist() == [list(g.coeffs[:-1]) for g in rabin(field, d)]
        assert not codes[d].flags.writeable
        bases = remainder_bases(field, codes[d], 2 * d + 1)
        for g, basis in zip(rabin(field, d), bases):
            for j, row in enumerate(basis):
                r = Poly.t(field, j) % g
                assert row.tolist() == [r[i] for i in range(d)]


def test_every_extension_modulus_comes_from_equal_lists():
    # FieldSpec takes its moduli from the sieve's lists: over every p^k <= 4096
    # with k >= 2 they hold the product sieve's rows in the same order
    pairs = [(p, k) for p in range(2, 65) if is_prime(p) for k in range(2, 13) if p**k <= 4096]
    assert len(pairs) == 40
    for p, k in pairs:
        assert np.array_equal(irreducible_codes(get_field(p), k), irreducible_rows(get_field(p), k))


@pytest.fixture
def fresh_product_lists():
    """Every product-sieve list, and mu and phi, is built inside the test and
    none outlives it."""
    irreducible_rows.cache_clear()
    polys.mobius_phi.cache_clear()
    yield
    irreducible_rows.cache_clear()
    polys.mobius_phi.cache_clear()


@pytest.mark.parametrize("field,d_max", LIST_GRID)
def test_product_sieve_rows_match_rabin_and_sieve(field, d_max, monkeypatch, fresh_product_lists):
    # the lists are built by multiplication alone, so the two engines of the
    # identity check count from lists that share no code
    def banned(*args, **kwargs):
        raise AssertionError("the product sieve ran the remainder sieve, Rabin's test or Poly")

    with monkeypatch.context() as m:
        for name in ("irreducible_codes", "sieve_tables", "sieve", "remainder_bases"):
            m.setattr(sieve, name, banned)
        for name in ("irreducible_codes", "is_irreducible", "Poly"):
            m.setattr(polys, name, banned)
        for op in ("__add__", "__sub__", "__mul__", "__divmod__", "__mod__"):
            m.setattr(Poly, op, banned)
        rows = [irreducible_rows(field, d) for d in range(d_max + 1)]
    assert rows[0].shape == (0, 0)
    for d in range(1, d_max + 1):
        assert rows[d].dtype == np.int64 and not rows[d].flags.writeable
        assert rows[d].tolist() == [list(f.coeffs[:-1]) for f in rabin(field, d)]
        assert np.array_equal(rows[d], irreducible_codes(field, d))
        assert irreducible_polys(field, d) == rabin(field, d)
    assert irreducible_polys(field, 0) == ()


@pytest.mark.parametrize("field,d_max", [(F2, 8), (F3, 5), (F4, 4), (F9, 3)])
def test_block_size_leaves_the_product_sieve_unchanged(field, d_max, monkeypatch, fresh_product_lists):
    # 97 cuts the monics h, and for mu and phi at e = d also the irreducibles
    # w, into uneven blocks; no product w h holds more than _BLOCK entries
    degrees = range(1, d_max + 1)
    rows = [irreducible_rows(field, d) for d in degrees]
    arrays = [polys.mobius_phi(field, d) for d in degrees]
    products = []

    def recording_matmul(field, A, B):
        products.append(A.shape[0] * B.shape[1])
        return matmul(field, A, B)

    monkeypatch.setattr(polys, "_BLOCK", 97)
    monkeypatch.setattr(polys, "matmul", recording_matmul)
    irreducible_rows.cache_clear()
    for d, expected, (mu, phi) in zip(degrees, rows, arrays):
        assert np.array_equal(irreducible_rows(field, d), expected)
        polys.mobius_phi.cache_clear()
        blocked = polys.mobius_phi(field, d)
        assert np.array_equal(blocked[0], mu) and np.array_equal(blocked[1], phi)
    assert products and max(products) <= 97


def test_irreducible_rows_peak_near_its_list():
    # each block of products is marked as it is formed, and the rows are
    # decoded in place, so building a list holds little beyond the list
    for e in range(1, 7):
        irreducible_rows(F3, e)
    tracemalloc.start()
    try:
        rows = irreducible_rows.__wrapped__(F3, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == prime_count(3, 12)
    assert peak <= 1.5 * rows.nbytes


def test_sieve_tables_build_bases_in_blocks(monkeypatch):
    # the bases of every irreducible of one degree hold (n+1) d pi(d) entries,
    # which no budget counts, so they are built a block of irreducibles at a
    # time, and each column step of `_codes` holds a block: at d = 8 the 2^8
    # low rows take 2048 entries per g, so their last columns come as offsets
    whole = sieve.sieve_tables(F3, 16, (0, 2))
    built, steps = [], []
    column = sieve._column

    def recording(field, G, n):
        built.append(G.size * (n + 1))
        return remainder_bases(field, G, n)

    def recording_column(field, V, vals, r):
        V = column(field, V, vals, r)
        steps.append(V.size)
        return V

    monkeypatch.setattr(sieve, "_BLOCK", 1000)
    monkeypatch.setattr(sieve, "remainder_bases", recording)
    monkeypatch.setattr(sieve, "_column", recording_column)
    blocked = sieve.sieve_tables(F3, 16, (0, 2))
    assert max(built) <= 1000
    assert steps and max(steps) <= 1000
    for stages, stages_b in zip(whole[1:], blocked[1:], strict=True):
        for (first, high), (first_b, high_b) in zip(stages, stages_b, strict=True):
            assert first.dtype == first_b.dtype and (first == first_b).all()
            assert (high == high_b).all()
    _, marks, compares = blocked
    assert [high.shape[1] for _, high in marks + compares] == [
        prime_count(3, d) for d in range(1, 9)
    ]


# ---------------------------------------------------------------------------
# the divisor sieve, mobius, phi

def _trial_division(f):
    """{(deg w, coefficient rows of w): multiplicity} over the monic irreducible
    divisors w of f, by trial division with Rabin's lists."""
    out = {}
    e = 1
    while 2 * e <= f.degree:
        for w in rabin(f.field, e):
            quo, rem = divmod(f, w)
            while rem.is_zero:
                key = (e, w.coeffs[:-1])
                out[key] = out.get(key, 0) + 1
                f = quo
                quo, rem = divmod(f, w)
        e += 1
    # what is left has no divisor of degree <= half its own, so it is irreducible
    if f.degree > 0:
        assert f in rabin(f.field, f.degree)
        out[(f.degree, f.coeffs[:-1])] = 1
    return out


@pytest.mark.parametrize(
    "field,d_max", [(F2, 6), (F3, 5), (F4, 4), (F5, 3), (F8, 3), (F9, 3)]
)
def test_divisor_sieve_matches_trial_division(field, d_max, fresh_product_lists, monkeypatch):
    # the divisors come from the sieve lists; the product-sieve lists are not built
    def banned(*args):
        raise AssertionError("mobius_phi built a product-sieve list")

    q = field.q
    for d in range(d_max + 1):
        with monkeypatch.context() as m:
            m.setattr(polys, "irreducible_rows", banned)
            arrays = polys.mobius_phi(field, d)
        for x in arrays:
            assert len(x) == q**d and not x.flags.writeable
        for f in enumerate_monic(field, d):
            divisors = _trial_division(f)
            squarefree = all(m == 1 for m in divisors.values())
            assert mobius(f) == ((-1) ** len(divisors) if squarefree else 0)
            phi = 1
            for (deg, _), m in divisors.items():
                phi *= q ** (deg * (m - 1)) * (q**deg - 1)
            assert euler_phi(f) == phi


def test_divisor_sieve_refuses_past_its_bound(monkeypatch):
    def banned(*args):
        raise AssertionError("built an irreducible list past the bound")

    for lister in ("irreducible_codes", "irreducible_rows"):
        monkeypatch.setattr(polys, lister, banned)
    with pytest.raises(ValueError, match="exceeds its bound"):
        euler_phi(Poly.t(F2, 40))


def test_mobius_examples():
    assert mobius(Poly.one(F2)) == 1
    assert mobius(P(F2, 0, 1)) == -1
    assert mobius(P(F2, 0, 0, 1)) == 0


def test_euler_phi_examples():
    assert euler_phi(P(F2, 0, 1)) == 1  # q - 1 over F_2
    assert euler_phi(P(F5, 0, 1)) == 4
    assert euler_phi(P(F2, 0, 1) * P(F2, 1, 1)) == 1
    assert euler_phi(P(F3, 0, 0, 1)) == 6
    assert euler_phi(Poly.one(F3)) == 1


def test_mobius_phi_multiplicative_on_coprimes():
    polys = [f for f in enumerate_monic(F3, 2)] + [f for f in enumerate_monic(F3, 1)]
    for f in polys:
        for g in polys:
            if poly_gcd(f, g) != Poly.one(F3):
                continue
            assert mobius(f * g) == mobius(f) * mobius(g)
            assert euler_phi(f * g) == euler_phi(f) * euler_phi(g)


# ---------------------------------------------------------------------------
# counting

def test_int_mobius():
    assert [int_mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_prime_count_examples():
    assert prime_count(2, 1) == 2
    assert prime_count(2, 4) == 3
    assert prime_count(3, 2) == 3


def test_prime_number_theorem_identity():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17):
        for n in range(1, 21):
            total = sum(
                d * prime_count(q, d) for d in range(1, n + 1) if n % d == 0
            )
            assert total == q**n


def test_enumerate_monic():
    only = list(enumerate_monic(F2, 2, allowed={1}))
    assert only == [P(F2, 1, 1, 1)]
    linear = list(enumerate_monic(F3, 1))
    assert linear == [P(F3, 0, 1), P(F3, 1, 1), P(F3, 2, 1)]
    assert len(list(enumerate_monic(F3, 3, allowed={0, 1}))) == 2**3


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_monic_code_is_one_order(field, fresh_product_lists):
    # a monic's code is sum c_i q^i, c_0 least significant, everywhere
    q = field.q
    for d in range(4):
        for j, f in enumerate(enumerate_monic(field, d)):
            assert f.coeffs == digits(j, q, d) + (1,)
            assert f == polys.monic_of_code(field, d, j)
            assert polys._monic_code(f) == j
        for rows in (irreducible_rows(field, d), irreducible_codes(field, d)):
            assert (np.diff(rows @ q ** np.arange(d)) > 0).all()
    # with a restricted set, the j-th monic is the census's candidate j
    allowed, n = (0, q - 1), 4
    tables = sieve.sieve_tables(field, n, allowed)
    candidates = list(enumerate_monic(field, n, allowed))
    for j, f in enumerate(candidates):
        assert f.coeffs == tuple(allowed[c] for c in digits(j, 2, n)) + (1,)
    survivors = sieve.sieve(tables, 0, len(candidates))
    assert survivors.tolist() == [j for j, f in enumerate(candidates) if is_irreducible(f)]


def test_enumerate_monic_rejects_empty_allowed():
    with pytest.raises(ValueError):
        next(enumerate_monic(F3, 2, allowed=set()))


def test_pow_mod():
    f = P(F3, 1, 0, 1)  # t^2 + 1, so t^2 = -1 mod f
    assert pow_mod(Poly.t(F3), 4, f) == Poly.one(F3)
    assert pow_mod(Poly.t(F3), 9, f) == Poly.t(F3)


def test_parse_format_round_trip():
    f = P(F2, 1, 1, 1)
    assert Poly.parse(F2, f.format()) == f
    g = Poly(F4, (3, 1, 2))
    assert Poly.parse(F4, g.format()) == g
