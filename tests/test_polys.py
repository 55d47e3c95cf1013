from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffdigits import polys
from ffdigits.field import get_field
from ffdigits.polys import (
    Poly,
    enumerate_monic,
    euler_phi,
    factorize,
    int_mobius,
    irreducible_codes,
    irreducible_polys,
    irreducible_rows,
    is_irreducible,
    mobius,
    poly_gcd,
    pow_mod,
    prime_count,
    remainder_bases,
    remainder_basis,
)

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


def test_evaluate():
    f = P(F5, 1, 2, 1)  # (t+1)^2
    assert f(4) == 0
    assert f(1) == 4


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
            assert (remainder_basis(g, 2 * d + 1) == basis).all()


@pytest.fixture
def fresh_berlekamp_lists():
    """Every Berlekamp list is built inside the test and none outlives it."""
    irreducible_rows.cache_clear()
    yield
    irreducible_rows.cache_clear()


def _ban_rabin_and_poly(m):
    def banned(*args, **kwargs):
        raise AssertionError("the Berlekamp list built a Poly or ran Rabin's test")

    m.setattr(polys, "Poly", banned)
    m.setattr(polys, "is_irreducible", banned)
    for op in ("__add__", "__sub__", "__mul__", "__divmod__", "__mod__"):
        m.setattr(Poly, op, banned)


@pytest.mark.parametrize("field,d_max", LIST_GRID)
def test_berlekamp_rows_match_rabin_and_sieve(field, d_max, monkeypatch, fresh_berlekamp_lists):
    with monkeypatch.context() as m:
        _ban_rabin_and_poly(m)
        rows = [irreducible_rows(field, d) for d in range(d_max + 1)]
    assert rows[0].shape == (0, 0)
    for d in range(1, d_max + 1):
        assert rows[d].dtype == np.int64 and not rows[d].flags.writeable
        assert rows[d].tolist() == [list(f.coeffs[:-1]) for f in rabin(field, d)]
        assert np.array_equal(rows[d], irreducible_codes(field, d))
        assert irreducible_polys(field, d) == rabin(field, d)
    assert irreducible_polys(field, 0) == ()


# proper powers w^e: one distinct irreducible factor, so nullity 1, but not squarefree
POWERS = [
    (F2, (1, 0, 1)),  # (t+1)^2
    (F2, (1, 0, 1, 0, 1)),  # (t^2+t+1)^2
    (F2, (0, 0, 0, 0, 1)),  # t^4
    (F3, (0, 0, 1)),  # t^2
    (F3, (1, 0, 0, 1)),  # (t+1)^3
]


@pytest.mark.parametrize("field,coeffs", POWERS)
def test_berlekamp_excludes_proper_powers(field, coeffs, fresh_berlekamp_lists):
    d = len(coeffs) - 1
    G = np.array([coeffs[:-1]], dtype=np.int64)
    bases = remainder_bases(field, G, field.q * (d - 1))
    Q = bases[:, :: field.q]
    assert polys._nullity_one(field, Q).tolist() == [True]
    assert polys._fixes_t(field, Q, bases[:, 1]).tolist() == [False]
    assert polys._berlekamp_irreducible(field, G).tolist() == [False]
    assert list(coeffs[:-1]) not in irreducible_rows(field, d).tolist()


@pytest.mark.parametrize("field,d", [(F2, 2), (F2, 4), (F3, 2), (F3, 3), (F4, 2)])
def test_berlekamp_needs_the_frobenius_condition(field, d, monkeypatch, fresh_berlekamp_lists):
    # without t^(q^d) = t mod f the rank test also passes every proper power w^e
    powers = set()
    for e in range(2, d + 1):
        if d % e == 0:
            for w in rabin(field, d // e):
                f = Poly.one(field)
                for _ in range(e):
                    f = f * w
                powers.add(f.coeffs[:-1])
    monkeypatch.setattr(polys, "_fixes_t", lambda field, Q, t_row: np.ones(len(Q), dtype=bool))
    rows = {tuple(row) for row in irreducible_rows(field, d).tolist()}
    irreducible = {f.coeffs[:-1] for f in rabin(field, d)}
    assert powers and irreducible <= rows and rows - irreducible == powers


def test_sieve_tables_build_bases_in_blocks(monkeypatch):
    # the bases of every irreducible of one degree hold (n+1) d pi(d) entries,
    # which no budget counts, so they are built a block of irreducibles at a time
    whole = polys.sieve_tables(F3, 16, (0, 2))
    built = []

    def recording(field, G, n):
        built.append(G.size * (n + 1))
        return remainder_bases(field, G, n)

    monkeypatch.setattr(polys, "_BLOCK", 1000)
    monkeypatch.setattr(polys, "remainder_bases", recording)
    blocked = polys.sieve_tables(F3, 16, (0, 2))
    assert max(built) <= 1000
    for (low, high), (low_b, high_b) in zip(whole, blocked):
        assert low.dtype == low_b.dtype and (low == low_b).all() and (high == high_b).all()
    assert [low.shape[1] for low, _ in blocked] == [prime_count(3, d) for d in range(1, 9)]


# ---------------------------------------------------------------------------
# factorization, mobius, phi

def test_factor_t3_plus_1_over_f2():
    fac = factorize(P(F2, 1, 0, 0, 1))
    assert [(w.coeffs, m) for w, m in fac.factors] == [((1, 1), 1), ((1, 1, 1), 1)]


def test_factor_irreducible_and_powers():
    fac = factorize(P(F2, 1, 1, 1))
    assert fac.factors == ((P(F2, 1, 1, 1), 1),)
    fac = factorize(P(F3, 0, 0, 1))
    assert fac.factors == ((P(F3, 0, 1), 2),)


def test_factor_with_unit():
    fac = factorize(P(F5, 0, 0, 3))
    assert fac.unit == 3
    assert fac.reassemble() == P(F5, 0, 0, 3)


def test_factor_pth_power():
    # (t + 1)^4 over F_2 has zero derivative twice over
    f = P(F2, 1, 1) * P(F2, 1, 1) * P(F2, 1, 1) * P(F2, 1, 1)
    fac = factorize(f)
    assert fac.factors == ((P(F2, 1, 1), 4),)


@settings(max_examples=40, deadline=None)
@given(random_poly(F4, 6))
def test_factorize_reassembles_and_verifies(f):
    if f.is_zero:
        return
    fac = factorize(f)
    assert fac.reassemble() == f
    for w, m in fac.factors:
        assert m >= 1
        assert w.is_monic
        assert is_irreducible(w)


def test_factorize_deterministic():
    f = P(F5, 1, 0, 0, 0, 1, 1)
    assert factorize(f) == factorize(f)


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
