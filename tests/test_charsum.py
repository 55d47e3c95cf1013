import math
from itertools import combinations, islice

import numpy as np
import pytest

from ffdigits.charsum import (
    RestrictedSet,
    cauchy_schwarz_bound,
    consecutive_l1_bound,
    digit_weights,
    fourier_indicator,
    l1_average_closed_form,
    l1_average_direct,
    lemma3_bound,
    lemma6_bound,
    nonzero_digit_count,
    residue_counts,
    s_at,
    s_at_window,
    s_r_at,
    s_r_definitional,
)
from ffdigits.circle import farey_enumerate
from ffdigits.field import FieldSpec, digits, get_field, prime_power
from ffdigits.laurent import RationalPoint, e_q_of, frac_digits
from ffdigits.polys import Poly, enumerate_monic, is_irreducible, poly_gcd
from ffdigits.sieve import prime_count

F2 = get_field(2)
F3 = get_field(3)
F5 = get_field(5)


def pt(field, num, den):
    return RationalPoint(Poly(field, num), Poly(field, den))


# ---------------------------------------------------------------------------
# RestrictedSet

def test_restricted_set_basics():
    R = RestrictedSet.of(F5, 0, 3)
    assert R.s == 2
    assert R.complement == (1, 2, 4)
    assert R.zero_in_R
    assert float(R.lam) == 1.0
    R2 = RestrictedSet.of(F5, 1)
    assert float(R2.lam) == 1 - 1 / 4


def test_restricted_set_validation():
    with pytest.raises(ValueError):
        RestrictedSet(F3, frozenset({0, 1, 2}))
    with pytest.raises(ValueError):
        RestrictedSet(F3, frozenset({5}))


def test_restricted_set_parse_format():
    R = RestrictedSet.parse(F5, "0,3")
    assert R.forbidden == frozenset({0, 3})
    assert R.format() == "0,3"
    assert RestrictedSet.parse(F5, "").s == 0


def test_consecutive_detection():
    assert RestrictedSet.of(F5, 1, 2).is_consecutive
    assert RestrictedSet.of(F5, 4, 0).is_consecutive  # wraps around
    assert not RestrictedSet.of(F5, 0, 2).is_consecutive
    assert not RestrictedSet(F5, frozenset()).is_consecutive
    assert RestrictedSet.of(F5, 0, 1, 2, 3).is_consecutive


# ---------------------------------------------------------------------------
# Fourier data

def test_fourier_indicator_examples():
    assert abs(fourier_indicator(F3, {0, 1, 2}, 0) - 3) < 1e-12
    assert abs(fourier_indicator(F3, {0}, 2) - 1) < 1e-12
    val = fourier_indicator(F3, {1, 2}, 1)
    assert abs(val - (-1)) < 1e-12


def test_fourier_profile_invariants():
    for forbidden in [{0}, {1, 2}, {0, 4}]:
        R = RestrictedSet(F5, frozenset(forbidden))
        W = digit_weights(R)
        assert abs(W[0] - (5 - R.s)) < 1e-12
        for r in F5.elements():
            comp_hat = W[r]
            forb_hat = fourier_indicator(F5, R.forbidden, r)
            expected = 5 if r == 0 else 0
            assert abs(comp_hat + forb_hat - expected) < 1e-9


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27, 31])
def test_digit_weights_equal_the_scalar_sums(q):
    # one row of products per allowed digit, summed row by row, adds in the
    # order of fourier_indicator's loop: the weights are equal, not just close
    field = get_field(*prime_power(q))
    for s in range(min(q, 4)):
        for forbidden in islice(combinations(range(q), s), 12):
            R = RestrictedSet(field, frozenset(forbidden))
            expected = tuple(fourier_indicator(field, R.complement, d) for d in field.elements())
            assert digit_weights(R) == expected


def test_digit_weights_build_no_product_table_on_a_prime_field():
    # on F_1009 the products are reduced mod p; the field's q x q table stays unbuilt
    field = FieldSpec(1009)
    W = digit_weights(RestrictedSet(field, frozenset({0})))
    assert "mul_table" not in vars(field)
    assert W[0] == 1008 and abs(W[1] + 1) < 1e-9


# ---------------------------------------------------------------------------
# S_R and S

def test_s_r_at_zero_point():
    R = RestrictedSet.of(F3, 0)
    window = (0,) * 5
    assert abs(s_r_at(R, 4, window) - 2**4) < 1e-12


def test_s_r_at_magnitude_example():
    R = RestrictedSet.of(F3, 0)
    window = frac_digits(pt(F3, (1,), (0, 1)), 2)
    assert abs(abs(s_r_at(R, 1, window)) - 1) < 1e-12


def test_s_r_at_single_poly():
    R = RestrictedSet.of(F2, 0)
    assert abs(s_r_at(R, 2, (0, 0, 0)) - 1) < 1e-12


def test_s_r_at_window_too_short():
    with pytest.raises(ValueError):
        s_r_at(RestrictedSet.of(F2, 0), 3, (0, 0))


@pytest.mark.parametrize("field", [F2, F3, F5])
def test_product_formula_matches_definition(field):
    q = field.q
    points = [
        RationalPoint.zero(field),
        pt(field, (1,), (0, 1)),
        pt(field, (1,), (1, 1)),
        pt(field, (1, 1), (1, 0, 1)),
    ]
    subsets = [frozenset({0})] + ([frozenset({1, q - 1})] if q > 2 else [])
    for forbidden in subsets:
        R = RestrictedSet(field, forbidden)
        for n in range(1, 5):
            for x in points:
                window = frac_digits(x, n + 1)
                assert abs(s_r_at(R, n, window) - s_r_definitional(R, n, x)) < 1e-6


def test_s_at_examples():
    assert s_at(F3, 3, RationalPoint.zero(F3)) == prime_count(3, 3)
    # q=2, n=2: the only irreducible is t^2+t+1 and e_q at 1/t reads psi(1)
    val = s_at(F2, 2, pt(F2, (1,), (0, 1)))
    assert abs(val + 1) < 1e-12
    # q=3, n=1: the three linear monics sum to zero at 1/t
    val = s_at(F3, 1, pt(F3, (1,), (0, 1)))
    assert abs(val) < 1e-12


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_batched_kernels_match_row_by_row(q):
    field = get_field(*prime_power(q))
    R = RestrictedSet.of(field, 1)
    points = list(islice(farey_enumerate(field, 2), 40))[::4]
    for n in range(1, 4):
        # windows one digit longer than S and S_R read
        batch = np.array([frac_digits(x, n + 2) for x in points], dtype=np.int64)
        s_rows = s_at_window(field, n, batch)
        s_r_rows = s_r_at(R, n, batch)
        assert s_rows.shape == s_r_rows.shape == (len(points),)
        for x, s_val, s_r_val in zip(points, s_rows, s_r_rows):
            assert abs(s_val - s_at(field, n, x)) < 1e-9
            assert abs(s_r_val - s_r_definitional(R, n, x)) < 1e-9


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 3), (9, 2)])
def test_residue_counts_match_the_definition(q, n):
    # an arbitrary indicator, one scalar trace per (x, h) pair
    field = get_field(*prime_power(q))
    indicator = np.random.default_rng(q).random(q**n) < 0.4
    C = residue_counts(field, n, indicator)
    rows = digits(np.arange(q**n, dtype=np.int64), q, n).tolist()
    for x, xs in enumerate(rows):
        want = [0] * field.p
        for h in np.flatnonzero(indicator).tolist():
            acc = 0
            for hj, xj in zip(rows[h], xs):
                acc = field.add(acc, field.mul(hj, xj))
            want[field.trace(acc)] += 1
        assert C[x].tolist() == want, (q, x)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_s_at_window_matches_definition_without_polys(q, monkeypatch):
    field = get_field(*prime_power(q))
    points = list(islice(farey_enumerate(field, 2), 40))[::4]
    n = 3
    irreducibles = [f for f in enumerate_monic(field, n) if is_irreducible(f)]
    expected = [sum(e_q_of(f, x) for f in irreducibles) for x in points]
    batch = np.array([frac_digits(x, n + 1) for x in points], dtype=np.int64)
    s_at_window(field, n, batch)  # the list of degree n is built once, then read

    def banned(*args):
        raise AssertionError("S built a Poly")

    monkeypatch.setattr(Poly, "__init__", banned)
    for value, want in zip(s_at_window(field, n, batch), expected):
        assert abs(value - want) < 1e-9


def test_s_at_trivial_bound():
    for n in (2, 3):
        for num, den in [((1,), (0, 1)), ((1, 1), (1, 1, 1))]:
            val = s_at(F3, n, pt(F3, num, den))
            assert abs(val) <= prime_count(3, n) + 1e-9


# ---------------------------------------------------------------------------
# averages and bounds

def test_l1_closed_form_examples():
    R = RestrictedSet.of(F3, 0)
    assert abs(l1_average_closed_form(R, 1) - 4 / 3) < 1e-12
    assert abs(l1_average_closed_form(R, 2) - 16 / 9) < 1e-12
    empty = RestrictedSet(F3, frozenset())
    assert abs(l1_average_closed_form(empty, 3) - 1) < 1e-12


def test_l1_direct_matches_closed_form():
    for q, field in [(2, F2), (3, F3), (5, F5)]:
        for size in range(1, min(3, q)):
            for forbidden in combinations(range(q), size):
                R = RestrictedSet(field, frozenset(forbidden))
                for n in (1, 2, 3):
                    direct = l1_average_direct(R, n)
                    closed = l1_average_closed_form(R, n)
                    assert abs(direct - closed) <= 1e-9 * abs(closed)


def test_cauchy_schwarz_examples():
    assert abs(cauchy_schwarz_bound(3, 1, 1) - 4 / 3) < 1e-12
    assert cauchy_schwarz_bound(7, 0, 5) == 1.0
    assert abs(cauchy_schwarz_bound(64, 4, 2) - 8.265625) < 1e-12
    with pytest.raises(ValueError):
        cauchy_schwarz_bound(3, 3, 1)


def test_equality_at_s_one():
    for field in (F3, F5):
        for c in field.elements():
            R = RestrictedSet.of(field, c)
            for n in (1, 2):
                closed = l1_average_closed_form(R, n)
                bound = cauchy_schwarz_bound(field.q, 1, n)
                assert abs(closed - bound) < 1e-9


def test_consecutive_bound_examples():
    assert abs(consecutive_l1_bound(5, 2, 1) - (math.log(5) + 1 - 0.4)) < 1e-12
    # direct fifth-roots check for R = {0, 1}
    R = RestrictedSet.of(F5, 0, 1)
    assert l1_average_closed_form(R, 1) <= consecutive_l1_bound(5, 2, 1)
    assert abs(
        consecutive_l1_bound(5, 4, 3) - (math.log(5) + 1 / 5) ** 3
    ) < 1e-12


def test_lemma3_bound_examples():
    assert lemma3_bound(5, 2, 4, 2) == 36
    assert lemma3_bound(5, 0, 4, 2) == 0
    assert lemma3_bound(5, 2, 4, 5) == 81  # d > n: floor(n/d) = 0
    with pytest.raises(ValueError):
        lemma3_bound(5, 3, 4, 2)
    with pytest.raises(ValueError):
        lemma3_bound(5, 2, 4, 0)


def test_lemma6_bound_examples():
    assert abs(lemma6_bound(5, 2, 4, 2) - 81 * math.exp(-2 / 125)) < 1e-9
    assert lemma6_bound(5, 2, 4, 5) == 81.0


def test_consecutive_pair_amplitude():
    # |e(xn/5) + e(x(n+1)/5)|^2 = 2 + 2cos(2 pi x / 5) < 4 exp(-2/25) for x != 0
    for x in range(1, 5):
        lhs = 2 + 2 * math.cos(2 * math.pi * x / 5)
        assert lhs < 4 * math.exp(-2 / 25)


def test_nonzero_digit_count():
    assert nonzero_digit_count(RationalPoint.zero(F2), 5) == 0
    assert nonzero_digit_count(pt(F2, (1,), (1, 1)), 4) == 4
    assert nonzero_digit_count(pt(F2, (1,), (0, 1)), 4) == 1


def test_nonzero_digit_pigeonhole():
    # z >= floor(n / deg g) when g is not a power of t
    for num, den in [((1,), (1, 1)), ((1,), (1, 1, 1)), ((1, 2), (2, 0, 1))]:
        x = pt(F3, num, den)
        assert poly_gcd(x.a, x.g) == Poly.one(F3)
        d = x.g.degree
        for n in range(1, 10):
            assert nonzero_digit_count(x, n) >= n // d
