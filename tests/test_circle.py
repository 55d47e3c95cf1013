import math
from fractions import Fraction

import numpy as np
import pytest

from ffdigits import charsum, circle, cli, laurent, polys
from ffdigits.census import count_restricted
from ffdigits.charsum import RestrictedSet, s_at
from ffdigits.circle import (
    FareyArc,
    NumericalError,
    PredictorParams,
    arc_partition_check,
    error_budget,
    farey_enumerate,
    farey_windows,
    lemma1_errors,
    lemma5_ratio,
    main_term,
    orthogonality_count,
    predictor,
)
from ffdigits.field import FieldSpec, digits, get_field, prime_power
from ffdigits.laurent import RationalPoint, e_q_of, frac_digits
from ffdigits.polys import Poly, enumerate_monic, euler_phi, mobius
from ffdigits.sieve import prime_count

F2 = get_field(2)
F3 = get_field(3)
F4 = get_field(2, 2)
F5 = get_field(5)


def pt(field, num, den):
    return RationalPoint(Poly(field, num), Poly(field, den))


# ---------------------------------------------------------------------------
# Farey enumeration and partition

def test_farey_enumerate_q2_d1():
    points = list(farey_enumerate(F2, 1))
    expected = {RationalPoint.zero(F2), pt(F2, (1,), (0, 1)), pt(F2, (1,), (1, 1))}
    assert set(points) == expected
    assert len(points) == 3


def test_farey_enumerate_d0():
    assert list(farey_enumerate(F3, 0)) == [RationalPoint.zero(F3)]


def test_farey_count_is_phi_sum():
    for field, d_max, expected in [(F2, 2, 11), (F3, 2, 61)]:
        points = list(farey_enumerate(field, d_max))
        assert len(points) == len(set(points))
        phi_sum = 1 + sum(
            euler_phi(g)
            for d in range(1, d_max + 1)
            for g in enumerate_monic(field, d)
        )
        assert len(points) == phi_sum == expected


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_farey_windows_match_oracle(q, monkeypatch):
    spec = FieldSpec.from_q(q)
    field = get_field(spec.p, spec.k, spec.modulus)
    top = 3 if q < 7 else 2
    oracle = list(farey_enumerate(field, top))
    oracle_windows = np.array([frac_digits(x, 9) for x in oracle], dtype=np.int64)

    def banned(*args):
        raise AssertionError("coprimality read an irreducible list")

    # coprimality comes from the windows' own digits
    monkeypatch.setattr(polys, "irreducible_rows", banned)
    for d_max in range(top + 1):
        for d_min in (0, 1):
            keep = [i for i, x in enumerate(oracle) if d_min <= x.g.degree <= d_max]
            points = farey_windows(field, d_min, d_max, 1)
            assert [points.point(i) for i in range(len(points))] == [oracle[i] for i in keep]
            # a numerator's code puts a_0 least significant
            assert points.codes.tolist() == [
                sum(c * q**j for j, c in enumerate(oracle[i].a.coeffs)) for i in keep
            ]
            for m in (1, 4, 9):
                fw = farey_windows(field, d_min, d_max, m)
                assert np.array_equal(fw.g_codes, points.g_codes)
                assert np.array_equal(fw.codes, points.codes)
                assert fw.windows.dtype == np.int64
                assert fw.windows.shape == (len(keep), m)
                assert np.array_equal(fw.windows, oracle_windows[keep, :m])
                assert fw.degs.tolist() == [oracle[i].g.degree for i in keep]


@pytest.mark.parametrize("q,rows", [(3, 520), (5, 12_896), (7, 102_600)])
def test_farey_windows_row_count(q, rows):
    # reduced a/g with deg g = d number q^(2d-1)(q-1); phi(t^d) of them have
    # g = t^d, the monic of index 0, which the pointwise checks leave out
    fw = farey_windows(get_field(q), 1, 3, 1)
    assert len(fw) == sum(q ** (2 * d - 1) * (q - 1) for d in (1, 2, 3))
    assert len(fw) - sum(q**d - q ** (d - 1) for d in (1, 2, 3)) == rows
    assert np.count_nonzero(fw.g_codes) == rows


def test_arc_membership():
    arc = FareyArc(pt(F2, (1,), (0, 1)), 2)
    assert arc.contains(pt(F2, (1,), (0, 1)))
    inside = pt(F2, (1, 0, 1), (0, 0, 0, 1))  # 1/t + 1/t^3
    assert arc.contains(inside)
    assert not arc.contains(RationalPoint.zero(F2))


def _arcs_tile_by_loop(field, n):
    """The oracle: every point a/t^n lies in exactly one `FareyArc`."""
    arcs = [
        FareyArc(c, circle.arc_exponent(c.g.degree, n)) for c in farey_enumerate(field, n // 2)
    ]
    t_n = Poly.t(field, n)
    points = (RationalPoint(Poly(field, digits(v, field.q, n)), t_n) for v in range(field.q**n))
    return all(sum(arc.contains(x) for arc in arcs) == 1 for x in points)


@pytest.mark.parametrize(
    "field,n",
    [(F2, 2), (F3, 2), (F2, 4), (F3, 4)]
    + [(field, n) for field in (F2, F3) for n in (3, 5, 6, 7)]
    + [(field, n) for field in (F4, F5) for n in range(2, 6)],
)
def test_arc_partition(field, n):
    assert arc_partition_check(field, n)
    # the loop takes ~0.025 ms per (point, arc) pair, so it runs on the small levels
    if field.q**n * len(list(farey_enumerate(field, n // 2))) <= 3000:
        assert _arcs_tile_by_loop(field, n)


def test_arc_partition_fails_with_ceil_radius(monkeypatch):
    monkeypatch.setattr(circle, "arc_exponent", lambda deg_g, n: deg_g + (n + 1) // 2)
    for field in (F2, F3):
        assert arc_partition_check(field, 4)
        assert not arc_partition_check(field, 3) and not _arcs_tile_by_loop(field, 3)
        assert not arc_partition_check(field, 5)


# ---------------------------------------------------------------------------
# square-root cancellation at rational points

def _row(fw, a, g):
    """The row of the centre a/g in `farey_windows` output."""
    return next(i for i in range(len(fw)) if fw.point(i) == RationalPoint(a, g))


def test_lemma1_trivial_center():
    fw, main, error, bound = lemma1_errors(F3, 4)
    assert fw.point(0) == RationalPoint.zero(F3)
    assert main[0, 0] == prime_count(3, 4)
    assert abs(error[0, 0]) < 1e-9 <= bound


def test_lemma1_linear_denominator():
    fw, main, error, bound = lemma1_errors(F3, 4)
    i = _row(fw, Poly.one(F3), Poly(F3, (1, 1)))
    # mu(t+1)/phi(t+1) = -1/2 and pi(4) = 18
    assert abs(main[i, 0] + 9) < 1e-9
    assert bound == 27
    assert abs(error[i, 0]) <= 27 + 1e-9


def test_lemma1_squareful_denominator():
    fw, main, error, bound = lemma1_errors(F3, 4)
    i = _row(fw, Poly.one(F3), Poly(F3, (0, 0, 1)))
    assert not main[i].any()
    assert (abs(error[i]) <= bound + 1e-9).all()


def test_lemma1_offset_indicator():
    # the offset t^(-k), k = deg g + n/2 + 1, turns the main term off unless
    # |t^(-k)| < q^(-n): at n = 4 only for deg g = 2, where e(t^4 / t^5) = psi(1)
    n = 4
    fw, main, _, _ = lemma1_errors(F3, n)
    assert main[0, 1] == 0  # g = 1, k = 3
    i = _row(fw, Poly.one(F3), Poly(F3, (1, 0, 1)))  # t^2 + 1, irreducible over F_3
    assert abs(main[i, 0] + prime_count(3, n) / 8) < 1e-12
    assert abs(main[i, 1] - main[i, 0] * F3.psi(1)) < 1e-12
    assert np.array_equal(main[:, 1] != 0, (fw.degs == 2) & (main[:, 0] != 0))


def _lemma1_by_definition(field, n, x, k):
    """Margins |S(x + gamma) - main| - q^(n - floor(n/2)/2) at gamma = 0 and
    gamma = t^(-k), from `s_at` and an exact mu/phi main term."""
    bound = field.q ** (n - n // 2 / 2)
    mu = mobius(x.g)
    out = []
    for gamma in (RationalPoint.zero(field), RationalPoint(Poly.one(field), Poly.t(field, k))):
        main = 0j
        if mu != 0 and gamma.norm_less_than(-n):
            main = complex(
                Fraction(mu, euler_phi(x.g)) * prime_count(field, n)
            ) * e_q_of(Poly.t(field, n), gamma)
        out.append(abs(s_at(field, n, x + gamma) - main) - bound)
    return out


@pytest.mark.parametrize(
    "q,ns", [(2, range(2, 7)), (3, range(2, 7)), (4, range(2, 6)), (5, range(2, 6)), (9, (2, 3))]
)
def test_lemma1_errors_match_the_definition(monkeypatch, q, ns):
    # extension fields, odd n, and at even n the offset k = n+1 with its psi(1)
    field = get_field(*prime_power(q))

    def banned(*args):
        raise AssertionError("polynomial division on the batched path")

    for n in ns:
        with monkeypatch.context() as m:
            m.setattr(Poly, "__divmod__", banned)
            for module in (polys, circle, laurent):
                m.setattr(module, "poly_gcd", banned)
            fw, _, error, bound = lemma1_errors(field, n)
        margins = np.abs(error) - bound
        k = circle.arc_exponent(fw.degs, n) + 1
        assert (k <= n + 1).all() and ((k == n + 1).any() == (n % 2 == 0))
        for i in range(len(fw)):
            expected = _lemma1_by_definition(field, n, fw.point(i), int(k[i]))
            assert np.allclose(margins[i], expected, rtol=0, atol=1e-9), (q, n, fw.point(i))


def test_lemma1_refuses_past_the_counts_bound_before_any_window(monkeypatch, capsys):
    # p q^n = 5^10 entries, past the bound of 2^21; the Farey windows are within theirs
    def banned(*args):
        raise AssertionError("windows built past the bound")

    monkeypatch.setattr(circle, "farey_windows", banned)
    monkeypatch.setattr(charsum, "irreducible_rows", banned)
    with pytest.raises(ValueError, match="residue counts"):
        lemma1_errors(F5, 9)
    assert cli.main(["verify", "lemma1", "--q", "5", "--n", "9"]) == cli.EXIT_USAGE == 2
    assert "residue counts" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# phi-ratio bound

def test_lemma5_examples():
    # ratios are indexed by the monic's code, its place in enumerate_monic order
    ratio, bound = lemma5_ratio(F2, 1)
    assert ratio[polys._monic_code(Poly(F2, (1, 1)))] == 2.0
    assert abs(bound - math.e) < 1e-12
    ratio, bound = lemma5_ratio(F2, 2)
    assert ratio[polys._monic_code(Poly(F2, (0, 1)) * Poly(F2, (1, 1)))] == 4.0
    assert abs(bound - 2 * math.e) < 1e-12
    g = Poly(F2, (0, 1)) * Poly(F2, (1, 1)) * Poly(F2, (1, 1, 1))
    ratio, bound = lemma5_ratio(F2, 4)
    assert abs(ratio[polys._monic_code(g)] - 16 / 3) < 1e-12
    assert abs(bound - 3 * math.e) < 1e-12  # deg g = 4
    assert np.array_equal(ratio, [2**4 / euler_phi(f) for f in enumerate_monic(F2, 4)])


# ---------------------------------------------------------------------------
# predictor and main term

def test_main_term_examples():
    assert main_term(PredictorParams(2, 1, 2, True)) == Fraction(1, 2)
    value = main_term(PredictorParams(17, 1, 3, True))
    assert value == Fraction(1632 * 16**2, 17**2)
    # empty forbidden set predicts all irreducibles exactly
    for q, n in [(2, 5), (5, 3)]:
        assert main_term(PredictorParams(q, 0, n, False)) == prime_count(q, n)


def test_predictor_examples():
    assert abs(predictor(PredictorParams(17, 1, 3, True)) - (17 / 16) * 4096 / 3) < 1e-9
    with_zero = predictor(PredictorParams(5, 2, 4, True))
    without_zero = predictor(PredictorParams(5, 2, 4, False))
    assert abs(without_zero - with_zero * (1 - 1 / 3)) < 1e-9
    # s = 0 consistency with the prime-count scale
    assert abs(predictor(PredictorParams(3, 0, 6, False)) - 3**6 / 6) < 1e-9


def test_predictor_flagging():
    assert PredictorParams(5, 2, 3, True).flagged
    assert not PredictorParams(17, 2, 3, True).flagged


# ---------------------------------------------------------------------------
# error budget

def test_error_budget_monotone_in_s():
    totals = [error_budget(17, s, 12) for s in (0, 1, 2, 3)]
    assert totals == sorted(totals)


def test_error_budget_large_field_scale():
    q = 500
    n = round(100 * math.log(q) ** 2)
    total = error_budget(q, 11, n)
    assert total < 1
    first = q ** (-math.sqrt(n) / (2 * math.sqrt(10)))
    second = total - first
    assert first > second


def test_error_budget_single_forbidden_bracket():
    # for s = 1 the second aggregate contribution decays like
    # (q^{3/4}(1 + sqrt(1) - 2/q)/(q-1))^n, which contracts once q >= 17
    for q in (17, 25, 101):
        bracket = q**0.75 * (2 - 2 / q) / (q - 1)
        assert bracket < 1
    assert 13**0.75 * (2 - 2 / 13) / 12 > 1


# ---------------------------------------------------------------------------
# orthogonality count

def test_orthogonality_examples():
    assert orthogonality_count(RestrictedSet.of(F2, 0), 2) == 1
    assert orthogonality_count(RestrictedSet.of(F2, 1), 2) == 0
    assert orthogonality_count(RestrictedSet(F3, frozenset()), 2) == prime_count(3, 2)
    # extension fields, where psi goes through the trace table
    for q in (4, 8, 9):
        field = get_field(*prime_power(q))
        for forbidden in (frozenset(), frozenset({0}), frozenset({1})):
            R = RestrictedSet(field, forbidden)
            for n in range(1, 4):
                assert orthogonality_count(R, n) == count_restricted(R, n), (q, forbidden, n)


@pytest.mark.parametrize("q,forbidden,n", [(17, {0}, 4), (9, {0}, 4), (5, {0, 1}, 7)])
def test_orthogonality_matches_census_exactly(q, forbidden, n):
    # a large prime field, an extension field and a long restricted degree
    R = RestrictedSet(get_field(*prime_power(q)), frozenset(forbidden))
    assert orthogonality_count(R, n) == count_restricted(R, n)


def test_orthogonality_degree_validation():
    R = RestrictedSet.of(F3, 0)
    assert orthogonality_count(R, 0) == 0
    with pytest.raises(ValueError, match="degree must be >= 0"):
        orthogonality_count(R, -1)


def test_orthogonality_refuses_past_the_bound_before_listing(monkeypatch):
    def banned(*args):
        raise AssertionError("irreducibles listed past the bound")

    monkeypatch.setattr(charsum, "irreducible_rows", banned)
    with pytest.raises(ValueError, match="residue counts"):
        orthogonality_count(RestrictedSet.of(F5, 0), 9)


def _c_r_off_by_one(monkeypatch):
    """Raise circle's C_R at x = 1, r = 1 by one.  T_k then gains C[1, 1 + k],
    the irreducibles with Tr(h_0) = 1 + k, which differ across k != 0 for
    q = 3, n = 2 (t^2 + 1 against two with h_0 = 2)."""
    kernel = circle.residue_counts

    def faulty(spec, n, indicator):
        C = kernel(spec, n, indicator)
        C[1, 1] += 1
        return C

    monkeypatch.setattr(circle, "residue_counts", faulty)


def test_orthogonality_numerical_error(monkeypatch):
    _c_r_off_by_one(monkeypatch)
    with pytest.raises(NumericalError, match=r"T_k = \[\d+, \d+, \d+\] differ at k != 0"):
        orthogonality_count(RestrictedSet.of(F3, 0), 2)


def test_verify_identity_numerical_exit(monkeypatch, capsys):
    _c_r_off_by_one(monkeypatch)
    assert cli.main(["verify", "identity"]) == cli.EXIT_NUMERICAL == 3
    assert "numerical failure" in capsys.readouterr().err
