import math
from fractions import Fraction

import numpy as np
import pytest

from ffdigits import circle, cli
from ffdigits.census import count_restricted
from ffdigits.charsum import RestrictedSet
from ffdigits.circle import (
    FareyArc,
    NumericalError,
    PredictorParams,
    arc_partition_check,
    error_budget,
    farey_enumerate,
    farey_windows,
    lemma1_error,
    lemma5_ratio,
    main_term,
    orthogonality_count,
    predictor,
)
from ffdigits.field import FieldSpec, digits, get_field, prime_power
from ffdigits.laurent import RationalPoint, frac_digits
from ffdigits.polys import Poly, enumerate_monic, euler_phi, prime_count

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
def test_farey_windows_match_oracle(q):
    spec = FieldSpec.from_q(q)
    field = get_field(spec.p, spec.k, spec.modulus)
    top = 3 if q < 7 else 2
    oracle = list(farey_enumerate(field, top))
    oracle_windows = np.array([frac_digits(x, 9) for x in oracle], dtype=np.int64)
    # a row is (denominator, numerator code)
    oracle_rows = [(x.g, sum(c * q**i for i, c in enumerate(x.a.coeffs))) for x in oracle]
    for d_max in range(top + 1):
        for d_min in (0, 1):
            for exclude in (False, True):
                keep = [
                    i
                    for i, x in enumerate(oracle)
                    if d_min <= x.g.degree <= d_max
                    and not (exclude and not any(x.g.coeffs[:-1]))
                ]
                for m in (1, 4, 9):
                    fw = farey_windows(field, d_min, d_max, m, exclude_t_powers=exclude)
                    rows = [(fw.denominators[j], c) for j, c in zip(fw.g_index, fw.codes)]
                    assert rows == [oracle_rows[i] for i in keep]
                    if keep:
                        assert fw.point(len(fw) - 1) == oracle[keep[-1]]
                    assert fw.windows.dtype == np.int64
                    assert fw.windows.shape == (len(keep), m)
                    assert np.array_equal(fw.windows, oracle_windows[keep, :m])
                    assert fw.degs.tolist() == [oracle[i].g.degree for i in keep]


@pytest.mark.parametrize("q,rows", [(3, 520), (5, 12_896), (7, 102_600)])
def test_farey_windows_row_count(q, rows):
    # reduced a/g with deg g = d number q^(2d-1)(q-1); phi(t^d) of them have g = t^d
    closed = sum(q ** (2 * d - 1) * (q - 1) - (q**d - q ** (d - 1)) for d in (1, 2, 3))
    assert closed == rows
    assert len(farey_windows(get_field(q), 1, 3, 1, exclude_t_powers=True)) == rows


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

def test_lemma1_trivial_center():
    rep = lemma1_error(Poly.zero(F3), Poly.one(F3), None, 4)
    assert rep.main == prime_count(3, 4)
    assert abs(rep.error) < 1e-9
    assert rep.ok


def test_lemma1_linear_denominator():
    rep = lemma1_error(Poly.one(F3), Poly(F3, (1, 1)), None, 4)
    # mu(t+1)/phi(t+1) = -1/2 and pi(4) = 18
    assert abs(rep.main + 9) < 1e-9
    assert abs(rep.error) <= 27 + 1e-9
    assert rep.ok


def test_lemma1_squareful_denominator():
    rep = lemma1_error(Poly.one(F3), Poly(F3, (0, 0, 1)), None, 4)
    assert rep.main == 0
    assert rep.ok


def test_lemma1_offset_indicator():
    # |gamma| >= q^{-n} turns the main term off even for g = 1
    n = 4
    gamma_off = RationalPoint(Poly.one(F3), Poly.t(F3, 3))
    rep = lemma1_error(Poly.zero(F3), Poly.one(F3), gamma_off, n)
    assert rep.main == 0
    gamma_on = RationalPoint(Poly.one(F3), Poly.t(F3, n + 1))
    rep = lemma1_error(Poly.zero(F3), Poly.one(F3), gamma_on, n)
    assert abs(abs(rep.main) - prime_count(3, n)) < 1e-9


def test_lemma1_precondition_errors():
    with pytest.raises(ValueError):
        lemma1_error(Poly.one(F3), Poly(F3, (1, 1, 1, 1)), None, 4)  # deg g > n/2
    with pytest.raises(ValueError):
        # gamma outside the arc radius q^{-(deg g + floor(n/2))}
        gamma = RationalPoint(Poly.one(F3), Poly.t(F3))
        lemma1_error(Poly.zero(F3), Poly.one(F3), gamma, 4)
    # at odd n the radius is q^{-(deg g + floor(n/2))}: q^-2 for g = 1, n = 5
    assert lemma1_error(Poly.zero(F3), Poly.one(F3), pt(F3, (1,), (0, 0, 0, 1)), 5).ok
    with pytest.raises(ValueError, match="arc radius"):
        lemma1_error(Poly.zero(F3), Poly.one(F3), pt(F3, (1,), (0, 0, 1)), 5)


# ---------------------------------------------------------------------------
# phi-ratio bound

def test_lemma5_examples():
    ratio, bound = lemma5_ratio(Poly(F2, (1, 1)))
    assert ratio == 2.0 and abs(bound - math.e) < 1e-12
    ratio, bound = lemma5_ratio(Poly(F2, (0, 1)) * Poly(F2, (1, 1)))
    assert ratio == 4.0
    assert abs(bound - 2 * math.e) < 1e-12
    g = Poly(F2, (0, 1)) * Poly(F2, (1, 1)) * Poly(F2, (1, 1, 1))
    ratio, bound = lemma5_ratio(g)
    assert abs(ratio - 16 / 3) < 1e-12
    assert abs(bound - 3 * math.e) < 1e-12  # deg g = 4


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


def _s_off_at_zero(monkeypatch):
    """Make circle's S kernel add i*q^(n+1)/2 at the point 0.  That moves the
    orthogonality average by i*(q-s)^n/2, off every integer by at least 0.5."""
    kernel = circle.s_at_window

    def shifted(spec, n, window):
        return kernel(spec, n, window) + 0.5j * spec.q ** (n + 1) * ~window.any(axis=-1)

    monkeypatch.setattr(circle, "s_at_window", shifted)


def test_orthogonality_numerical_error(monkeypatch):
    _s_off_at_zero(monkeypatch)
    with pytest.raises(NumericalError, match="deviates 0.5 from an integer"):
        orthogonality_count(RestrictedSet.of(F2, 0), 3)


def test_verify_identity_numerical_exit(monkeypatch, capsys):
    _s_off_at_zero(monkeypatch)
    assert cli.main(["verify", "identity"]) == cli.EXIT_NUMERICAL == 3
    assert "numerical failure" in capsys.readouterr().err
