import math

import numpy as np
import pytest

from ffdigits import checks
from ffdigits.charsum import RestrictedSet, lemma6_bound, s_r_at
from ffdigits.checks import (
    CHECKS,
    PINNED_Q17_NO_ZERO,
    _pointwise_bound_check,
    _Recorder,
    check_corollary1,
    check_corollary2,
    check_identity,
    check_lemma1,
    check_lemma3,
    check_lemma4,
    check_lemma5,
    check_lemma6,
    check_partition,
    check_pnt,
    check_theorem_trend,
    run_check,
)
from ffdigits.circle import farey_windows
from ffdigits.field import get_field
from ffdigits.laurent import RationalPoint, frac_digits
from ffdigits.polys import Poly, euler_phi

F5 = get_field(5)


def test_registry_ids():
    expected = {
        "pnt",
        "identity",
        "lemma1",
        "lemma2",
        "corollary1",
        "lemma3",
        "lemma4",
        "lemma5",
        "lemma6",
        "corollary2",
        "partition",
        "theorem_trend",
    }
    assert set(CHECKS) == expected


def test_run_check_unknown_id():
    with pytest.raises(ValueError, match="unknown check"):
        run_check("lemma99")


def test_result_shape():
    result = check_partition(cases=((2, 2),))
    assert result.passed
    assert result.cases == 1
    assert result.witnesses == []
    d = result.to_dict()
    assert d["check"] == "partition"
    assert d["pass"] is True
    assert d["cases"] == 1


def test_pnt_small_grid():
    result = check_pnt(enum_qs=(2, 3), enum_n_max=5, ident_qs=(2, 5), ident_n_max=8)
    assert result.passed
    assert result.cases == 2 * 5 + 2 * 8


def test_identity_check():
    assert check_identity().passed


def test_lemma1_check():
    result = check_lemma1(q=3, ns=(4,))
    assert result.passed
    assert result.cases > 0


def test_corollary_checks():
    assert check_corollary1(qs=(2, 3, 5), n_max=2).passed
    assert check_corollary2(ps=(3, 5), n_max=3).passed


def test_lemma3_check_narrow():
    assert check_lemma3(qs=(3,), n_max=4).passed


def test_lemma4_check_narrow():
    assert check_lemma4(qs=(3,), ds=(1, 2), ns=(4,)).passed


def test_lemma5_check():
    result = check_lemma5(qs=(2, 3), d_max=4)
    assert result.passed


def test_lemma5_witnesses_name_their_monic(monkeypatch):
    # with the bound halved the monics of largest ratio fail; each witness
    # label, built from the monic's code, must give back its ratio
    ratio_of = checks.lemma5_ratio

    def halved(field, d):
        ratio, bound = ratio_of(field, d)
        return ratio, bound / 2

    monkeypatch.setattr(checks, "lemma5_ratio", halved)
    result = check_lemma5(qs=(3,), d_max=3)
    assert not result.passed and result.witnesses
    F3 = get_field(3)
    for witness in result.witnesses:
        g = Poly.parse(F3, witness["g"])
        assert witness["lhs"] == 3**g.degree / euler_phi(g) > witness["rhs"]


@pytest.mark.parametrize("check_id", ["lemma1", "lemma3", "lemma4", "lemma5", "lemma6", "partition"])
def test_checks_build_no_poly(check_id, monkeypatch):
    # farey_windows, lemma1_errors and lemma5_ratio on the default grids work
    # on code arrays; a Poly is built only to label a violation
    def banned(*args, **kwargs):
        raise AssertionError("a check built a Poly")

    get_field(2, 2)  # partition's F_4: Rabin's test of its modulus builds a Poly, once
    with monkeypatch.context() as m:
        m.setattr(Poly, "__init__", banned)
        result = run_check(check_id)
    assert result.passed


def test_lemma6_check_narrow():
    result = check_lemma6(ps=(5,), n_max=4)
    assert result.passed
    assert result.params["s_max"] == "p-2"


def test_lemma6_counterexample_at_s_equals_p_minus_one():
    # With a single allowed coefficient every digit weight has modulus one, so
    # |S_R(a/g)| = 1 identically, while the consecutive pointwise bound
    # (p-s)^n exp(-[n/d]/p^3) dips below 1.  The verification grid therefore
    # stops at s = p - 2; this pins the excluded case.
    R = RestrictedSet.of(F5, 0, 1, 2, 3)
    assert R.is_consecutive and R.s == 4
    x = RationalPoint(Poly.one(F5), Poly(F5, (1, 1)))
    n = 3
    value = abs(s_r_at(R, n, frac_digits(x, n + 1)))
    bound = lemma6_bound(5, 4, n, x.g.degree)
    assert abs(value - 1) < 1e-12
    assert bound == pytest.approx(math.exp(-3 / 125))
    assert value > bound


def test_pointwise_witnesses_reproduce_their_lhs():
    # The excluded runs s = p - 1 break the lemma6 bound, so the driver must
    # record witnesses; each one's point label must rebuild the point and its
    # recorded |S_R|.  The bound is evaluated once per (set, n, deg g).
    calls = []

    def counted_bound(*args):
        calls.append(args)
        return lemma6_bound(*args)

    p, n_max = 5, 3
    sets = [frozenset((start + j) % p for j in range(p - 1)) for start in range(p)]
    rec = _Recorder()
    _pointwise_bound_check(rec, F5, sets, n_max, counted_bound)
    assert rec.violations
    assert len(calls) == len(sets) * n_max * 3
    assert {args[3] for args in calls} == {1, 2, 3}
    # every point is a case: 12,896 denominators not t^d, per set and n
    assert rec.cases == 12_896 * len(sets) * n_max == 193_440
    # each (set, n) records its largest margins: no unrecorded violation beats them
    fw = farey_windows(F5, 1, 3, n_max + 1)
    other = fw.g_codes != 0
    for forb in sets:
        R = RestrictedSet(F5, forb)
        for n in range(1, n_max + 1):
            lhs = np.abs(s_r_at(R, n, fw.windows))[other]
            rhs = np.array([lemma6_bound(p, p - 1, n, int(d)) for d in fw.degs[other]])
            margins = np.sort((lhs - rhs)[lhs > rhs * (1 + 1e-9) + 1e-9])[::-1]
            recorded = sorted(
                (m for m, w in rec.violations if w["forbidden"] == sorted(forb) and w["n"] == n),
                reverse=True,
            )
            assert 0 < len(recorded) == min(len(margins), checks.MAX_WITNESSES)
            assert recorded == pytest.approx(margins[: len(recorded)], rel=1e-12, abs=1e-12)
    for _, witness in rec.violations:
        num, den = witness["point"].split("/")
        x = RationalPoint(Poly.parse(F5, num), Poly.parse(F5, den))
        assert str(x) == witness["point"]
        assert any(x.g.coeffs[:-1])  # no denominator t^d
        R = RestrictedSet(F5, frozenset(witness["forbidden"]))
        n = witness["n"]
        value = abs(s_r_at(R, n, frac_digits(x, n + 1)))
        assert value == pytest.approx(witness["lhs"], rel=1e-12)
        assert witness["rhs"] == lemma6_bound(p, p - 1, n, x.g.degree)


def test_theorem_trend_pinned():
    result = check_theorem_trend()
    assert result.passed
    assert set(PINNED_Q17_NO_ZERO) == {2, 3, 4, 5}
    deviations = result.params["deviations"]
    assert float(deviations["5"]) < 0.01
