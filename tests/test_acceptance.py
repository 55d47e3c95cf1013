"""Acceptance battery: one criterion per test, one printed verdict line each.

Each criterion either re-runs a named verification check over its full grid or
exercises the engines directly, and asserts at the pinned tolerance.
"""

import sys
import time

import pytest

from ffdigits.census import count_restricted
from ffdigits.charsum import RestrictedSet
from ffdigits.checks import (
    PINNED_Q17_NO_ZERO,
    check_corollary1,
    check_corollary2,
    check_identity,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_lemma5,
    check_lemma6,
    check_partition,
    check_pnt,
    check_theorem_trend,
)
from ffdigits.field import get_field

# default-grid case counts of the checks whose denominators come from the
# divisor sieve
PINNED_CASES = {
    "lemma1": 1338,
    "lemma3": 1_755_000,
    "lemma4": 138,
    "lemma5": 1218,
    "lemma6": 34_059_960,
    "partition": 10,
}


def pinned(result):
    return result.passed and result.cases == PINNED_CASES[result.check_id]


@pytest.fixture
def verdict(capfd):
    """Print one pass/fail line per criterion on the live terminal, then assert."""

    def _verdict(number, label, ok, elapsed):
        line = f"criterion {number:>2} {label:<42} {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)"
        with capfd.disabled():
            print(line, file=sys.stderr, flush=True)
        assert ok, line

    return _verdict


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def test_criterion_01_prime_count_consistency(verdict):
    result, elapsed = timed(check_pnt)
    verdict(1, "prime-count consistency", result.passed and elapsed < 60, elapsed)


def test_criterion_02_orthogonality_identity(verdict):
    result, elapsed = timed(check_identity)
    verdict(2, "orthogonality identity vs census", result.passed and elapsed < 120, elapsed)


def test_criterion_03_l1_closed_form(verdict):
    result, elapsed = timed(check_lemma2)
    verdict(3, "interval average closed form", result.passed and elapsed < 120, elapsed)


def test_criterion_04_cauchy_schwarz_bound(verdict):
    result, elapsed = timed(check_corollary1)
    verdict(4, "Cauchy-Schwarz average bound", result.passed, elapsed)


def test_criterion_05_pointwise_bounds(verdict):
    r3, e3 = timed(check_lemma3)
    r6, e6 = timed(check_lemma6)
    verdict(5, "pointwise bounds at rational points", pinned(r3) and pinned(r6), e3 + e6)


def test_criterion_06_summed_minor_arc_bound(verdict):
    result, elapsed = timed(check_lemma4)
    verdict(6, "summed bound over small denominators", pinned(result), elapsed)


def test_criterion_07_weil_error_bound(verdict):
    result, elapsed = timed(check_lemma1)
    verdict(7, "square-root cancellation error", pinned(result) and elapsed < 120, elapsed)


def test_criterion_08_phi_ratio_bound(verdict):
    result, elapsed = timed(check_lemma5)
    verdict(8, "totient ratio bound", pinned(result), elapsed)


def test_criterion_09_farey_partition(verdict):
    result, elapsed = timed(check_partition)
    verdict(9, "Farey arc partition", pinned(result), elapsed)


def test_criterion_10_asymptotic_trend(verdict):
    result, elapsed = timed(check_theorem_trend)
    verdict(10, "pinned census and ratio trend (q=17)", result.passed and elapsed < 300, elapsed)


def test_criterion_11_parallel_determinism(verdict):
    start = time.perf_counter()
    ok = True
    # the census grid of criterion 10
    R17 = RestrictedSet.of(get_field(17), 0)
    for n, pinned in sorted(PINNED_Q17_NO_ZERO.items()):
        ref = count_restricted(R17, n, workers=1)
        ok &= ref == pinned
        ok &= count_restricted(R17, n, workers=2) == ref
        ok &= count_restricted(R17, n, workers=4) == ref
    verdict(11, "worker-count independence", ok, time.perf_counter() - start)


def test_consecutive_average_bound_rider():
    # companion to criterion 4: the consecutive-run refinement over its grid
    result, elapsed = timed(check_corollary2)
    print(
        f"rider       consecutive-run average bound          "
        f"{'PASS' if result.passed else 'FAIL'} ({elapsed:.1f}s)",
        file=sys.stderr,
        flush=True,
    )
    assert result.passed
