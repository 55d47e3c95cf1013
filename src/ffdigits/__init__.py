"""Exact censuses and bound verification for irreducible polynomials with
restricted coefficients over finite fields."""

from importlib import import_module

# each submodule's public names; it is imported on first use (PEP 562), so a census skips checks
_EXPORTS = {
    "census": (
        "CensusReport", "PredictorParams", "count_restricted", "main_term", "predictor", "scan"
    ),
    "checks": ("CheckResult", "run_check"),
    "circle": ("orthogonality_count",),
    "field": ("FieldSpec", "RestrictedSet", "get_field"),
    "laurent": ("RationalPoint", "frac_digits"),
    "polys": ("Poly", "euler_phi", "is_irreducible", "mobius"),
    "sieve": ("prime_count",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_SOURCE[name]}", __name__), name)
