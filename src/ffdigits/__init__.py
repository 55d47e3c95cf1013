"""Exact censuses and bound verification for irreducible polynomials with
restricted coefficients over finite fields."""

from .census import CensusReport, count_restricted, scan
from .charsum import RestrictedSet
from .checks import CheckResult, run_check
from .circle import PredictorParams, main_term, orthogonality_count, predictor
from .field import FieldSpec, get_field
from .laurent import RationalPoint, frac_digits
from .polys import Poly, euler_phi, is_irreducible, mobius, prime_count

__all__ = [
    "CensusReport",
    "CheckResult",
    "FieldSpec",
    "Poly",
    "PredictorParams",
    "RationalPoint",
    "RestrictedSet",
    "count_restricted",
    "euler_phi",
    "frac_digits",
    "get_field",
    "is_irreducible",
    "main_term",
    "mobius",
    "orthogonality_count",
    "predictor",
    "prime_count",
    "run_check",
    "scan",
]
