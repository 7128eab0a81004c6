"""Exact tools for determinantal expressions of polynomials.

Everything runs over exact coefficient fields (rationals or prime fields):
polynomial arithmetic, symbolic determinants, Groebner-basis dimension
counts, singular-locus codimension certificates for complexity lower
bounds, verified expression catalogs, coefficient-equation case analysis,
exhaustive expression search over small fields, and a random-sampling
harness for the codimension law.
"""

from .fields import Fp, PrimeField, QQ, RationalField, field_from_tag, field_tag
from .groebner import (
    EngineLimits,
    GroebnerBasis,
    Ideal,
    ResourceCapError,
    StaircaseBound,
    buchberger,
    normal_form,
    staircase_dimension,
)
from .matmap import AffineMatrixMap, perm_polynomial, symbolic_det, verify_expression
from .poly import Polynomial, VarSet
from .singularity import (
    Certificate,
    analyze_expression,
    certify_lower_bound,
    check_avoids_singular_locus,
    codim_sing,
    jacobian_ideal,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMatrixMap",
    "Certificate",
    "EngineLimits",
    "Fp",
    "GroebnerBasis",
    "Ideal",
    "Polynomial",
    "PrimeField",
    "QQ",
    "RationalField",
    "ResourceCapError",
    "StaircaseBound",
    "VarSet",
    "analyze_expression",
    "buchberger",
    "certify_lower_bound",
    "check_avoids_singular_locus",
    "codim_sing",
    "field_from_tag",
    "field_tag",
    "jacobian_ideal",
    "normal_form",
    "perm_polynomial",
    "staircase_dimension",
    "symbolic_det",
    "verify_expression",
    "__version__",
]
