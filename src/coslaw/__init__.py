"""Toolkit for the functional equation

    g(x sigma(y)) = g(x) g(y) - f(x) f(y) + alpha f(x sigma(y))

on semigroups with an involutive automorphism sigma: carriers and
characters, constructors for the eight solution families, residual
verification, structural lemma checkers, a brute-force numerical
completeness oracle on small finite carriers, and a classifier mapping
solutions back to family descriptors.
"""

from .analysis import (
    ClassificationResult,
    NotASolution,
    VerificationReport,
    check_G_properties,
    check_dependence_lemma,
    check_parity_lemma,
    check_linear_dependence,
    classify,
    residual,
)
from .exactnum import Cyc, ExpPoly
from .families import (
    ConditionViolation,
    FamilyDescriptor,
    HSpec,
    InvalidDescriptor,
    SolutionPair,
    build_h,
    construct,
    function_vanishing_on_products,
    sqrt_branch,
)
from .fixtures import FIXTURE_NAMES, Fixture, get_fixture
from .functions import (
    MultiplicativeFunction,
    NullSets,
    ScalarFunction,
    check_pchi_lemma,
    enumerate_multiplicative,
    even_part,
    is_additive,
    is_multiplicative,
    null_sets,
    odd_part,
    star,
)
from .semigroups import (
    FiniteSemigroup,
    InvolutiveAutomorphism,
    ProceduralSemigroup,
    enumerate_involutive_automorphisms,
    is_abelian_fn,
    is_central,
    product_set,
    validate,
)
from .solver import CompletenessReport, SolutionSet, SolverConfig, completeness_check, find_solutions

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
