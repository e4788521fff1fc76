"""Grothendieck-group invariants of isogeny categories.

Canonical degree classes per endomorphism context, kernel invariants in
characteristic p, binary-quadratic-form class groups, and a certificate-
producing derivation engine for equal-degree quotients, all in exact
arithmetic with independent brute-force oracles.
"""

from ._backend import backend_name
from .arith import (
    FactoredRational,
    FracLattice,
    IntMatrix,
    TorsionSubgroup,
    count_subgroups,
    factor,
    matrix_isogeny_degree,
)
from .contexts import (
    CM,
    CharPEndZ,
    DegreeClass,
    EndZ,
    GroupStructure,
    IsogenyContext,
    OrdinaryCM,
    Supersingular,
    make_context,
)
from .errors import (
    ContextError,
    ContextMismatchError,
    DerivationError,
    DiscriminantError,
    K0Error,
    KernelInputError,
    LevelMismatchError,
    ParseError,
    SingularMatrixError,
)
from .expr import eval_expression, parse_expression, print_expression
from .k0 import (
    Derivation,
    DerivationCheck,
    K0Element,
    QuotientRelation,
    derive_same_degree,
    k0_class,
    validate_derivation,
)
from .kernels import (
    KernelMultiset,
    cartier_dual,
    class_in_image,
    kernel_class,
    kernel_of_matrix_endo,
)
from .quadforms import (
    ClassGroup,
    QuadForm,
    SquareClasses,
    class_group,
    compose,
    prime_class,
    principal_form,
    reduce_form,
    square_classes,
)

__version__ = "0.1.0"

__all__ = [
    "CM",
    "CharPEndZ",
    "ClassGroup",
    "ContextError",
    "ContextMismatchError",
    "DegreeClass",
    "Derivation",
    "DerivationCheck",
    "DerivationError",
    "DiscriminantError",
    "EndZ",
    "FactoredRational",
    "FracLattice",
    "GroupStructure",
    "IntMatrix",
    "IsogenyContext",
    "K0Element",
    "K0Error",
    "KernelInputError",
    "KernelMultiset",
    "LevelMismatchError",
    "OrdinaryCM",
    "ParseError",
    "QuadForm",
    "QuotientRelation",
    "SingularMatrixError",
    "SquareClasses",
    "Supersingular",
    "TorsionSubgroup",
    "backend_name",
    "cartier_dual",
    "class_group",
    "class_in_image",
    "compose",
    "count_subgroups",
    "derive_same_degree",
    "eval_expression",
    "factor",
    "k0_class",
    "kernel_class",
    "kernel_of_matrix_endo",
    "make_context",
    "matrix_isogeny_degree",
    "parse_expression",
    "prime_class",
    "principal_form",
    "print_expression",
    "reduce_form",
    "square_classes",
    "validate_derivation",
    "__version__",
]
