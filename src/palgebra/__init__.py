"""Exact arithmetic for symbol algebras of prime degree in characteristic p.

The library implements, exactly, over F_p(a, b) and over F_p((a))((b)),
whose values it builds are rational functions of a and b:

* the degree-p symbol algebra generated by x, y with x^p - x = alpha,
  y^p = beta and y x y^(-1) = x + 1, with exact normal-form products;
* Artin-Schreier and p-central element predicates, norms from F[x],
  and the eigendecomposition of elements under v -> v*x - x*v;
* presentation transformations that exhibit a common left slot for any
  right-linked pair of such algebras, with engine-verified witnesses;
* a rank-2 Gauss valuation on algebras over the bi-Laurent field, their
  value groups, and the two-algebra family check showing that sharing a
  left slot does not force sharing a right slot.
"""

from .algebra import AdComponents, AlgElement, SymbolAlgebra, make_algebra
from .errors import (
    DivisionByZero,
    ExprSyntaxError,
    HypothesisFails,
    InvalidPrime,
    InvalidSlot,
    NotArtinSchreier,
    NotInSubfield,
    NotInvertible,
    PAlgebraError,
    PrecisionExhausted,
    RelationFails,
    UnsupportedSlot,
    WitnessVerificationFailed,
    ZeroElement,
    ZeroValue,
)
from .fields import (
    FieldDescriptor,
    LaurentScalar,
    RatFunc,
    Value,
    frobenius,
    valuation,
)
from .linkage import (
    LeftLinkResult,
    LemmaReport,
    LinkageWitness,
    SymbolPresentation,
    chain_identity,
    right_to_left,
    scale_slot_by_norm,
    solve_lambda,
    verify_lemma,
    verify_presentation,
)
from .parsing import parse_element, parse_scalar
from .valuations import (
    CounterexampleReport,
    ValuedAlgebra,
    counterexample_check,
)

__version__ = "0.1.0"

__all__ = [
    "AdComponents",
    "AlgElement",
    "CounterexampleReport",
    "DivisionByZero",
    "ExprSyntaxError",
    "FieldDescriptor",
    "HypothesisFails",
    "InvalidPrime",
    "InvalidSlot",
    "LaurentScalar",
    "LeftLinkResult",
    "LemmaReport",
    "LinkageWitness",
    "NotArtinSchreier",
    "NotInSubfield",
    "NotInvertible",
    "PAlgebraError",
    "PrecisionExhausted",
    "RatFunc",
    "RelationFails",
    "SymbolAlgebra",
    "SymbolPresentation",
    "UnsupportedSlot",
    "Value",
    "ValuedAlgebra",
    "WitnessVerificationFailed",
    "ZeroElement",
    "ZeroValue",
    "chain_identity",
    "counterexample_check",
    "frobenius",
    "make_algebra",
    "parse_element",
    "parse_scalar",
    "right_to_left",
    "scale_slot_by_norm",
    "solve_lambda",
    "valuation",
    "verify_lemma",
    "verify_presentation",
]
