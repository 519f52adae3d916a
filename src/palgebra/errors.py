"""Exception types shared across the library."""


class PAlgebraError(Exception):
    """Base class for all library-specific errors."""


class DivisionByZero(PAlgebraError, ZeroDivisionError):
    """Division by a scalar that is exactly zero."""


class PrecisionExhausted(PAlgebraError):
    """A truncated Laurent computation cannot certify the requested fact.

    No arithmetic raises it: every Laurent scalar is an exact rational
    function.  It stays a public name, which perfbench/tracer.py counts."""


class ZeroValue(PAlgebraError):
    """Valuation requested for the zero element."""


class InvalidPrime(PAlgebraError):
    """The degree parameter p is not a prime number, or exceeds fields.MAX_PRIME."""


class InvalidSlot(PAlgebraError):
    """A presentation slot violates its constraint (right slot must be nonzero)."""


class NotInvertible(PAlgebraError):
    """Inversion failed; ``witness`` is a nonzero s with s*t = 0."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotInSubfield(PAlgebraError):
    """The element is not supported in the commutative subring F[x]."""


class ZeroElement(PAlgebraError):
    """An operation required a nonzero algebra element."""


class NotArtinSchreier(PAlgebraError):
    """The designated element is not Artin-Schreier."""


class RelationFails(PAlgebraError):
    """A generator relation check failed; ``relation`` names the culprit."""

    def __init__(self, relation, computed=None, expected=None):
        super().__init__(f"relation does not hold: {relation}")
        self.relation = relation
        self.computed = computed
        self.expected = expected


class HypothesisFails(PAlgebraError):
    """The commutation hypothesis y*x - x*y = k*y has no solution k."""


class WitnessVerificationFailed(PAlgebraError):
    """An identity that must hold unconditionally failed; indicates a bug."""


class NotUnitValue(PAlgebraError):
    """Residue requested for an element whose value is not (0, 0)."""


class UnsupportedSlot(PAlgebraError):
    """The valued-algebra machinery does not cover this slot."""


class ExprSyntaxError(PAlgebraError):
    """Malformed expression text; ``position`` is a 0-based offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position
