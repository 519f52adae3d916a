"""Symbol-presentation transformations with machine-checked witnesses.

A presentation [left, right) of an algebra is certified by a generator
pair (z, w) with w z w^(-1) = z + 1, z^p - z = left and w^p = right.
Every transformation here returns both the new presentation and such a
witness, verified by the multiplication engine rather than trusted from
the closed forms that motivate it.  Every relation is decided on canonical
forms: scalars compare with ==, elements by their entries maps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgElement, SymbolAlgebra, make_algebra
from .errors import (
    HypothesisFails,
    InvalidSlot,
    RelationFails,
    WitnessVerificationFailed,
)
from .fields import FieldDescriptor, frobenius


@dataclass(frozen=True)
class SymbolPresentation:
    """The data [left, right)_p over a named base field."""

    left: object
    right: object
    p: int
    field: FieldDescriptor

    def __post_init__(self):
        if self.right.is_zero():
            raise InvalidSlot("the right slot must be nonzero")

    def __str__(self):
        return f"[{self.left}, {self.right})_{self.p}"


@dataclass(frozen=True)
class LinkageWitness:
    """A generator pair certifying a presentation of its algebra: w^p is a
    nonzero scalar, so w is a unit, and the products wz = w z and z1w = (z + 1) w agree."""

    z: AlgElement
    w: AlgElement
    claimed_left: object
    claimed_right: object
    wz: AlgElement
    z1w: AlgElement

    def to_dict(self):
        return {
            "z": str(self.z),
            "w": str(self.w),
            "left": str(self.claimed_left),
            "right": str(self.claimed_right),
        }


@dataclass(frozen=True)
class LeftLinkResult:
    """Output of the right-linked to left-linked construction."""

    lam: object
    common_left: object
    pres_A: SymbolPresentation
    pres_Aprime: SymbolPresentation
    witness_A: LinkageWitness
    witness_Aprime: LinkageWitness

    def to_dict(self):
        return {
            "lambda": str(self.lam),
            "common_left": str(self.common_left),
            "presentation_A": str(self.pres_A),
            "presentation_Aprime": str(self.pres_Aprime),
            "witness_A": self.witness_A.to_dict(),
            "witness_Aprime": self.witness_Aprime.to_dict(),
        }


@dataclass(frozen=True)
class LemmaReport:
    """Both sides of (x+y)^p - (x+y) = (x^p - x) + y^p plus the shift check."""

    k: int
    m: int
    lhs: AlgElement
    rhs: AlgElement
    sides_agree: bool
    shift_conjugation_ok: bool

    @property
    def ok(self):
        return self.sides_agree and self.shift_conjugation_ok


def verify_presentation(A: SymbolAlgebra, z: AlgElement, w: AlgElement) -> LinkageWitness:
    """Check the generator-pair relations and extract the certified slots.

    A nonzero scalar w^p = r makes w a unit with inverse w^(p-1) / r, so
    w z = (z + 1) w is w z w^(-1) = z + 1 and no inverse is computed.  The
    slots (z^p - z, w^p) then present the algebra; all is engine-checked.
    A nilpotent w raises NotInvertible with inverse's verified witness.
    """
    right = A.is_p_central(w)
    if right is None:
        raise RelationFails("w^p lies in the base field")
    if right.is_zero():
        A.inverse(w)  # w^p = 0, so this raises NotInvertible with a verified witness
    wz, z1w = A.mul(w, z), A.mul(z + A.one(), w)
    if wz.entries != z1w.entries:
        raise RelationFails("w z = (z + 1) w", computed=wz, expected=z1w)
    left = A.is_artin_schreier(z)
    if left is None:
        raise RelationFails("z^p - z lies in the base field")
    return LinkageWitness(z=z, w=w, claimed_left=left, claimed_right=right, wz=wz, z1w=z1w)


def _verify_slots(A, z, w, left, right, message):
    """verify_presentation(A, z, w), whose certified slots must be the
    closed forms left and right; WitnessVerificationFailed(message) if not."""
    witness = verify_presentation(A, z, w)
    if witness.claimed_left != left or witness.claimed_right != right:
        raise WitnessVerificationFailed(message)
    return witness


def chain_identity(A: SymbolAlgebra):
    """The presentation [alpha + beta, beta) of A = [alpha, beta), with the
    witness pair (x + y, y)."""
    witness = _verify_slots(A, A.x() + A.y(), A.y(), A.alpha + A.beta, A.beta,
                            "chain identity produced unexpected slots")
    new_pres = SymbolPresentation(witness.claimed_left, witness.claimed_right, A.p, A.field)
    return new_pres, witness


def scale_slot_by_norm(A: SymbolAlgebra, u: AlgElement):
    """Rescale the right slot of A = [alpha, beta) by the norm of u in F[x]:
    [alpha, N(u)*beta).

    Returns the new presentation, its witness and the norm N(u).  The
    witness pair is (x, u*y); u commutes with x, so u*y still shifts x by
    one under conjugation.
    """
    norm = A.norm_Fx(u)
    witness = _verify_slots(A, A.x(), A.mul(u, A.y()), A.alpha, norm * A.beta,
                            "norm scaling produced unexpected slots")
    new_pres = SymbolPresentation(A.alpha, witness.claimed_right, A.p, A.field)
    return new_pres, witness, norm


def verify_lemma(A: SymbolAlgebra, x_el: AlgElement, y_el: AlgElement) -> LemmaReport:
    """Check the additivity identity for a pair with y x - x y = k y.

    Finds k in {1, ..., p-1} with commutator(y_el, x_el) = k * y_el, then
    expands both sides of (x+y)^p - (x+y) = (x^p - x) + y^p directly.  The
    report also confirms that conjugating x_el + y_el by y_el^m shifts it
    by one, where m k = 1 (mod p), which is what makes the sum
    Artin-Schreier.
    """
    if x_el.is_zero() or y_el.is_zero():
        raise HypothesisFails("both elements must be nonzero")
    comm = A.commutator(y_el, x_el)
    k_found = None
    for k in range(1, A.p):
        if comm.entries == A.scale(k, y_el).entries:
            k_found = k
            break
    if k_found is None:
        raise HypothesisFails("no k in 1..p-1 with y x - x y = k y")
    m = next(m for m in range(1, A.p) if (m * k_found) % A.p == 1)
    s = x_el + y_el
    lhs = A.sub(A.power(s, A.p), s)
    rhs = A.add(A.sub(A.power(x_el, A.p), x_el), A.power(y_el, A.p))
    shifted = A.conjugate(A.power(y_el, m), s)
    return LemmaReport(
        k=k_found,
        m=m,
        lhs=lhs,
        rhs=rhs,
        sides_agree=lhs.entries == rhs.entries,
        shift_conjugation_ok=shifted.entries == (s + A.one()).entries,
    )


def solve_lambda(alpha, gamma, beta):
    """The unique lambda with alpha + beta*(alpha - lambda) = gamma."""
    if beta.is_zero():
        raise InvalidSlot("the shared right slot must be nonzero")
    lam = alpha - (gamma - alpha) / beta
    if alpha + beta * (alpha - lam) != gamma:
        raise WitnessVerificationFailed("lambda failed its defining equation")
    return lam


def right_to_left(alpha, gamma, beta, p, field: FieldDescriptor) -> LeftLinkResult:
    """Produce a common left slot for the right-linked pair [alpha, beta),
    [gamma, beta), with verified witnesses in both algebras.

    In A = [alpha, beta) the pair is z = x + (lambda + x) y, w = (lambda + x) y;
    in A' = [gamma, beta) it is z' = x' + lambda y', w' = y'.  Both z and z'
    have p-th Artin-Schreier constant gamma + lambda^p beta.
    """
    lam = solve_lambda(alpha, gamma, beta)
    lam_p = frobenius(lam)
    common_left = gamma + lam_p * beta
    norm_slot = (alpha + lam_p - lam) * beta
    if norm_slot.is_zero():
        raise InvalidSlot(
            "alpha + lambda^p - lambda = 0: the rescaled right slot vanishes, "
            "so the pair is degenerate (x + lambda is a zero divisor in F[x])"
        )

    A = make_algebra(p, alpha, beta, field)
    w = A.mul(A.scalar(lam) + A.x(), A.y())
    z = A.x() + w
    witness_A = _verify_slots(A, z, w, common_left, norm_slot,
                              "witness slots in A disagree with the closed form")

    Aprime = make_algebra(p, gamma, beta, field)
    zp = Aprime.x() + lam * Aprime.y()
    witness_Aprime = _verify_slots(Aprime, zp, Aprime.y(), common_left, beta,
                                   "witness slots in A' disagree with the closed form")

    if alpha + norm_slot != common_left:
        raise WitnessVerificationFailed("slot bookkeeping identity failed")

    return LeftLinkResult(
        lam=lam,
        common_left=common_left,
        pres_A=SymbolPresentation(common_left, norm_slot, p, field),
        pres_Aprime=SymbolPresentation(common_left, beta, p, field),
        witness_A=witness_A,
        witness_Aprime=witness_Aprime,
    )
