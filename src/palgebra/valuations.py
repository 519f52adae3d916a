"""Rank-2 valuation machinery over F_p((a))((b)).

For a symbol algebra over the bi-Laurent field whose left slot is a unit
with nonzero residue (so the x-generator is unramified) and whose right
slot has value not divisible by p in at least one coordinate, the value
of an element is computed Gauss-style: the minimum of coefficient value
plus j*v(y) over the nonzero grid entries (i, j), taken on integer pairs
scaled by p, with one Value built per call.  The p cosets of j*v(y)
modulo Z^2 are pairwise distinct, which keeps the minimum honest; the
multiplicativity property tests are the operational justification.

The value group Z^2 + Z*v(y) is kept as p times itself, the integer
lattice p*Z^2 + Z*v(beta) with v(beta) the exact leading exponents of the
right slot, in the row Hermite basis that _value_lattice gives; the family
check compares the lattices of its sampled subfields the same way.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgElement, SymbolAlgebra, make_algebra
from .errors import UnsupportedSlot, ZeroValue
from .fields import FieldDescriptor, Value, leading_exponents
from .sampling import random_fx_element


class ValuedAlgebra:
    """A symbol algebra over F_p((a))((b)) carrying its Gauss valuation."""

    __slots__ = ("algebra", "_beta_exp")

    def __init__(self, algebra: SymbolAlgebra):
        if algebra.field.kind != "laurent":
            raise UnsupportedSlot("valuations need a Laurent base field")
        va, vb = self._beta_exp = leading_exponents(algebra.beta)
        if va % algebra.p == 0 and vb % algebra.p == 0:
            raise UnsupportedSlot("v(beta) is divisible by p; cosets of j*v(y) collapse")
        self.algebra = algebra
        # a value (0, 0) is a leading term a^0 b^0: a nonzero residue
        if algebra.alpha.is_zero() or leading_exponents(algebra.alpha) != (0, 0):
            raise UnsupportedSlot(
                "the left slot must be a unit with nonzero residue (unramified x)"
            )

    def gauss_value(self, t: AlgElement) -> Value:
        """Minimum of v(c_ij) + j*v(y) over the support of t, compared as
        the integer key p*(v(c_ij) + j*v(y)), b first; one Value is built."""
        self.algebra._check(t)
        p = self.algebra.p
        va, vb = self._beta_exp
        best = None
        for (_, j), c in t.entries.items():
            ea, eb = leading_exponents(c)
            key = (p * eb + j * vb, p * ea + j * va)
            if best is None or key < best:
                best = key
        if best is None:
            raise ZeroValue("the zero element has no value")
        return Value(Fraction(best[1], p), Fraction(best[0], p))

    def value_group(self) -> str:
        """The value group Z^2 + Z*v(y), v(y) = v(beta)/p, as printed."""
        p = self.algebra.p
        return _describe_lattice(p, _value_lattice(p, *self._beta_exp))


def _value_lattice(p, u, w):
    """Row Hermite basis [(d1, v), (0, d2)] of the lattice p*Z^2 + Z*(u, w)
    for a prime p: with u a unit mod p it is [(1, w/u mod p), (0, p)],
    else [(p, 0), (0, gcd(p, w))]."""
    if u % p:
        return [(1, w * pow(u, -1, p) % p), (0, p)]
    return [(p, 0), (0, math.gcd(p, w))]


def _describe_lattice(p, basis):
    """The lattice with row Hermite basis ``basis`` of integer pairs,
    scaled by 1/p: a product of axes when the basis is diagonal."""
    def q(n):  # n/p in lowest terms, p prime
        return str(n // p) if n % p == 0 else f"{n}/{p}"

    (a1, b1), (a2, b2) = basis
    if b1 == 0 and a2 == 0:
        return " x ".join("Z" if d == p else f"({q(d)})Z" for d in (a1, b2))
    return f"lattice[({q(a1)}, {q(b1)}), ({q(a2)}, {q(b2)})]"


# ---------------------------------------------------------------------------
# the two-algebra family check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleRecord:
    """One sampled p-central element u*y in one of the two algebras."""

    value: Value
    coordinate_residue: int
    norm_identity_ok: bool

    @property
    def ok(self):
        return self.norm_identity_ok and self.coordinate_residue == 1


@dataclass(frozen=True)
class CounterexampleReport:
    """Family evidence that [1, a) and [1, b) share no inseparable subfield.

    The records alternate between [1, a) and [1, b), one pair per sample.
    A fact is listed as verified only when its check passed.  The full
    statement, that every purely inseparable maximal subfield of either
    algebra is totally ramified with the printed value group, rests on the
    ramification theory of valued division algebras and is recorded as
    background, not re-verified here.
    """

    value_group_a: str
    value_group_b: str
    records: tuple
    norm_identities: int  # records with (u*y)^p = N(u)*beta
    residues_a: int  # [1, a) records whose a-coordinate is 1 mod p
    residues_b: int  # [1, b) records whose b-coordinate is 1 mod p
    lattices_always_distinct: bool
    verified_facts: tuple
    background_facts: tuple

    @property
    def checks_passed(self):
        return sum(1 for r in self.records if r.ok)

    @property
    def total_checks(self):
        return len(self.records)

    @property
    def ok(self):
        return self.checks_passed == self.total_checks and self.lattices_always_distinct


def counterexample_check(p, precision, samples, seed) -> CounterexampleReport:
    """Sample p-central elements u*y in [1, a) and [1, b) and verify that
    the fractional coordinate of v((u*y)^p) sits in the a-axis for the
    first algebra and the b-axis for the second, so the subfield value
    groups never coincide across the two."""
    if samples < 1:
        raise ValueError("need at least one sample")
    field = FieldDescriptor("laurent", p, precision)
    valued = [ValuedAlgebra(make_algebra(p, field.one(), field.gen(g), field)) for g in "ab"]
    group_a, group_b = (va.value_group() for va in valued)

    rng = random.Random(seed)
    records = []
    norms, residues = 0, [0, 0]
    all_distinct = True
    for _ in range(samples):
        for k, va in enumerate(valued):
            A = va.algebra
            while True:
                u = random_fx_element(rng, A, max_degree=2)
                norm = A.norm_Fx(u)
                if not norm.is_zero():
                    break
            # u is nonzero, so u*y is not central and is p-central exactly
            # when its p-th power is a scalar
            t_p = A.power(A.mul(u, A.y()), p)
            central = t_p.is_scalar()
            norm_ok = central is not None and central == norm * A.beta
            v = va.gauss_value(t_p)
            # coordinate k of v: a in [1, a), b in [1, b)
            residue = int((v.va, v.vb)[k]) % p
            records.append(SampleRecord(v, residue, norm_ok))
            norms += norm_ok
            residues[k] += residue == 1
        # subfield lattices: Z^2 + Z*v(t) has its index-p direction along a
        # in [1,a) and along b in [1,b); they agree only if both residues
        # vanish, which the residue checks above exclude
        lattice_a, lattice_b = (
            _value_lattice(p, int(r.value.va), int(r.value.vb)) for r in records[-2:]
        )
        all_distinct = all_distinct and lattice_a != lattice_b

    facts = (
        ("for each sampled u, (u*y)^p equals N(u) times the right slot (engine identity)",
         norms == len(records)),
        ("the a-coordinate of v((u*y)^p) is 1 mod p in [1,a), "
         "and the b-coordinate is 1 mod p in [1,b), for every sample",
         residues == [samples, samples]),
        ("the value groups of the sampled subfields F(u*y) never coincide across the two algebras",
         all_distinct),
        (f"value groups: [1,a) gives {group_a}, [1,b) gives {group_b}", True),
    )
    background = (
        "every purely inseparable maximal subfield of either algebra is totally ramified "
        "with the printed value group; this rests on the ramification theory of valued "
        "division algebras and is not machine-checked",
        "the sampled family u*y is supporting evidence for that full statement, not a proof",
    )
    return CounterexampleReport(
        value_group_a=group_a,
        value_group_b=group_b,
        records=tuple(records),
        norm_identities=norms,
        residues_a=residues[0],
        residues_b=residues[1],
        lattices_always_distinct=all_distinct,
        verified_facts=tuple(fact for fact, ok in facts if ok),
        background_facts=background,
    )
