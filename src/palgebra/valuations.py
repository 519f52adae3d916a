"""Rank-2 valuation machinery over F_p((a))((b)).

For a symbol algebra over the bi-Laurent field whose left slot is a unit
with nonzero residue (so the x-generator is unramified) and whose right
slot has value not divisible by p in at least one coordinate, the value
of an element is computed Gauss-style: the minimum of coefficient value
plus j*v(y) over the nonzero grid entries (i, j).  The p cosets of j*v(y)
modulo Z^2 are pairwise distinct, which keeps the minimum honest; the
multiplicativity property tests are the operational justification.

The residue ring of such an algebra is F_p[xbar] with
xbar^p - xbar = (residue of the left slot).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgElement, SymbolAlgebra, make_algebra
from .errors import (
    NotUnitValue,
    UnsupportedSlot,
    ZeroValue,
)
from .fields import FieldDescriptor, Value, certified_equal, valuation
from .sampling import random_fx_element


@dataclass(frozen=True)
class ResiduePoly:
    """Element of the residue ring F_p[xbar : xbar^p - xbar = r]."""

    p: int
    slot_residue: int
    coeffs: tuple

    @classmethod
    def make(cls, p, slot_residue, coeffs):
        c = list(coeffs) + [0] * (p - len(coeffs))
        return cls(p, slot_residue % p, tuple(v % p for v in c[:p]))

    def __add__(self, other):
        self._check(other)
        return ResiduePoly.make(
            self.p, self.slot_residue, [u + v for u, v in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, other):
        self._check(other)
        p = self.p
        prod = [0] * (2 * p - 1)
        for i, u in enumerate(self.coeffs):
            if u:
                for j, v in enumerate(other.coeffs):
                    if v:
                        prod[i + j] = (prod[i + j] + u * v) % p
        # reduce by xbar^p = xbar + r
        while len(prod) > p:
            top = prod.pop()
            e = len(prod) - p
            prod[e + 1] = (prod[e + 1] + top) % p
            prod[e] = (prod[e] + top * self.slot_residue) % p
        return ResiduePoly.make(p, self.slot_residue, prod)

    def _check(self, other):
        if self.p != other.p or self.slot_residue != other.slot_residue:
            raise ValueError("mixed residue rings")

    def is_zero(self):
        return not any(self.coeffs)

    def __str__(self):
        parts = []
        for i in range(self.p - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                xs = "xbar" if i == 1 else f"xbar^{i}"
                parts.append(xs if c == 1 else f"{c}*{xs}")
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class ValueGroupReport:
    """Normalized lattice of attained values."""

    generators: tuple
    basis: tuple
    description: str

    def __str__(self):
        return self.description


class ValuedAlgebra:
    """A symbol algebra over F_p((a))((b)) carrying its Gauss valuation."""

    __slots__ = ("algebra", "v_y", "unramified_x")

    def __init__(self, algebra: SymbolAlgebra):
        if algebra.field.kind != "laurent":
            raise UnsupportedSlot("valuations need a Laurent base field")
        beta_val = valuation(algebra.beta)
        if beta_val.va.denominator != 1 or beta_val.vb.denominator != 1:
            raise UnsupportedSlot("the right slot must have an integral value")
        if beta_val.va % algebra.p == 0 and beta_val.vb % algebra.p == 0:
            raise UnsupportedSlot("v(beta) is divisible by p; cosets of j*v(y) collapse")
        self.algebra = algebra
        self.v_y = beta_val.divided_by(algebra.p)
        alpha = algebra.alpha
        try:
            alpha_unit = valuation(alpha) == Value.of(0, 0)
        except ZeroValue:
            alpha_unit = False
        self.unramified_x = alpha_unit and alpha.coefficient(0, 0) != 0
        if not self.unramified_x:
            raise UnsupportedSlot(
                "the left slot must be a unit with nonzero residue (unramified x)"
            )

    def gauss_value(self, t: AlgElement) -> Value:
        """Minimum of v(c_ij) + j*v(y) over the support of t."""
        self.algebra._check(t)
        best = None
        for (_, j), c in t.support():
            v = valuation(c) + self.v_y * j
            if best is None or v < best:
                best = v
        if best is None:
            raise ZeroValue("the zero element has no value")
        return best

    def residue(self, t: AlgElement) -> ResiduePoly:
        """Residue of a unit-value element as a polynomial in xbar."""
        if self.gauss_value(t) != Value.of(0, 0):
            raise NotUnitValue("residue needs an element of value (0, 0)")
        p = self.algebra.p
        slot_res = self.algebra.alpha.coefficient(0, 0)
        coeffs = [0] * p
        for (i, j), c in t.support():
            if j != 0:
                continue  # carries a fractional value component, drops to 0
            if valuation(c) == Value.of(0, 0):
                coeffs[i] = c.coefficient(0, 0)
        return ResiduePoly.make(p, slot_res, coeffs)

    def value_group(self) -> ValueGroupReport:
        """Lattice generated by Z^2 and v(y), normalized."""
        beta = self.algebra.beta
        if len(beta.terms) != 1 or not beta.exact:
            raise UnsupportedSlot("value group reporting needs a monomial right slot")
        p = self.algebra.p
        rows = [(p, 0), (0, p), (self.v_y.va * p, self.v_y.vb * p)]
        basis_int = _hermite_2col([(int(u), int(v)) for u, v in rows])
        basis = tuple(
            Value(Fraction(u, p), Fraction(v, p)) for u, v in basis_int
        )
        return ValueGroupReport(
            generators=(Value.of(1, 0), Value.of(0, 1), self.v_y),
            basis=basis,
            description=_describe_lattice(basis),
        )


def _hermite_2col(rows):
    """Row Hermite normal form of an integer matrix with two columns,
    returned as two basis rows [(d1, v), (0, d2)]."""
    rows = [r for r in rows if r != (0, 0)]
    while True:
        nonzero_first = [r for r in rows if r[0] != 0]
        if len(nonzero_first) <= 1:
            break
        nonzero_first.sort(key=lambda r: abs(r[0]))
        (u0, v0), rest = nonzero_first[0], nonzero_first[1:]
        new_rows = [r for r in rows if r[0] == 0] + [(u0, v0)]
        for u, v in rest:
            q = u // u0
            new_rows.append((u - q * u0, v - q * v0))
        rows = [r for r in new_rows if r != (0, 0)]
    first = next(((u, v) for u, v in rows if u != 0), None)
    seconds = [v for u, v in rows if u == 0 and v != 0]
    if first is None or not seconds:
        raise UnsupportedSlot("value lattice is degenerate")
    d2 = math.gcd(*seconds)
    d1, v1 = first
    if d1 < 0:
        d1, v1 = -d1, -v1
    v1 %= d2
    return [(d1, v1), (0, d2)]


def _describe_lattice(basis):
    (a1, b1), (a2, b2) = (basis[0].va, basis[0].vb), (basis[1].va, basis[1].vb)
    if b1 == 0 and a2 == 0:
        def axis(f):
            if f == 1:
                return "Z"
            return f"(1/{f.denominator})Z" if f.numerator == 1 else f"{f}Z"
        return f"{axis(a1)} x {axis(b2)}"
    return f"lattice[({a1}, {b1}), ({a2}, {b2})]"


# ---------------------------------------------------------------------------
# the two-algebra family check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleRecord:
    """One sampled p-central element u*y in one of the two algebras."""

    algebra: str
    u: str
    p_power: str
    value: Value
    fractional_coordinate: str
    coordinate_residue: int
    norm_identity_ok: bool
    residue_ok: bool

    @property
    def ok(self):
        return self.norm_identity_ok and self.residue_ok


@dataclass(frozen=True)
class CounterexampleReport:
    """Family evidence that [1, a) and [1, b) share no inseparable subfield.

    The sampled facts are engine-verified.  The full statement, that every
    purely inseparable maximal subfield of either algebra is totally
    ramified with the printed value group, rests on the ramification
    theory of valued division algebras and is recorded as background, not
    re-verified here.
    """

    p: int
    precision: int
    samples: int
    seed: int
    value_group_a: str
    value_group_b: str
    records: tuple
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
    one = field.one()
    A_a = make_algebra(p, one, field.gen("a"), field)
    A_b = make_algebra(p, one, field.gen("b"), field)
    va_a = ValuedAlgebra(A_a)
    va_b = ValuedAlgebra(A_b)
    group_a = va_a.value_group().description
    group_b = va_b.value_group().description

    rng = random.Random(seed)
    # coefficient exponents stay inside the window
    max_degree = min(2, precision - 1)
    records = []
    all_distinct = True
    for _ in range(samples):
        for tag, A, va, coord in (("[1,a)", A_a, va_a, "a"), ("[1,b)", A_b, va_b, "b")):
            while True:
                u = random_fx_element(rng, A, max_degree=max_degree)
                norm = A.norm_Fx(u)
                if not norm.is_zero():
                    break
            # u is nonzero, so u*y is not central and is p-central exactly
            # when its p-th power is a scalar
            t_p = A.power(A.mul(u, A.y()), p)
            central = t_p.is_scalar()
            norm_ok = central is not None and certified_equal(central, norm * A.beta)
            v = va.gauss_value(t_p)
            if coord == "a":
                residue = int(v.va) % p
            else:
                residue = int(v.vb) % p
            records.append(
                SampleRecord(
                    algebra=tag,
                    u=str(u),
                    p_power=str(central) if central is not None else "not p-central",
                    value=v,
                    fractional_coordinate=coord,
                    coordinate_residue=residue,
                    norm_identity_ok=norm_ok,
                    residue_ok=residue == 1,
                )
            )
        # subfield lattices: Z^2 + Z*v(t) has its index-p direction along a
        # in [1,a) and along b in [1,b); they agree only if both residues
        # vanish, which the residue checks above exclude
        ra, rb = records[-2], records[-1]
        lattice_a = _hermite_2col([(p, 0), (0, p), (int(ra.value.va), int(ra.value.vb))])
        lattice_b = _hermite_2col([(p, 0), (0, p), (int(rb.value.va), int(rb.value.vb))])
        if lattice_a == lattice_b:
            all_distinct = False

    verified = (
        "for each sampled u, (u*y)^p equals N(u) times the right slot (engine identity)",
        "the a-coordinate of v((u*y)^p) is 1 mod p in [1,a), "
        "and the b-coordinate is 1 mod p in [1,b), for every sample",
        "the value groups of the sampled subfields F(u*y) never coincide across the two algebras",
        f"value groups: [1,a) gives {group_a}, [1,b) gives {group_b}",
    )
    background = (
        "every purely inseparable maximal subfield of either algebra is totally ramified "
        "with the printed value group; this rests on the ramification theory of valued "
        "division algebras and is not machine-checked",
        "the sampled family u*y is supporting evidence for that full statement, not a proof",
    )
    return CounterexampleReport(
        p=p,
        precision=precision,
        samples=samples,
        seed=seed,
        value_group_a=group_a,
        value_group_b=group_b,
        records=tuple(records),
        lattices_always_distinct=all_distinct,
        verified_facts=verified,
        background_facts=background,
    )
