"""Gauss valuation, value groups, and the two-algebra family check."""

import random
from fractions import Fraction

import pytest

from palgebra import (
    AlgElement,
    FieldDescriptor,
    UnsupportedSlot,
    Value,
    ValuedAlgebra,
    ZeroValue,
    counterexample_check,
    make_algebra,
    valuation,
    valuations,
)
from palgebra.sampling import random_poly_scalar
from palgebra.valuations import _value_lattice

from support import gauss_value_reference, hermite_2col, random_element


def laurent_field(p, precision=8):
    return FieldDescriptor("laurent", p, precision)


def valued(p, slot_name, precision=8):
    field = laurent_field(p, precision)
    A = make_algebra(p, field.one(), field.gen(slot_name), field)
    return ValuedAlgebra(A)


# --- gauss values ------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
def test_gauss_value_of_y(p):
    va = valued(p, "a")
    assert va.gauss_value(va.algebra.y()) == Value(Fraction(1, p), Fraction(0))
    vb = valued(p, "b")
    assert vb.gauss_value(vb.algebra.y()) == Value(Fraction(0), Fraction(1, p))


def test_gauss_value_of_x_and_zero():
    va = valued(3, "a")
    assert va.gauss_value(va.algebra.x()) == Value.of(0, 0)
    with pytest.raises(ZeroValue):
        va.gauss_value(va.algebra.zero())


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("slot", ["a", "b"])
def test_gauss_value_multiplicative(p, slot):
    va = valued(p, slot)
    A = va.algebra
    rng = random.Random(1000 + p)
    pairs = 0
    while pairs < 200:
        s = random_element(rng, A, density=0.3, max_degree=2)
        t = random_element(rng, A, density=0.3, max_degree=2)
        if s.is_zero() or t.is_zero():
            continue
        prod = A.mul(s, t)
        assert va.gauss_value(prod) == va.gauss_value(s) + va.gauss_value(t)
        pairs += 1


@pytest.mark.parametrize("p", [2, 3])
def test_gauss_value_ultrametric(p):
    va = valued(p, "a")
    A = va.algebra
    rng = random.Random(1100 + p)
    for _ in range(25):
        s = random_element(rng, A, density=0.3, max_degree=2)
        t = random_element(rng, A, density=0.3, max_degree=2)
        if s.is_zero() or t.is_zero() or (s + t).is_zero():
            continue
        v = va.gauss_value(s + t)
        m = min(va.gauss_value(s), va.gauss_value(t))
        assert v >= m
        if va.gauss_value(s) != va.gauss_value(t):
            assert v == m


@pytest.mark.parametrize("p", [2, 3, 5])
def test_value_of_pth_power(p):
    va = valued(p, "a")
    A = va.algebra
    rng = random.Random(1200 + p)
    for _ in range(8):
        t = random_element(rng, A, density=0.3, max_degree=2)
        if t.is_zero():
            continue
        assert va.gauss_value(A.power(t, p)) == va.gauss_value(t) * p


def _outcome(f, *args):
    """The value f returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gauss_value_matches_fraction_reference(p):
    """The integer-key minimum against the Fraction loop, on polynomial
    and Laurent polynomial coefficients, on series from inverses at
    precisions 4 and 8, and on coefficients that were once uncertified."""
    for precision in (4, 8):
        field = laurent_field(p, precision)
        one, a, b = field.one(), field.gen("a"), field.gen("b")
        # once 0 + O(a^w), with no stored term, and no_term + b with its
        # leading b^1 uncertified; exactly 0 and b now
        no_term = (one + a).inverse() - (one + a).inverse()
        samplers = (
            lambda r: random_poly_scalar(r, field, max_degree=2),
            lambda r: random_poly_scalar(r, field, max_degree=2) * a.inverse(),
            lambda r: random_poly_scalar(r, field, max_degree=2)
            * (one + random_poly_scalar(r, field, max_degree=2, nonzero=True) * a).inverse(),
        )
        for left, right in ((one, a), (one, b), (one + a, a)):
            va = ValuedAlgebra(make_algebra(p, left, right, field))
            A = va.algebra
            rng = random.Random(1300 + 10 * p + precision)
            cases = [A.zero(), A.from_entries({(0, 0): one, (1, 1): no_term}),
                     A.from_entries({(1, 0): a, (0, 1): no_term + b})]
            for sample in samplers:
                cases += [random_element(rng, A, density=0.4, sample=sample) for _ in range(6)]
            for _ in range(2):
                inv = _outcome(A.inverse, random_element(rng, A, density=0.3, max_degree=1))
                if isinstance(inv, AlgElement):
                    cases.append(inv)
            for t in cases:
                assert _outcome(va.gauss_value, t) == _outcome(gauss_value_reference, va, t)


def test_gauss_value_makes_no_valuation_call(monkeypatch):
    """25 stored coefficients at p = 5 are valued without fields.valuation,
    which used to run once per coefficient."""
    va = valued(5, "a")
    A = va.algebra
    rng = random.Random(1400)
    t = A.from_entries({
        (i, j): random_poly_scalar(rng, A.field, max_degree=2, nonzero=True)
        for i in range(5) for j in range(5)
    })
    assert len(t.support()) == 25
    calls = []

    def counted(c):
        calls.append(c)
        return valuation(c)

    # raising=False: the count holds whether or not valuations imports the name
    monkeypatch.setattr(valuations, "valuation", counted, raising=False)
    assert va.gauss_value(t) == gauss_value_reference(va, t)
    assert calls == []


# --- value groups -----------------------------------------------------------------

def test_value_groups_of_the_two_algebras():
    for p in (2, 3, 5):
        rep_a = valued(p, "a").value_group()
        assert rep_a.description == f"(1/{p})Z x Z"
        rep_b = valued(p, "b").value_group()
        assert rep_b.description == f"Z x (1/{p})Z"
        assert Value.of(1, 0) in rep_a.generators
        assert Value.of(0, 1) in rep_a.generators


def test_value_group_mixed_monomial_slot():
    field = laurent_field(2)
    A = make_algebra(2, field.one(), field.gen("a") * field.gen("b"), field)
    rep = ValuedAlgebra(A).value_group()
    assert rep.basis == (
        Value(Fraction(1, 2), Fraction(1, 2)),
        Value(Fraction(0), Fraction(1)),
    )
    assert rep.description == "lattice[(1/2, 1/2), (0, 1)]"


def test_value_group_rejects_non_monomial_slot():
    field = laurent_field(2)
    A = make_algebra(2, field.one(), field.one() + field.gen("a"), field)
    va_ok = False
    try:
        va = ValuedAlgebra(A)
        va_ok = True
    except UnsupportedSlot:
        pass
    if va_ok:
        with pytest.raises(UnsupportedSlot):
            va.value_group()


def test_valued_algebra_rejects_p_divisible_slot_value():
    field = laurent_field(2)
    A = make_algebra(2, field.one(), field.gen("a") ** 2, field)
    with pytest.raises(UnsupportedSlot):
        ValuedAlgebra(A)


def test_valued_algebra_requires_unit_left_slot():
    field = laurent_field(2)
    A = make_algebra(2, field.gen("a"), field.gen("b"), field)
    with pytest.raises(UnsupportedSlot, match="unit with nonzero residue"):
        ValuedAlgebra(A)
    # a zero left slot has no value at all
    A = make_algebra(2, field.zero(), field.gen("a"), field)
    with pytest.raises(UnsupportedSlot, match="unit with nonzero residue"):
        ValuedAlgebra(A)


def test_hermite_form():
    assert _value_lattice(2, 1, 0) == [(1, 0), (0, 2)]
    assert _value_lattice(2, 0, 1) == [(2, 0), (0, 1)]
    assert _value_lattice(2, 1, 1) == [(1, 1), (0, 2)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_value_lattice_matches_the_general_hermite_form(p):
    for u in range(-40, 41):
        for w in range(-40, 41):
            assert _value_lattice(p, u, w) == hermite_2col([(p, 0), (0, p), (u, w)]), (u, w)


# --- the family check ----------------------------------------------------------------

def test_counterexample_documented_samples():
    # u = 1 + x in [1, a) at p = 2: norm is 1, so (u y)^2 = a with value (1, 0)
    field = laurent_field(2, 6)
    A = make_algebra(2, field.one(), field.gen("a"), field)
    va = ValuedAlgebra(A)
    u = A.one() + A.x()
    t = A.mul(u, A.y())
    assert A.is_p_central(t) == field.gen("a")
    assert va.gauss_value(A.power(t, 2)) == Value.of(1, 0)
    # u = x in [1, b): norm is 1 again, (u y)^2 = b
    B = make_algebra(2, field.one(), field.gen("b"), field)
    vb = ValuedAlgebra(B)
    t2 = B.mul(B.x(), B.y())
    assert B.is_p_central(t2) == field.gen("b")
    assert vb.gauss_value(B.power(t2, 2)) == Value.of(0, 1)


def test_counterexample_y_cubed():
    field = laurent_field(3, 6)
    A = make_algebra(3, field.one(), field.gen("a"), field)
    assert ValuedAlgebra(A).gauss_value(A.power(A.y(), 3)) == Value.of(1, 0)
    B = make_algebra(3, field.one(), field.gen("b"), field)
    assert ValuedAlgebra(B).gauss_value(B.power(B.y(), 3)) == Value.of(0, 1)


@pytest.mark.parametrize("p", [2, 3])
def test_counterexample_check_report(p):
    rep = counterexample_check(p, precision=6, samples=10, seed=7)
    assert rep.ok
    assert rep.checks_passed == rep.total_checks == 20
    assert rep.lattices_always_distinct
    assert rep.value_group_a == f"(1/{p})Z x Z"
    assert rep.value_group_b == f"Z x (1/{p})Z"
    for record in rep.records:
        assert record.coordinate_residue == 1
        assert record.norm_identity_ok
    assert rep.background_facts  # unverified background is declared, not claimed


def test_counterexample_check_deterministic():
    rep1 = counterexample_check(2, precision=6, samples=5, seed=11)
    rep2 = counterexample_check(2, precision=6, samples=5, seed=11)
    assert rep1 == rep2
    rep3 = counterexample_check(2, precision=6, samples=5, seed=12)
    assert rep3 != rep1


def test_counterexample_check_validates_samples():
    with pytest.raises(ValueError):
        counterexample_check(2, 6, 0, 1)
