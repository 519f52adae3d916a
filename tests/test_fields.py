"""Scalar arithmetic: rational functions, bi-Laurent series, values."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from palgebra import (
    DivisionByZero,
    FieldDescriptor,
    InvalidPrime,
    LaurentScalar,
    PrecisionExhausted,
    RatFunc,
    Value,
    ZeroValue,
    frobenius,
    parse_scalar,
    valuation,
)
from palgebra.fields import INF, MAX_PRIME, certified_equal
from palgebra.sampling import random_poly_scalar

from support import laurent_expansion, random_rational_function

RAT2 = FieldDescriptor("rational", 2)
RAT3 = FieldDescriptor("rational", 3)
RAT5 = FieldDescriptor("rational", 5)
LAU = {p: FieldDescriptor("laurent", p, 8) for p in (2, 3, 5)}


# --- rational functions ---------------------------------------------------

def test_char2_cancellation():
    a, b = RAT2.gen("a"), RAT2.gen("b")
    assert (a / b + a / b).is_zero()


def test_gcd_normalization_forces_reduced_form():
    a, b = RAT3.gen("a"), RAT3.gen("b")
    f = (a * a - b * b) / (a - b)
    assert f == a + b


def test_zero_has_denominator_one():
    a = RAT5.gen("a")
    z = a - a
    assert z.is_zero() and z.den == {(0, 0): 1}


def test_division_by_zero():
    a = RAT2.gen("a")
    with pytest.raises(DivisionByZero):
        a / RAT2.zero()


def test_frobenius_freshman_dream():
    a, b = RAT2.gen("a"), RAT2.gen("b")
    assert frobenius(a + b) == a ** 2 + b ** 2
    assert frobenius(RAT2.zero()).is_zero()
    a3, b3 = RAT3.gen("a"), RAT3.gen("b")
    assert frobenius(a3 / b3) == a3 ** 3 / b3 ** 3


def test_ratfunc_canonical_denominator_is_monic():
    a, b = RAT5.gen("a"), RAT5.gen("b")
    f = (a + 1) / (3 * b)
    lc = f.den[max(f.den, key=lambda m: (m[0] + m[1], m[0]))]
    assert lc == 1


def test_ratfunc_unique_representation():
    a, b = RAT3.gen("a"), RAT3.gen("b")
    lhs = (a * b + a) / (b * b + b)
    rhs = a / b
    assert lhs == rhs and str(lhs) == str(rhs)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_field_axioms_random(p):
    # a thousand triples per prime; a slice of them with genuine denominators
    field = FieldDescriptor("rational", p)
    rng = random.Random(50 + p)
    one = field.one()
    for i in range(1000):
        if i % 10 == 0:
            x = random_rational_function(rng, field)
        else:
            x = random_poly_scalar(rng, field)
        y = random_poly_scalar(rng, field)
        z = random_poly_scalar(rng, field)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        assert x + (-x) == field.zero()
        if not x.is_zero():
            assert x / x == one


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_is_ring_homomorphism(p):
    field = FieldDescriptor("rational", p)
    rng = random.Random(80 + p)
    for _ in range(30):
        x = random_rational_function(rng, field)
        y = random_poly_scalar(rng, field)
        assert frobenius(x + y) == frobenius(x) + frobenius(y)
        assert frobenius(x * y) == frobenius(x) * frobenius(y)


# --- Laurent scalars --------------------------------------------------------

def test_coefficient_is_int_inside_window():
    field = FieldDescriptor("laurent", 5, 4)
    a, b = field.gen("a"), field.gen("b")
    inv = (field.one() - a - b).inverse()  # coefficient (i, j) is C(i+j, i) mod 5
    assert inv.ha == 4 and inv.hb == 4
    assert inv.coefficient(3, 1) == 4 and type(inv.coefficient(3, 1)) is int
    assert inv.coefficient(2, 3) == 0 and type(inv.coefficient(2, 3)) is int
    with pytest.raises(PrecisionExhausted):
        inv.coefficient(4, 0)
    with pytest.raises(PrecisionExhausted):
        inv.coefficient(0, 4)
    exact = 2 * a - b
    assert exact.coefficient(1, 0) == 2 and exact.coefficient(0, 1) == 4
    assert exact.coefficient(100, 100) == 0


def test_geometric_series_with_window():
    field = FieldDescriptor("laurent", 2, 4)
    b = field.gen("b")
    inv = (field.one() - b).inverse()
    assert inv.terms == {(0, 0): 1, (0, 1): 1, (0, 2): 1, (0, 3): 1}
    assert inv.hb == 4 and inv.ha == INF
    assert not inv.exact


def test_monomial_inverse_is_exact():
    field = LAU[3]
    a = field.gen("a")
    inv = (2 * (a * a)).inverse()
    assert inv.exact and inv.terms == {(-2, 0): 2}  # 1/2 = 2 in F_3
    assert (2 * (a * a)) * inv == field.one()


def test_inverse_of_one_up_to_the_window():
    # 1 + O(a^5): the correction w = 0 + O(a^5) stores no terms, so the
    # inverse is the leading monomial's inverse certified to w's window
    field = FieldDescriptor("laurent", 3, 5)
    a, one = field.gen("a"), field.one()
    x = (one + a) / (one + a)
    assert x.terms == {(0, 0): 1} and (x.ha, x.hb) == (5, INF)
    inv = x.inverse()
    assert inv.terms == {(0, 0): 1} and (inv.ha, inv.hb) == (5, INF)
    assert certified_equal(x * inv, one)
    assert certified_equal((x * a).inverse() * a, one)


def test_inverse_of_a_plus_b_drags_a_exponents():
    field = FieldDescriptor("laurent", 5, 6)
    a, b = field.gen("a"), field.gen("b")
    inv = (a + b).inverse()
    # 1/(a+b) = a^-1 - a^-2 b + a^-3 b^2 - ...
    for k in range(4):
        assert inv.terms[(-k - 1, k)] == (1 if k % 2 == 0 else 4)
    prod = (a + b) * inv
    assert prod.terms == {(0, 0): 1}
    assert valuation(prod) == Value.of(0, 0)


def test_laurent_matches_rational_on_polynomials():
    rng = random.Random(7)
    rat = FieldDescriptor("rational", 3)
    lau = LAU[3]
    for _ in range(40):
        f1 = random_poly_scalar(rng, rat)
        f2 = random_poly_scalar(rng, rat)
        l1 = LaurentScalar(3, lau.precision, f1.num)
        l2 = LaurentScalar(3, lau.precision, f2.num)
        assert (l1 + l2).terms == (f1 + f2).num
        assert (l1 * l2).terms == (f1 * f2).num
        assert frobenius(l1).terms == frobenius(f1).num


def test_frobenius_scales_the_window():
    field = FieldDescriptor("laurent", 2, 4)
    inv = (field.one() - field.gen("b")).inverse()
    frob = frobenius(inv)
    # (1/(1-b))^2 = 1/(1-b^2) = 1 + b^2 + b^4 + b^6 below the scaled window
    assert frob.terms == {(0, 0): 1, (0, 2): 1, (0, 4): 1, (0, 6): 1}
    assert frob.hb == 8 and frob.ha == INF


def test_window_shrinks_through_products():
    field = FieldDescriptor("laurent", 3, 5)
    b = field.gen("b")
    inv = (field.one() - b).inverse()  # window b^5
    shifted = inv * b  # certified only below b^6 now
    assert shifted.hb == 6
    assert shifted.terms == {(0, j): 1 for j in range(1, 6)}
    # multiplying by an exact zero collapses to the exact zero
    assert (inv * field.zero())._surely_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_laurent_expression_matches_exact_value_inside_window(p):
    # the exact value over F_p(a, b), expanded by support.laurent_expansion,
    # is the oracle for window soundness: the Laurent value of the same text
    # must agree with it on every term the window certifies
    rat = FieldDescriptor("rational", p)
    for window in (3, 6, 8):
        lau = FieldDescriptor("laurent", p, window)
        rng = random.Random(100 * p + window)
        done = 0
        while done < 120:
            f, g, h = (random_poly_scalar(rng, rat, max_degree=2) for _ in range(3))
            if g.is_zero():
                continue
            text = f"({f})/({g}) + {h}"
            exact = parse_scalar(text, rat)
            approx = parse_scalar(text, lau)
            ta, tb = min(approx.ha, 40), min(approx.hb, 40)
            want = {} if exact.is_zero() else laurent_expansion(exact, ta, tb)
            have = {m: c for m, c in approx.terms.items() if m[0] < ta and m[1] < tb}
            assert have == want, (window, text)
            # the window certifies a nonempty box of terms
            assert approx.ha > approx.la and approx.hb > approx.lb
            done += 1


@pytest.mark.parametrize("p, window, text, ha, hb", [
    (2, 8, "1/(1+a+b/a)", 8, 8),
    (5, 8, "1/(1+a+b/a)", 8, 8),
    (5, 6, "b/(a^2+a^3+b)", 4, 7),
])
def test_series_inverse_through_a_term_of_negative_a_exponent(p, window, text, ha, hb):
    # w = b/a lowers the a-exponent of a product, so a power of w can carry
    # terms back into the window after a power that stores none there.  The
    # inverse once stopped at that power and certified wrong terms.
    rat = FieldDescriptor("rational", p)
    approx = parse_scalar(text, FieldDescriptor("laurent", p, window))
    assert (approx.ha, approx.hb) == (ha, hb)
    assert approx.terms == laurent_expansion(parse_scalar(text, rat), ha, hb)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("text", [
    "1/(1+b) - 1", "b/(1+b)", "1/(1+b) - 1 + b^2", "(1+b)^2/(1+b^3) - 1",
])
def test_inverse_reads_the_leading_term_as_valuation_does(p, text):
    # these scalars store every a-term of their b-levels (ha infinite); all
    # but b/(1+b) have lb below the lowest stored level, where valuation
    # certified the leading term and inverse once raised on it
    rat = FieldDescriptor("rational", p)
    approx = parse_scalar(text, LAU[p])
    assert approx.ha == INF
    inv = approx.inverse()
    assert valuation(inv) == Value.of(0, 0) - valuation(approx)
    assert inv.terms == laurent_expansion(1 / parse_scalar(text, rat), 40, inv.hb)


def test_adding_an_exact_zero_keeps_the_lower_bounds():
    # an exact zero bounds nothing; a sum with one once lowered la and lb to
    # 0, and products whose term pairs cancel exactly then lost their bounds
    field = FieldDescriptor("laurent", 3, 8)
    x = parse_scalar("a^2*b^2/(1+a)", field)
    assert (x.la, x.lb) == (2, 2)
    for s in (x + field.zero(), field.zero() + x):
        assert s == x and (s.la, s.lb) == (2, 2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_inverse_bounds_its_correction_by_the_stored_terms(p):
    # c = a^3*b + a^5*b + a^7*b + O(a^8) stores a loose la = 0, so the
    # correction w = c/(a^3 b) - 1 tracks la = -3; with hb infinite its
    # unstored terms have ea >= 5, so its support starts at a^2.  The inverse
    # once took la = -inf from w, and c * (1/c) then certified no term.
    c = LaurentScalar(p, 8, {(3, 1): 1, (5, 1): 1, (7, 1): 1}, ha=8, lb=1)
    assert c.la == 0
    inv = c.inverse()
    assert inv.la > -INF
    prod = c * inv
    assert prod.coefficient(0, 0) == 1
    # a^3*b/(1 - a^2) is a value with exactly c's certified terms
    exact = parse_scalar("a^3*b/(1-a^2)", FieldDescriptor("rational", p))
    assert c.terms == laurent_expansion(exact, 8, 40)
    assert inv.terms == laurent_expansion(1 / exact, inv.ha, 40)
    assert prod.terms == {(0, 0): 1}


def test_laurent_zero_division_and_precision_errors():
    field = LAU[2]
    one = field.one()
    with pytest.raises(DivisionByZero):
        one / field.zero()
    foggy = LaurentScalar(2, 8, {}, ha=4, hb=4)  # empty but uncertified
    with pytest.raises(PrecisionExhausted):
        foggy.is_zero()
    with pytest.raises(PrecisionExhausted):
        valuation(foggy)


@pytest.mark.parametrize("scalar", [
    LaurentScalar(3, 8, {}, ha=4, hb=4),  # no stored term
    LaurentScalar(3, 8, {(0, 1): 1}, ha=4, hb=8, la=0, lb=0),  # b^1 leads only if lb = 1
])
def test_valuation_and_inverse_share_one_leading_term_check(scalar):
    # one check decides the leading term for both, with one message each case
    with pytest.raises(PrecisionExhausted) as by_valuation:
        valuation(scalar)
    with pytest.raises(PrecisionExhausted) as by_inverse:
        scalar.inverse()
    assert str(by_valuation.value) == str(by_inverse.value)


# --- scalar valuation ---------------------------------------------------------

def test_valuation_monomials():
    field = LAU[5]
    assert valuation(field.gen("a")) == Value.of(1, 0)
    assert valuation(field.gen("b")) == Value.of(0, 1)


def test_valuation_b_dominates():
    field = LAU[3]
    a, b = field.gen("a"), field.gen("b")
    c = a ** 3 / b + a ** 5
    assert valuation(c) == Value.of(3, -1)


def test_valuation_of_zero():
    with pytest.raises(ZeroValue):
        valuation(LAU[2].zero())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_valuation_multiplicative_and_ultrametric(p):
    field = LAU[p]
    rng = random.Random(90 + p)
    for _ in range(40):
        x = random_poly_scalar(rng, field, nonzero=True)
        y = random_poly_scalar(rng, field, nonzero=True)
        assert valuation(x * y) == valuation(x) + valuation(y)
        s = x + y
        if not s.is_zero():
            assert valuation(s) >= min(valuation(x), valuation(y))
        if valuation(x) != valuation(y):
            assert valuation(x + y) == min(valuation(x), valuation(y))


# --- values ----------------------------------------------------------------

def test_value_order_is_lexicographic_b_first():
    assert Value.of(3, -1) < Value.of(0, 0) < Value.of(-5, 1)
    assert Value.of(1, 2) < Value.of(2, 2)


@given(
    st.integers(-6, 6), st.integers(-6, 6),
    st.integers(-6, 6), st.integers(-6, 6),
)
def test_value_order_is_total_and_additive(a1, b1, a2, b2):
    v, w = Value.of(a1, b1), Value.of(a2, b2)
    assert (v < w) + (w < v) + (v == w) == 1
    assert (v + w) - w == v
    assert (v < w) == (v + Value.of(1, 1) < w + Value.of(1, 1))


def test_value_arithmetic():
    v = Value.of(1, 0).divided_by(2)
    assert v == Value(Fraction(1, 2), Fraction(0))
    assert v * 2 == Value.of(1, 0)
    assert v + v == Value.of(1, 0)


# --- field descriptors -------------------------------------------------------

def test_descriptor_validation():
    with pytest.raises(InvalidPrime):
        FieldDescriptor("rational", 4)
    with pytest.raises(ValueError):
        FieldDescriptor("rational", 3, precision=5)
    with pytest.raises(ValueError):
        FieldDescriptor("laurent", 3)
    desc = FieldDescriptor("laurent", 3, 6)
    assert desc.owns(desc.one()) and not desc.owns(RAT3.one())
    # a Laurent field owns only scalars of its own window
    assert not desc.owns(FieldDescriptor("laurent", 3, 8).one())
    assert not desc.owns(FieldDescriptor("laurent", 5, 6).one())


def test_descriptor_caps_the_prime():
    assert FieldDescriptor("rational", 65521).prime == 65521  # the largest prime below 2^16
    for p in (MAX_PRIME + 1, 10**18 + 3):  # 65537 is prime
        with pytest.raises(InvalidPrime, match="exceeds the largest supported prime"):
            FieldDescriptor("laurent", p, 4)


def test_fraction_gives_term_maps_or_none_for_a_series():
    # the one way exact scalars reach the product engine: numerator and
    # denominator term maps, the denominator None when there is none
    a, b = RAT5.gen("a"), RAT5.gen("b")
    assert (a * b + 2)._fraction() == ({(1, 1): 1, (0, 0): 2}, None)
    assert ((a + 1) / (3 * b))._fraction() == ({(1, 0): 2, (0, 0): 2}, {(0, 1): 1})
    lau = LAU[5]
    exact = parse_scalar("(a^2 + 3*b)/(a*b^2)", lau)
    assert exact._fraction() == ({(1, -2): 1, (-1, -1): 3}, None)
    series = lau.one() / (lau.one() + lau.gen("a") + lau.gen("b"))
    assert not series.exact and series._fraction() is None


@given(st.integers(min_value=-20, max_value=20))
def test_from_int_reduces_mod_p(n):
    assert RAT5.from_int(n) == RAT5.from_int(n % 5)
