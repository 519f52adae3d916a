"""Scalar arithmetic: rational functions, bi-Laurent series, values."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from palgebra import (
    DivisionByZero,
    FieldDescriptor,
    InvalidPrime,
    LaurentScalar,
    RatFunc,
    Value,
    ZeroValue,
    frobenius,
    parse_scalar,
    valuation,
)
from palgebra import polys
from palgebra.fields import INF, MAX_PRECISION, MAX_PRIME, _expansion
from palgebra.sampling import random_poly_scalar

from support import fractions_of, laurent_coefficient, laurent_expansion, random_rational_function

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
    assert laurent_coefficient(inv, 3, 1) == 4 and type(laurent_coefficient(inv, 3, 1)) is int
    assert laurent_coefficient(inv, 2, 3) == 0 and type(laurent_coefficient(inv, 2, 3)) is int
    # the value is exact, so terms outside the printed box are known too
    assert inv._box() == (4, 4)
    assert laurent_coefficient(inv, 4, 0) == 1 and laurent_coefficient(inv, 6, 2) == 3
    exact = 2 * a - b
    assert laurent_coefficient(exact, 1, 0) == 2 and laurent_coefficient(exact, 0, 1) == 4
    assert laurent_coefficient(exact, 100, 100) == 0


def test_geometric_series_with_window():
    field = FieldDescriptor("laurent", 2, 4)
    b = field.gen("b")
    inv = (field.one() - b).inverse()
    assert fractions_of(inv) == ({(0, 0): 1}, {(0, 0): 1, (0, 1): 1})
    assert inv.terms is None and inv._box() == (INF, 4)
    assert str(inv) == "1 + b + b^2 + b^3 + O(b^4)"


def test_monomial_inverse_is_exact():
    field = LAU[3]
    a = field.gen("a")
    inv = (2 * (a * a)).inverse()
    assert inv.terms == {(-2, 0): 2}  # 1/2 = 2 in F_3
    assert (2 * (a * a)) * inv == field.one()


def test_inverse_of_one_up_to_the_window():
    # (1 + a)/(1 + a) was 1 + O(a^5), and its inverse known only to that
    # window; it is exactly 1
    field = FieldDescriptor("laurent", 3, 5)
    a, one = field.gen("a"), field.one()
    x = (one + a) / (one + a)
    assert x == one and x.inverse() == one and str(x) == "1"
    assert (x * a).inverse() * a == one


def test_inverse_of_a_plus_b_drags_a_exponents():
    field = FieldDescriptor("laurent", 5, 6)
    a, b = field.gen("a"), field.gen("b")
    inv = (a + b).inverse()
    # 1/(a+b) = a^-1 - a^-2 b + a^-3 b^2 - ...
    for k in range(4):
        assert laurent_coefficient(inv, -k - 1, k) == (1 if k % 2 == 0 else 4)
    assert str(inv).endswith(" + O(b^6)")
    prod = (a + b) * inv
    assert prod == field.one()
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
    b = field.gen("b")
    inv = (field.one() - b).inverse()
    frob = frobenius(inv)
    # (1/(1-b))^2 = 1/(1-b^2) exactly, so every term below the scaled
    # window b^8 is known; the printer shows the box of that fraction
    assert frob == (field.one() - b * b).inverse()
    assert [laurent_coefficient(frob, 0, j) for j in range(8)] == [1, 0, 1, 0, 1, 0, 1, 0]
    assert str(frob) == "1 + b^2 + O(b^4)"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_laurent_expression_matches_exact_value_inside_window(p):
    # the Laurent value of a text is the value over F_p(a, b), the same
    # num/den, at every precision
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
            assert fractions_of(parse_scalar(text, lau)) == fractions_of(parse_scalar(text, rat))
            done += 1


@pytest.mark.parametrize("p, window, text, ha, hb", [
    (2, 8, "1/(1+a+b/a)", 8, 8),
    (5, 8, "1/(1+a+b/a)", 8, 8),
    (5, 6, "b/(a^2+a^3+b)", 4, 7),
])
def test_series_inverse_through_a_term_of_negative_a_exponent(p, window, text, ha, hb):
    # w = b/a lowers the a-exponent of a product, so a power of w can carry
    # terms back into the window after a power that stores none there.  The
    # series inverse once stopped at that power and certified wrong terms.
    # The printed box is the one that inverse had; its terms are the
    # expansion of the value over F_p(a, b).
    rat = FieldDescriptor("rational", p)
    approx = parse_scalar(text, FieldDescriptor("laurent", p, window))
    assert approx._box() == (ha, hb)
    printed = _expansion(approx.num, approx.den, p, ha, hb)
    assert printed == laurent_expansion(parse_scalar(text, rat), ha, hb)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("text", [
    "1/(1+b) - 1", "b/(1+b)", "1/(1+b) - 1 + b^2", "(1+b)^2/(1+b^3) - 1",
])
def test_inverse_reads_the_leading_term_as_valuation_does(p, text):
    # these scalars have every a-term of their b-levels in print (ha
    # infinite); their leading term once went uncertified by inverse where
    # valuation certified it
    rat = FieldDescriptor("rational", p)
    approx = parse_scalar(text, LAU[p])
    assert approx._box()[0] == INF
    inv = approx.inverse()
    assert valuation(inv) == Value.of(0, 0) - valuation(approx)
    assert fractions_of(inv) == fractions_of(1 / parse_scalar(text, rat))


def test_laurent_zero_division_and_precision_errors():
    field = LAU[2]
    with pytest.raises(DivisionByZero):
        field.one() / field.zero()
    with pytest.raises(DivisionByZero):
        field.zero().inverse()
    with pytest.raises(ValueError, match="precision must be positive"):
        FieldDescriptor("laurent", 2, 0)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("seed", range(4))
def test_printed_terms_times_the_denominator_give_the_numerator(p, seed):
    # an oracle apart from the printer's expansion: the printed terms q of
    # N/D, read back from the text, satisfy q * D = N on every monomial that
    # the printed box determines: ea < ha + (the least a-exponent of D) and
    # eb < hb + (the least b-exponent of D), shifted into the box of N
    rat = FieldDescriptor("rational", p)
    rng = random.Random(f"print {p} {seed}")
    checked = matched = 0
    while checked < 25:
        window = rng.randint(1, 9)
        lau = FieldDescriptor("laurent", p, window)
        num = random_poly_scalar(rng, rat, max_degree=3, max_terms=3, nonzero=True)
        den = random_poly_scalar(rng, rat, max_degree=2, max_terms=3, nonzero=True)
        c = lau.from_terms(num.num) / lau.from_terms(den.num)
        if c.terms is not None:
            continue
        ha, hb = c._box()
        q = _read_printed(str(c), p)
        d_la = min(ea for ea, _ in c.den)
        d_lb = min(eb for _, eb in c.den)
        prod = polys.p_mul(q, c.den, p)
        for (ea, eb) in set(prod) | set(c.num):
            if ea < ha + d_la and eb < hb + d_lb:
                assert prod.get((ea, eb), 0) == c.num.get((ea, eb), 0), (str(c), ea, eb)
                matched += (ea, eb) in c.num
        checked += 1
    # the region holds terms of N, 28 to 43 per seed, not only zeros
    assert matched >= 25


def _read_printed(text, p):
    """The Laurent terms of a printed series "body + O(...)", its body a
    sum of c*a^i*b^j, in parentheses over a monomial when it has one."""
    body = text.rsplit(" + O(", 1)[0]
    shift = (0, 0)
    match = re.fullmatch(r"\(?(.*?)\)?/\(?([^()]*)\)?", body)
    if match:
        body, den = match.groups()
        shift = _read_monomial(den)[0]
    terms = {}
    for part in body.split(" + "):
        (ea, eb), c = _read_monomial(part)
        terms[(ea - shift[0], eb - shift[1])] = c % p
    return terms


def _read_monomial(text):
    """((ea, eb), c) of a printed monomial such as 2*a^3*b or a or 4."""
    ea = eb = 0
    c = 1
    for factor in text.split("*"):
        name, _, exp = factor.partition("^")
        if name == "a":
            ea = int(exp or 1)
        elif name == "b":
            eb = int(exp or 1)
        else:
            c = int(name)
    return (ea, eb), c


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
    v = Value(Fraction(1, 2), Fraction(0))
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
    # a Laurent field owns only scalars of its own precision
    assert not desc.owns(FieldDescriptor("laurent", 3, 8).one())
    assert not desc.owns(FieldDescriptor("laurent", 5, 6).one())


def test_descriptor_caps_the_prime():
    assert FieldDescriptor("rational", 65521).prime == 65521  # the largest prime below 2^16
    for p in (MAX_PRIME + 1, 10**18 + 3):  # 65537 is prime
        with pytest.raises(InvalidPrime, match="exceeds the largest supported prime"):
            FieldDescriptor("laurent", p, 4)


def test_descriptor_caps_the_precision():
    # a printed series has about precision^2 / 2 terms
    assert FieldDescriptor("laurent", 3, MAX_PRECISION).precision == MAX_PRECISION
    with pytest.raises(ValueError, match="exceeds the largest supported precision"):
        FieldDescriptor("laurent", 3, MAX_PRECISION + 1)


@given(st.integers(min_value=-20, max_value=20))
def test_from_int_reduces_mod_p(n):
    assert RAT5.from_int(n) == RAT5.from_int(n % 5)
