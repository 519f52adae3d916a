"""Expression grammar: scalars, elements, positions, round trips."""

import random

import pytest

from palgebra import (
    DivisionByZero,
    ExprSyntaxError,
    FieldDescriptor,
    make_algebra,
    parse_element,
    parse_scalar,
)
from palgebra.parsing import MAX_EXPONENT, MAX_NESTING

from support import random_element, random_rational_function

RAT5 = FieldDescriptor("rational", 5)
RAT2 = FieldDescriptor("rational", 2)


def test_parse_simple_polynomial():
    f = parse_scalar("a^2 + b", RAT5)
    assert f == RAT5.gen("a") ** 2 + RAT5.gen("b")


def test_parse_reduces_fractions():
    f = parse_scalar("(a+b)/(a*b)", RAT5)
    a, b = RAT5.gen("a"), RAT5.gen("b")
    assert f == (a + b) / (a * b)
    g = parse_scalar("(a*a - b*b)/(a - b)", FieldDescriptor("rational", 3))
    assert g.is_poly()


def test_parse_error_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_scalar("1/(a+", RAT5)
    assert exc.value.position == 5
    with pytest.raises(ExprSyntaxError) as exc:
        parse_scalar("a^", RAT5)
    assert exc.value.position == 2
    with pytest.raises(ExprSyntaxError) as exc:
        parse_scalar("a $ b", RAT5)
    assert exc.value.position == 2
    # INT and NAME are ASCII: a digit or letter of another script is no token
    for text, position in (("2²", 1), ("a^٣", 2), ("é", 0), ("aé", 1)):
        with pytest.raises(ExprSyntaxError, match="unexpected character") as exc:
            parse_scalar(text, RAT5)
        assert exc.value.position == position


def test_parse_rejects_negative_exponent_and_unknown_name():
    with pytest.raises(ExprSyntaxError):
        parse_scalar("a^-1", RAT5)
    with pytest.raises(ExprSyntaxError):
        parse_scalar("c + 1", RAT5)


def test_parse_literal_zero_denominator():
    with pytest.raises(DivisionByZero):
        parse_scalar("1/(a - a)", RAT5)


def test_nesting_limit():
    a = RAT5.gen("a")
    n = MAX_NESTING
    assert parse_scalar("(" * n + "a" + ")" * n, RAT5) == a
    assert parse_scalar("-" * n + "a", RAT5) == a  # n is even
    assert parse_scalar("(-" * (n // 2) + "a" + ")" * (n // 2), RAT5) == a
    # siblings do not add up: only the open levels count
    assert parse_scalar("+".join(["(-(a))"] * 3 * n), RAT5) == 3 * n * (-a)
    too_deep = [
        "(" * (n + 1) + "a" + ")" * (n + 1),
        "-" * (n + 1) + "a",
        "(-" * (n // 2) + "-a" + ")" * (n // 2),
        "(" * 3000 + "a" + ")" * 3000,
        "-" * 3000 + "a",
    ]
    for text in too_deep:
        with pytest.raises(ExprSyntaxError) as exc:
            parse_scalar(text, RAT5)
        assert exc.value.position == n
    A = make_algebra(2, RAT2.gen("a"), RAT2.gen("b"), RAT2)
    with pytest.raises(ExprSyntaxError):
        parse_element("(" * 3000 + "x" + ")" * 3000, A)



def test_tokenizing_stops_where_the_parser_rejects():
    # the illegal character lies past the nesting limit, so only a parser
    # that read the whole input first would report it
    text = "(" * 3000 + "a" + ")" * 3000 + "$"
    with pytest.raises(ExprSyntaxError, match="nested deeper") as exc:
        parse_scalar(text, RAT5)
    assert exc.value.position == MAX_NESTING
    with pytest.raises(ExprSyntaxError, match="unexpected character") as exc:
        parse_scalar("(" * MAX_NESTING + "$", RAT5)
    assert exc.value.position == MAX_NESTING

def test_exponent_limit():
    a = RAT5.gen("a")
    n = MAX_EXPONENT
    assert parse_scalar(f"a^{n}", RAT5) == a ** n
    # a chain of exponents is bounded by the degree of its power
    assert parse_scalar(f"a^{n // 2}^2", RAT5) == a ** (n // 2 * 2)
    for text in (f"a^{n + 1}", "(1+a+b)^2186", f"a^2^{n + 1}", "b^" + "9" * 400, f"a^{n}^2"):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_scalar(text, RAT5)
        assert exc.value.position == text.rindex("^") + 1
    A = make_algebra(2, RAT2.gen("a"), RAT2.gen("b"), RAT2)
    assert parse_element(f"y^{n}", A) == A.scalar(RAT2.gen("b") ** (n // 2))
    with pytest.raises(ExprSyntaxError):
        parse_element(f"(x+y)^{n + 1}", A)


def test_power_of_a_power_is_bounded_by_its_degree():
    # ((1+a+b)^20)^10 is (1+a+b)^200, over 8 s at p = 10007 with each
    # exponent bounded on its own; a let-bound base is bounded the same way
    q = parse_scalar("(1+a+b)^20", RAT5)
    for text, env in (("((1+a+b)^20)^10", None), ("q^10", {"q": q})):
        with pytest.raises(ExprSyntaxError, match="power of degree 200 is larger than") as exc:
            parse_scalar(text, RAT5, env)
        assert exc.value.position == text.rindex("^") + 1
    n = MAX_EXPONENT
    assert parse_scalar(f"(1+a+b)^{n}", RAT5) == (1 + RAT5.gen("a") + RAT5.gen("b")) ** n
    # denominators and negative Laurent exponents count by their size
    lau = FieldDescriptor("laurent", 5, 4)
    for text, field in ((f"(1/(1+a))^{n}^2", RAT5), (f"(1/a)^{n}^2", lau)):
        with pytest.raises(ExprSyntaxError, match=f"power of degree {2 * n} is larger than"):
            parse_scalar(text, field)
    # an element's degree is the largest over its coefficients; x and y
    # have coefficient 1, of degree 0
    A = make_algebra(2, RAT2.gen("a"), RAT2.gen("b"), RAT2)
    s = A.x() + A.y()
    assert parse_element(f"(x+y)^{n}", A) == A.power(s, n)
    with pytest.raises(ExprSyntaxError, match="power of degree 200 is larger than"):
        parse_element("(x + (1+a+b)^20*y)^10", A)


def test_product_is_bounded_by_the_degrees_of_its_operands():
    # q*q*...*q with ten factors is (1+a+b)^200, the work q^10 is refused
    # for; a quotient's operands are bounded the same way
    q = parse_scalar("(1+a+b)^20", RAT5)
    text = "q*q*q*q*q*q"
    with pytest.raises(ExprSyntaxError, match="product of degree 120 is larger than") as exc:
        parse_scalar(text, RAT5, {"q": q})
    assert exc.value.position == text.rindex("*")
    with pytest.raises(ExprSyntaxError, match="product of degree 110 is larger than"):
        parse_scalar("(1+a)^60/(1+b)^50", RAT5)
    n = MAX_EXPONENT // 2
    s = 1 + RAT5.gen("a") + RAT5.gen("b")
    assert parse_scalar(f"(1+a+b)^{n}*(1+a+b)^{n}", RAT5) == s ** (2 * n)
    A = make_algebra(2, RAT2.gen("a"), RAT2.gen("b"), RAT2)
    with pytest.raises(ExprSyntaxError, match="product of degree 110 is larger than"):
        parse_element("(1+a)^60*x*(1+b)^50", A)


def test_unary_minus_and_integers():
    f = parse_scalar("-a + 7", RAT5)
    assert f == RAT5.from_int(2) - RAT5.gen("a")


def test_whitespace_insignificant():
    assert parse_scalar(" a *b+ 1 ", RAT5) == parse_scalar("a*b+1", RAT5)


def test_scalar_round_trip_canonical():
    rng = random.Random(11)
    for _ in range(40):
        f = random_rational_function(rng, RAT5)
        assert parse_scalar(str(f), RAT5) == f
        assert str(parse_scalar(str(f), RAT5)) == str(f)


def test_element_parse_preserves_factor_order():
    A = make_algebra(2, RAT2.gen("a"), RAT2.gen("b"), RAT2)
    yx = parse_element("y*x", A)
    assert yx == A.mul(A.y(), A.x())
    assert str(yx) == "y + x*y"


def test_element_parse_with_bindings():
    A = make_algebra(2, RAT2.gen("a"), RAT2.gen("b"), RAT2)
    env = {"l": RAT2.gen("a")}
    z = parse_element("x + l*y + x*y", A, env)
    lam = A.scalar(RAT2.gen("a"))
    assert z == A.x() + A.mul(lam, A.y()) + A.mul(A.x(), A.y())


def test_element_syntax_error():
    A = make_algebra(2, RAT2.gen("a"), RAT2.gen("b"), RAT2)
    with pytest.raises(ExprSyntaxError):
        parse_element("x^", A)


def test_element_division_uses_inverse():
    A = make_algebra(2, RAT2.gen("a"), RAT2.gen("b"), RAT2)
    t = parse_element("1/y", A)
    assert A.mul(t, A.y()) == A.one()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_element_round_trip_random(p):
    field = FieldDescriptor("rational", p)
    A = make_algebra(p, field.gen("a"), field.gen("b"), field)
    rng = random.Random(600 + p)
    for _ in range(25):
        t = random_element(rng, A)
        s = str(t)
        assert parse_element(s, A) == t
        assert str(parse_element(s, A)) == s
