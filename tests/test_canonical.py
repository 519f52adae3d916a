"""The invariant every relation check rests on: each scalar the library
builds is in canonical form, so equal values have equal representations.

Relations are decided by comparing canonical forms (scalars with ==,
elements by their entries maps), so every result below must equal its form
reduced again from scratch (with _canonical=False), over both fields."""

import random

import pytest

from palgebra import FieldDescriptor, LaurentScalar, NotInvertible, make_algebra
from palgebra import polys
from palgebra.algebra import PACKED_MIN_SIZE, _over_common_denominator, _size
from palgebra.sampling import random_poly_scalar

from support import random_nonzero_element, random_rational_function

PRIMES = (2, 3, 5)
KINDS = ("rational", "laurent")


def field_of(kind, p):
    return FieldDescriptor(kind, p, 8 if kind == "laurent" else None)


def assert_canonical(c):
    """Every coefficient in 1..p-1, and the maps are the ones reduction
    builds from them: coprime, the denominator monic, 1 for zero."""
    assert polys.p_reduce(c.num, c.p) == c.num and polys.p_reduce(c.den, c.p) == c.den
    again = c._like(dict(c.num), dict(c.den), canonical=False)
    assert type(again) is type(c) and (again.num, again.den) == (c.num, c.den), c


def assert_element_canonical(t):
    for c in t.entries.values():
        assert not c.is_zero()
        assert_canonical(c)


def scalars(rng, field, n=6):
    """Polynomials and fractions with nontrivial denominators."""
    out = []
    for _ in range(n):
        out.append(random_poly_scalar(rng, field, nonzero=True))
        out.append(random_rational_function(rng, field))
    return out


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", PRIMES)
def test_scalar_arithmetic_results_are_canonical(kind, p):
    field = field_of(kind, p)
    rng = random.Random(f"canonical scalars {kind} {p}")
    values = scalars(rng, field)
    for s in values:
        for t in values:
            for r in (s + t, s - t, s * t, s / t, s - s, s * 0, s + 1, 2 - s):
                assert_canonical(r)
        # over one denominator the sum den / den must still cancel to 1
        assert_canonical(s + (1 - s))
        assert s + (1 - s) == field.one()
        for r in (s.inverse(), s ** 3, s ** -2, s ** 0, s.frobenius(), -s):
            assert_canonical(r)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", (3, 5))
def test_values_equal_only_values_of_their_kind(kind, p):
    # an int is never equal to a scalar or an element: 2 and 2 + p would
    # both equal from_int(2), and no hash agrees with that.  Equal values
    # built in different ways are one set member
    field = field_of(kind, p)
    a, b = field.gen("a"), field.gen("b")
    A = make_algebra(p, field.one(), b, field)
    assert field.from_int(2) != 2 + p and field.from_int(2) != 2
    assert field.one() != 1 and A.one() != 1 and A.scalar(2) != 2
    assert len({field.one(), a / a, field.from_int(p + 1), (1 + a) / (1 + a)}) == 1
    assert len({A.power(A.y(), p), A.scalar(b), A.y() ** p, A.scale(b, A.one())}) == 1


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", PRIMES)
def test_constructed_scalars_are_canonical(kind, p):
    field = field_of(kind, p)
    rng = random.Random(f"canonical terms {kind} {p}")
    for _ in range(20):
        num = random_poly_scalar(rng, field, nonzero=True).num
        den = random_poly_scalar(rng, field, max_degree=1, nonzero=True).num
        common = random_poly_scalar(rng, field, max_degree=1, nonzero=True).num
        assert_canonical(field.from_terms(dict(num)))
        assert_canonical(field.from_terms(dict(num), dict(den)))
        # a common factor and a leading coefficient other than 1 cancel
        common = polys.p_scale(common, p - 1, p)
        c = field.from_terms(polys.p_mul(num, common, p), polys.p_mul(den, common, p))
        assert_canonical(c)
        assert c == field.from_terms(dict(num), dict(den))


@pytest.mark.parametrize("p", PRIMES)
def test_laurent_terms_with_negative_exponents_are_canonical(p):
    rng = random.Random(f"canonical laurent {p}")
    for _ in range(40):
        # coefficients outside 1..p-1, and zeros mod p, reduce away
        terms = {(rng.randint(-3, 2), rng.randint(-3, 2)): rng.randint(-2 * p, 2 * p)
                 for _ in range(rng.randint(1, 4))}
        c = LaurentScalar(p, 8, terms)
        assert_canonical(c)
        assert c.terms == polys.p_reduce(terms, p)


def _algebras(kind, p):
    """The field, [a, b) and [a/b, 1/(a+b)) over it."""
    field = field_of(kind, p)
    a, b, one = field.gen("a"), field.gen("b"), field.one()
    return field, make_algebra(p, a, b, field), make_algebra(p, a / b, one / (a + b), field)


def _size_of(s, t):
    return _size(_over_common_denominator(s.entries, s.algebra.p)[0],
                 _over_common_denominator(t.entries, t.algebra.p)[0])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", PRIMES)
def test_products_on_both_kernels_are_canonical(kind, p):
    field, plain, fractional = _algebras(kind, p)
    rng = random.Random(f"canonical mul {kind} {p}")
    a, b = field.gen("a"), field.gen("b")
    for A in (plain, fractional):
        # below the switch: the dict kernel
        s, t = A.x() + a * A.y(), A.y() + b * A.one()
        assert _size_of(s, t) < PACKED_MIN_SIZE
        assert_element_canonical(A.mul(s, t))
        # above it: the packed kernel, over polynomials and some fractions
        sample = lambda r: (random_rational_function(r, field, max_degree=1) if r.random() < 0.2
                            else random_poly_scalar(r, field, max_degree=1))
        while True:
            s = random_nonzero_element(rng, A, density=0.7, sample=sample)
            t = random_nonzero_element(rng, A, density=0.7, sample=sample)
            if _size_of(s, t) >= PACKED_MIN_SIZE:
                break
        assert_element_canonical(A.mul(s, t))
        assert_element_canonical(A.mul(t, s))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", PRIMES)
def test_powers_and_inverses_are_canonical(kind, p):
    field, plain, fractional = _algebras(kind, p)
    rng = random.Random(f"canonical power {kind} {p}")
    # over slots with denominators a power up to t^5 takes the undivided
    # chain and a higher one divides at every product
    A = fractional
    t = A.x() + A.y() + A.scalar(field.one() / (field.gen("a") + 1))
    for n in (1, 2, 5, 6, 8):
        assert_element_canonical(A.power(t, n))
    for A in (plain, fractional):
        done = 0
        while done < 3:
            u = random_nonzero_element(rng, A, density=0.4)
            if u.is_scalar() is not None:
                continue
            try:
                inv = A.inverse(u)
            except NotInvertible as exc:  # a zero divisor: its witness is canonical
                assert_element_canonical(exc.witness)
                continue
            assert_element_canonical(inv)
            done += 1


def test_element_equality_refuses_an_element_of_another_algebra():
    field = field_of("rational", 3)
    A = make_algebra(3, field.gen("a"), field.gen("b"), field)
    B = make_algebra(3, field.gen("b"), field.gen("a"), field)
    assert A.certified_equal(A.x() + A.y(), A.y() + A.x())
    assert not A.certified_equal(A.x(), A.y())
    with pytest.raises(ValueError, match="different algebra"):
        A.certified_equal(A.x(), B.x())
    with pytest.raises(ValueError, match="different algebra"):
        A.certified_equal(B.x(), A.x())
