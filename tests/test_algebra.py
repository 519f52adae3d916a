"""The symbol-algebra engine: relations, normal form, predicates, norms,
inverses and the eigendecomposition."""

import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from palgebra import (
    FieldDescriptor,
    InvalidPrime,
    InvalidSlot,
    NotArtinSchreier,
    NotInSubfield,
    NotInvertible,
    ZeroElement,
    make_algebra,
    parse_scalar,
)
from palgebra import algebra as algebra_module
from palgebra import polys
from palgebra.fields import LaurentScalar, RatFunc
from palgebra.sampling import random_fx_element, random_monomial_scalar, random_poly_scalar

from support import (
    copy_to,
    fractions_of,
    inverse_dense,
    mul_reference,
    random_element,
    random_nonzero_element,
    random_rational_function,
    shifts_product,
)


def rational_algebra(p):
    field = FieldDescriptor("rational", p)
    return make_algebra(p, field.gen("a"), field.gen("b"), field)


# --- construction -----------------------------------------------------------

@pytest.mark.parametrize("key", [(3, 0), (0, 3), (-1, 0), (0, -1)])
def test_from_entries_rejects_exponents_outside_range(key):
    A = rational_algebra(3)
    with pytest.raises(ValueError, match="must lie in"):
        A.from_entries({key: 1})


def test_from_entries_rejects_scalars_of_another_field():
    # precisions never mix: a product's coefficients print as its field does
    lau = FieldDescriptor("laurent", 3, 6)
    A = make_algebra(3, lau.one(), lau.gen("a"), lau)
    for foreign in (
        FieldDescriptor("laurent", 3, 8).gen("a"),
        FieldDescriptor("laurent", 5, 6).gen("a"),
        FieldDescriptor("rational", 3).gen("a"),
    ):
        with pytest.raises(ValueError, match="base field"):
            A.from_entries({(1, 0): foreign})
    assert A.from_entries({(1, 0): lau.gen("a"), (0, 1): 2}).coeff(0, 1) == lau.from_int(2)


def test_scale_rejects_an_element_of_another_algebra():
    # [a, b)_3 and [b, a)_3 share their field; scale once returned 2*x in A
    A = rational_algebra(3)
    B = make_algebra(3, A.field.gen("b"), A.field.gen("a"), A.field)
    with pytest.raises(ValueError, match="different algebra"):
        A.scale(2, B.x())
    assert A.scale(2, A.x()) == A.add(A.x(), A.x())


def test_scale_rejects_a_scalar_of_another_field():
    # these once failed from inside the product, with a TypeError and with
    # "mixed characteristics"
    A = rational_algebra(3)
    for foreign in (FieldDescriptor("laurent", 3, 8).gen("a"),
                    FieldDescriptor("rational", 5).gen("a")):
        with pytest.raises(ValueError, match="base field"):
            A.scale(foreign, A.x())


def test_scalar_times_element_tests_ownership_once(monkeypatch):
    # the operators' ownership test chooses their result, and scale's own
    # checks are skipped; the operators once called scale, testing twice
    A = rational_algebra(3)
    a, x = A.field.gen("a"), A.x()
    calls = []
    owns = FieldDescriptor.owns
    monkeypatch.setattr(FieldDescriptor, "owns", lambda F, c: calls.append(1) or owns(F, c))
    products = [x * a, a * x, x * 2, 2 * x]
    assert len(calls) == 2
    monkeypatch.undo()
    assert products == [A.scale(a, x)] * 2 + [A.add(x, x)] * 2
    assert x.__mul__(FieldDescriptor("rational", 5).gen("a")) is NotImplemented


def test_elements_do_not_depend_on_entry_order_or_explicit_zeros():
    A = rational_algebra(3)
    a = A.field.gen("a")
    terms = [((2, 1), a), ((0, 0), 2), ((1, 2), a + 1), ((0, 1), 1)]
    s = A.from_entries(dict(terms))
    t = A.from_entries(dict(reversed(terms)) | {(2, 2): 0, (1, 0): A.field.zero()})
    assert s == t
    assert hash(s) == hash(t)
    assert str(s) == str(t) == "2 + y + (a + 1)*x*y^2 + a*x^2*y"
    assert A.from_entries({(1, 1): 0}) == A.zero()
    assert A.from_entries({(1, 1): 0}).is_zero()


def test_x_expansion_allocates_by_degree_not_by_p():
    # x^1 y^1 x^1 has degree 2: a list of p slots at p = 10**6 + 3 took 8 MB
    expand = algebra_module._x_expansion.__wrapped__
    tracemalloc.start()
    try:
        terms = expand(10**6 + 3, 1, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert terms == ((1, 1, 0), (2, 1, 0))
    assert peak < 64 * 1024


def test_make_algebra_validates_slot_and_prime():
    field = FieldDescriptor("rational", 2)
    with pytest.raises(InvalidSlot):
        make_algebra(2, field.gen("a"), field.zero(), field)
    with pytest.raises(InvalidPrime):
        make_algebra(4, field.gen("a"), field.gen("b"), FieldDescriptor("rational", 2))
    with pytest.raises(InvalidPrime):
        make_algebra(3, field.gen("a"), field.gen("b"), field)


def test_counterexample_algebra_over_laurent_field():
    field = FieldDescriptor("laurent", 3, 8)
    A = make_algebra(3, field.one(), field.gen("a"), field)
    assert A.power(A.y(), 3) == A.scalar(field.gen("a"))


# --- defining relations -------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
def test_defining_relations(p):
    A = rational_algebra(p)
    x, y = A.x(), A.y()
    assert A.power(x, p) == x + A.scalar(A.alpha)
    assert A.power(y, p) == A.scalar(A.beta)
    assert A.conjugate(y, x) == x + A.one()


def test_mul_examples_p2():
    A = rational_algebra(2)
    x, y = A.x(), A.y()
    assert A.mul(y, x) == A.mul(x, y) + y
    assert A.mul(A.power(y, 1), y) == A.scalar(A.beta)
    assert A.mul(x, x) == x + A.scalar(A.alpha)


def test_power_of_sum_matches_closed_form_p2():
    # (x+y)^2 = (x+y) + (a+b) by the additivity identity
    A = rational_algebra(2)
    s = A.x() + A.y()
    assert A.power(s, 2) == s + A.scalar(A.alpha + A.beta)


def test_power_zero_is_one():
    A = rational_algebra(3)
    assert A.power(A.y(), 0) == A.one()


def _power_by_products(A, t, n):
    """t^n as the left fold 1 * t * ... * t of n products."""
    out = A.one()
    for _ in range(n):
        out = A.mul(out, t)
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_exact_power_matches_repeated_products(p):
    # exact powers square and multiply numerators over one denominator and
    # divide once at the end; canonical forms are unique, so they equal the
    # fold of products exactly, over polynomial and rational slots alike
    rat = FieldDescriptor("rational", p)
    a, b, one = rat.gen("a"), rat.gen("b"), rat.one()
    rng = random.Random(1000 + p)
    cases = []
    for A in (rational_algebra(p), make_algebra(p, a / b, one / (a + b), rat)):
        # three distinct denominators and a polynomial coefficient
        u = A.from_entries({(0, 0): a / b, (1, 0): one / (a + 1), (0, 1): b / (a + b), (1, 1): one + a})
        cases += [(A, u), (A, A.scale(one / (a + b + 1), random_nonzero_element(rng, A)))]
    lau = FieldDescriptor("laurent", p, 6)
    A = make_algebra(p, parse_scalar("a*b + 1", lau), parse_scalar("b^2 + a", lau), lau)
    # Laurent polynomial coefficients, with terms of negative a- and b-exponent
    u = A.from_entries({(0, 0): lau.from_terms({(-1, 0): 1, (0, 1): 1}), (1, 0): 1,
                        (0, 1): lau.from_terms({(0, -1): 1})})
    assert all(c.terms is not None for c in A.power(u, p + 1).entries.values())
    cases.append((A, u))
    for A, t in cases:
        for n in sorted({0, 1, 2, p, p + 1}):
            assert A.power(t, n) == _power_by_products(A, t, n)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_inexact_power_matches_repeated_products(p):
    # coefficients or slots whose expansion is an infinite series are exact
    # fractions, so at any precision, window 1 included, a power equals the
    # fold of products and the same power over F_p(a, b) exactly
    rng = random.Random(1100 + p)
    rat = FieldDescriptor("rational", p)
    for window in (1, 3):
        lau = FieldDescriptor("laurent", p, window)
        den = lau.one() + lau.gen("a") + lau.gen("b")
        series = lambda r: random_poly_scalar(r, lau, max_degree=1, max_terms=2) / den
        for alpha, beta in (("a", "b"), ("1/(1+a)", "b/(1+b)")):
            A = make_algebra(p, parse_scalar(alpha, lau), parse_scalar(beta, lau), lau)
            R = make_algebra(p, parse_scalar(alpha, rat), parse_scalar(beta, rat), rat)
            for t in (random_nonzero_element(rng, A, 0.3, sample=series),
                      A.x() + A.scale(series(rng), A.y())):
                for n in sorted({0, 1, 2, p, p + 1}):
                    power = A.power(t, n)
                    assert power == _power_by_products(A, t, n)
                    assert fractions_of(power) == fractions_of(R.power(copy_to(R, t), n))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_scalars_are_central(p):
    A = rational_algebra(p)
    rng = random.Random(42 + p)
    c = A.scalar(random_poly_scalar(rng, A.field))
    for _ in range(10):
        t = random_element(rng, A)
        assert A.mul(c, t) == A.mul(t, c)


_grid3 = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(0, 2),
    max_size=6,
)


@given(_grid3, _grid3, _grid3)
def test_ring_laws_hypothesis(e1, e2, e3):
    A = rational_algebra(3)
    s, t, u = (A.from_entries(e) for e in (e1, e2, e3))
    assert A.mul(A.mul(s, t), u) == A.mul(s, A.mul(t, u))
    assert A.mul(s, t + u) == A.mul(s, t) + A.mul(s, u)
    assert A.commutator(s, t) == -A.commutator(t, s)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_associativity_and_distributivity(p):
    A = rational_algebra(p)
    rng = random.Random(1234 + p)
    for _ in range(1000):
        s = random_element(rng, A, density=0.25, max_terms=1)
        t = random_element(rng, A, density=0.25, max_terms=1)
        u = random_element(rng, A, density=0.25, max_terms=1)
        assert A.mul(A.mul(s, t), u) == A.mul(s, A.mul(t, u))
        assert A.mul(s, t + u) == A.mul(s, t) + A.mul(s, u)
        assert A.mul(s + t, u) == A.mul(s, u) + A.mul(t, u)


# --- products on common denominators -------------------------------------------

def _assert_matches_reference(A, s, t):
    prod = A.mul(s, t)
    ref = mul_reference(A, s, t)
    assert prod == ref
    assert str(prod) == str(ref)
    return prod


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mul_agrees_with_term_by_term_reference(p):
    rat = FieldDescriptor("rational", p)
    a, b, one = rat.gen("a"), rat.gen("b"), rat.one()
    rng = random.Random(500 + p)
    density = 0.35 if p < 5 else 0.2
    frac = lambda r: random_rational_function(r, rat, max_degree=1)
    # irreducible with three terms, so no coefficient (at most two terms)
    # cancels it: every coefficient it scales keeps it as denominator
    shared = one / (a * b + a + 1)
    # polynomial slots, rational slots whose basis products carry
    # denominators of their own, and a zero left slot, whose alpha factors
    # are the empty map and not 1
    for alpha, beta in ((a, b), (a / b, one / (a + b)), (rat.zero(), b), (rat.zero(), one / (a + b))):
        A = make_algebra(p, alpha, beta, rat)
        for _ in range(3):
            s = random_nonzero_element(rng, A, density)
            t = random_nonzero_element(rng, A, density)
            u = random_nonzero_element(rng, A, density, sample=frac)
            _assert_matches_reference(A, s, t)
            _assert_matches_reference(A, A.scale(shared, s), A.scale(shared, t))
            _assert_matches_reference(A, u, t)
            _assert_matches_reference(A, A.scale(shared, s), u)
            _assert_matches_reference(A, u, u)
    # [a/b, 1) is split: (1 - y) (1 + y + ... + y^(p-1)) = 1 - y^p = 0, and
    # every output coefficient of the scaled product cancels to zero
    A = make_algebra(p, a / b, one, rat)
    y = A.y()
    s = A.scale(one / (a + 1), A.one() - y)
    t = A.scale(a / (a + b), sum((A.power(y, k) for k in range(1, p)), A.one()))
    assert _assert_matches_reference(A, s, t).is_zero()
    assert _assert_matches_reference(A, A.add(s, A.x()), t) == A.mul(A.x(), t)
    # Laurent polynomials, including terms of negative a- and b-exponent,
    # have monomial denominators, and so have their products
    lau = FieldDescriptor("laurent", p, 6)

    def laurent_poly(r):
        c = random_poly_scalar(r, lau, max_degree=2, max_terms=3)
        return lau.from_terms({(ea - 1, eb - 1): k for (ea, eb), k in c.terms.items()})

    for alpha, beta in (("1", "a"), ("a", "b"), ("a*b + 1", "b^2 + a")):
        A = make_algebra(p, parse_scalar(alpha, lau), parse_scalar(beta, lau), lau)
        for _ in range(3):
            s = random_nonzero_element(rng, A, density, sample=laurent_poly)
            t = random_nonzero_element(rng, A, density, sample=laurent_poly)
            prod = _assert_matches_reference(A, s, t)
            assert all(c.terms is not None for c in prod.entries.values())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_laurent_mul_agrees_with_term_by_term_reference(p):
    # coefficients whose expansion is an infinite series multiply on term
    # maps like every other scalar, exactly as the term-by-term product
    rng = random.Random(600 + p)
    for window in (3, 6):
        lau = FieldDescriptor("laurent", p, window)
        # polynomials over 1 + a + b, an infinite series in F_p((a))((b))
        den = lau.one() + lau.gen("a") + lau.gen("b")
        series = lambda r: random_poly_scalar(r, lau, max_degree=1, max_terms=2) / den
        for alpha, beta in (("1", "a"), ("a", "b"), ("a*b + 1", "b^2 + a")):
            A = make_algebra(p, parse_scalar(alpha, lau), parse_scalar(beta, lau), lau)
            for _ in range(4):
                s = random_nonzero_element(rng, A, 0.3, sample=series)
                t = random_nonzero_element(rng, A, 0.3, sample=series)
                _assert_matches_reference(A, s, t)


@pytest.mark.parametrize("p", [3, 5])
def test_mul_reduces_each_output_coefficient_once(p, monkeypatch):
    # the numerators multiply with no gcd; each output coefficient is then
    # reduced once, and clearing takes at most one gcd per further distinct
    # denominator of an operand.  Reducing every scalar product and partial
    # sum instead took 453 (p = 3) and 4,815 (p = 5) gcds for s * t.
    rat = FieldDescriptor("rational", p)
    a, b, one = rat.gen("a"), rat.gen("b"), rat.one()
    A = rational_algebra(p)
    rng = random.Random(700 + p)
    poly = lambda r: random_poly_scalar(r, rat, max_degree=1, max_terms=2, nonzero=True)
    dense = lambda: A.from_entries({(i, j): poly(rng) for i in range(p) for j in range(p)})
    s = A.scale(one / (a * b + a + 1), dense())
    t = A.scale(one / (a + b + 1), dense())
    # three distinct denominators in one operand
    u = A.from_entries({(0, 0): a / b, (1, 1): one / (a + 1), (2, 1): b / (a + b)})
    calls = []
    gcd = polys.p_gcd
    monkeypatch.setattr(polys, "p_gcd", lambda f, g, q: calls.append(1) or gcd(f, g, q))
    for left, right, denominators in ((s, t, 2), (s, s, 1), (u, t, 4)):
        calls.clear()
        A.mul(left, right)
        assert len(calls) <= p * p + denominators


@pytest.mark.parametrize("p", [3, 5])
def test_mul_multiplies_each_term_pair_once(p, monkeypatch):
    # one scalar product per term pair, and one per group of pairs that
    # share an output monomial and a structure constant (n0 + n1*a) * b^w.
    # Multiplying each pair's product by every constant of its basis
    # expansion took 336 (p = 3) and 3,970 (p = 5) products here; grouping
    # takes 133 and 991.
    rat = FieldDescriptor("rational", p)
    A = rational_algebra(p)
    rng = random.Random(800 + p)
    poly = lambda r: random_poly_scalar(r, rat, max_degree=1, max_terms=2, nonzero=True)
    dense = lambda: A.from_entries({(i, j): poly(rng) for i in range(p) for j in range(p)})
    s, t = dense(), dense()
    calls = []
    mul = RatFunc.__mul__
    monkeypatch.setattr(RatFunc, "__mul__", lambda f, g: calls.append(1) or mul(f, g))
    A.mul(s, t)
    assert len(calls) <= 2 * len(s.entries) * len(t.entries)


def test_mul_multiplies_each_output_sum_once_per_slot_factor(monkeypatch):
    # a constant (n0 + n1*alpha) * beta^w is linear in n0 and n1, so each
    # output monomial sums its pairs' products into at most four maps, one
    # per wrap and part, and multiplies each once by its slot factor.
    # That takes 706 calls here, 625 of them for the term pairs; multiplying
    # each group of pairs by its whole constant instead took 959.  The
    # product is large enough for the packed kernel, so the switch is raised
    # to count the dict kernel's calls; the packed kernel must agree.
    p = 5
    rat = FieldDescriptor("rational", p)
    a, b, one = rat.gen("a"), rat.gen("b"), rat.one()
    A = make_algebra(p, a / b, one / (a + b), rat)
    rng = random.Random(900)
    poly = lambda r: random_poly_scalar(r, rat, max_degree=1, max_terms=2, nonzero=True)
    dense = lambda: A.from_entries({(i, j): poly(rng) for i in range(p) for j in range(p)})
    s, t = dense(), dense()
    calls = []
    mul_into = polys.p_mul_into
    monkeypatch.setattr(polys, "p_mul_into", lambda out, f, g: calls.append(1) or mul_into(out, f, g))
    monkeypatch.setattr(algebra_module, "PACKED_MIN_SIZE", float("inf"))
    prod = A.mul(s, t)
    assert len(calls) <= len(s.entries) * len(t.entries) + 4 * p * p
    monkeypatch.undo()
    assert prod == mul_reference(A, s, t) == A.mul(s, t)


def _random_numerators(rng, p, cells, low, max_terms=4):
    """Random nonzero term maps on the given basis cells, with exponents
    from low to low + 2, as _over_common_denominator hands them on."""
    la, lb = low
    return {
        ij: {(rng.randint(la, la + 2), rng.randint(lb, lb + 2)): rng.randrange(1, p)
             for _ in range(rng.randint(1, max_terms))}
        for ij in cells
    }


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65521])
def test_packed_products_match_dict_products(p):
    # both kernels, called directly, give the same reduced numerators over
    # slots with and without denominators, a zero left slot and exact
    # Laurent slots and numerators with negative exponents
    rng = random.Random(1300 + p)
    rat, lau = FieldDescriptor("rational", p), FieldDescriptor("laurent", p, 8)
    a, b, one = rat.gen("a"), rat.gen("b"), rat.one()
    a_inv = lau.from_terms({(-1, 0): 1})
    algebras = [
        (rational_algebra(p), (0, 0)),
        (make_algebra(p, a / b, one / (a + b), rat), (0, 0)),
        (make_algebra(p, rat.zero(), b, rat), (0, 0)),
        (make_algebra(p, a_inv, lau.gen("b") + a_inv, lau), (-1, -2)),
    ]
    # at p = 65521 the rows y^(p-2), y^(p-1) wrap and x stays short
    cells = sorted({(i, j) for i in range(min(p, 4)) for j in (0, 1, p - 2, p - 1)})

    def same(A, s_num, t_num):
        dict_out = algebra_module._dict_products(p, s_num, t_num, A._factors)
        assert algebra_module._packed_products(p, s_num, t_num, A._factors) == dict_out
        return dict_out

    for A, low in algebras:
        for _ in range(4):
            s_cells = rng.sample(cells, rng.randint(1, len(cells)))
            t_cells = rng.sample(cells, rng.randint(1, len(cells)))
            same(A, _random_numerators(rng, p, s_cells, low), _random_numerators(rng, p, t_cells, low))
        # single term pairs, one of them of single terms
        for ij1, ij2 in ((cells[0], cells[-1]), (cells[-1], cells[-1])):
            same(A, _random_numerators(rng, p, [ij1], low), _random_numerators(rng, p, [ij2], low))
        same(A, {(0, 0): {low: 1}}, {(1, 1): {(1, 0): p - 1}})
        # (f x + f)(x - 1): the x terms cancel, unless p = 2 and x^2 = x + alpha
        f = _random_numerators(rng, p, [(0, 0)], low)[(0, 0)]
        out = same(A, {(1, 0): f, (0, 0): f}, {(1, 0): {(0, 0): 1}, (0, 0): {(0, 0): p - 1}})
        assert p == 2 or (1, 0) not in out
        assert same(A, {}, {(0, 0): f}) == {}
    # every coefficient p - 1, the slot factors' too, so at p = 65521 the
    # unreduced sums pass 2^64: the bound, at least 2 (p-1)^4, takes two
    # 8-byte words a slot
    if p == 65521:
        assert polys.slot_bytes(2 * (p - 1) ** 4) == 16
    minus = rat.from_terms({(1, 0): p - 1, (0, 1): p - 1, (0, 0): p - 1})
    A = make_algebra(p, minus, minus, rat)
    dense = {ij: {(i, j): p - 1 for i in range(3) for j in range(3)} for ij in cells}
    assert same(A, dense, dense)


def _dense_poly_elements(A, rng, count):
    p = A.p
    poly = lambda r: random_poly_scalar(r, A.field, max_degree=1, max_terms=2, nonzero=True)
    return [
        A.from_entries({(i, j): poly(rng) for i in range(p) for j in range(p)})
        for _ in range(count)
    ]


def _count_calls(monkeypatch, cls, names):
    """A list that grows by one at each call of cls's listed methods."""
    calls = []
    for name in names:
        method = getattr(cls, name)
        monkeypatch.setattr(
            cls, name, lambda f, g, method=method: calls.append(1) or method(f, g)
        )
    return calls


def test_exact_laurent_products_make_no_scalar_product(monkeypatch):
    # exact coefficients over exact slots are multiplied as term maps, the
    # constants are built from the slots' term maps, and each output
    # coefficient is built once, even in a fresh algebra.  Forming a
    # LaurentScalar per term pair and per group took 934 scalar products
    # here; building the constants as scalars took 57 products and 38 sums.
    p = 5
    lau = FieldDescriptor("laurent", p, 8)
    A = make_algebra(p, parse_scalar("a*b + 1", lau), parse_scalar("b^2 + a", lau), lau)
    s, t = _dense_poly_elements(A, random.Random(5), 2)
    calls = _count_calls(monkeypatch, LaurentScalar, ("__mul__", "__add__"))
    prod = A.mul(s, t)
    assert len(calls) == 0
    monkeypatch.undo()
    assert prod == mul_reference(A, s, t)


def test_rational_products_make_no_scalar_operation(monkeypatch):
    # operands over several distinct denominators are cleared to numerators
    # over their lcm with polynomial kernels, and the constants over
    # [a/b, 1/(a+b)) are numerators built from the slots' term maps: no
    # RatFunc operation at all.  Clearing and building constants through
    # RatFunc operations took 297 products, 38 sums and 8 divisions here.
    p = 5
    rat = FieldDescriptor("rational", p)
    a, b, one = rat.gen("a"), rat.gen("b"), rat.one()
    A = make_algebra(p, a / b, one / (a + b), rat)
    dens = (a, b, a + 1, a + b)
    s, t = (
        A.from_entries({ij: c / dens[k % len(dens)] for k, (ij, c) in enumerate(el.entries.items())})
        for el in _dense_poly_elements(A, random.Random(6), 2)
    )
    calls = _count_calls(monkeypatch, RatFunc, ("__mul__", "__add__", "__truediv__"))
    prod = A.mul(s, t)
    assert len(calls) == 0
    monkeypatch.undo()
    assert prod == mul_reference(A, s, t)


def test_rational_slot_products_divide_once_per_output_coefficient(monkeypatch):
    # over [a/b, 1/(a+b)) each constant (n0 + n1*alpha) * beta^w is a
    # polynomial numerator over den(alpha) * den(beta), which joins the one
    # final division: at most one gcd per output coefficient, and none for
    # polynomial operands before it.  Constants with denominators of their
    # own took 603, 517 and 513 gcds for these three products.
    p = 5
    rat = FieldDescriptor("rational", p)
    a, b, one = rat.gen("a"), rat.gen("b"), rat.one()
    A = make_algebra(p, a / b, one / (a + b), rat)
    elements = _dense_poly_elements(A, random.Random(5), 6)
    calls = []
    gcd = polys.p_gcd
    monkeypatch.setattr(polys, "p_gcd", lambda f, g, q: calls.append(1) or gcd(f, g, q))
    for s, t in zip(elements[::2], elements[1::2]):
        calls.clear()
        A.mul(s, t)
        assert len(calls) <= p * p


def test_rational_slot_powers_divide_once_per_output_coefficient(monkeypatch):
    # a power squares and multiplies numerators over one denominator and
    # divides each output coefficient once: here z^5 takes 2 gcds for its 4
    # coefficients and w^5, a scalar, takes 1.  Building every square and
    # product as canonical coefficients took 31 and 13.
    p = 5
    rat = FieldDescriptor("rational", p)
    a, b, one = rat.gen("a"), rat.gen("b"), rat.one()
    A = make_algebra(p, a / b, one / (a + b), rat)
    x, y = A.x(), A.y()
    w = A.mul(A.scalar(a / (a + b)) + x, y)
    z = x + w
    calls = []
    gcd = polys.p_gcd
    monkeypatch.setattr(polys, "p_gcd", lambda f, g, q: calls.append(1) or gcd(f, g, q))
    powers = []
    for t in (z, w):
        calls.clear()
        powers.append(A.power(t, p))
        assert len(calls) <= len(powers[-1].entries)
    monkeypatch.undo()
    assert len(powers[1].entries) == 1
    assert powers == [_power_by_products(A, t, p) for t in (z, w)]


def test_long_rational_slot_powers_keep_numerators_small(monkeypatch):
    # each undivided product multiplies the numerators by den(alpha) *
    # den(beta) once more, so a long chain over [a/b, 1/(a+b)) divides at
    # every product.  Dividing only t^15 at the end multiplied numerators of
    # total degree 14 for x + y and 22 for z, against 6 and 10 for t^5.
    p = 5
    rat = FieldDescriptor("rational", p)
    a, b, one = rat.gen("a"), rat.gen("b"), rat.one()
    A = make_algebra(p, a / b, one / (a + b), rat)
    x, y = A.x(), A.y()
    z = x + A.mul(A.scalar(a / (a + b)) + x, y)
    degrees = []
    mul_terms = algebra_module.SymbolAlgebra._mul_terms

    # the numerators of both operands, where the dict and packed kernels
    # take them
    def recording_mul(A, s_frac, t_frac):
        degrees.append(max(i + j for num, _ in (s_frac, t_frac) for f in num.values() for i, j in f))
        return mul_terms(A, s_frac, t_frac)

    monkeypatch.setattr(algebra_module.SymbolAlgebra, "_mul_terms", recording_mul)
    for t in (x + y, z):
        degrees.clear()
        A.power(t, p)
        short = max(degrees)
        degrees.clear()
        power = A.power(t, 3 * p)
        assert max(degrees) <= short
        assert power == _power_by_products(A, t, 3 * p)


def test_inverse_reduces_each_power_forward_only(monkeypatch):
    # the inverse reads the reduced characteristic polynomial off the traces
    # of its Horner products h_(k-1) * t and eliminates nothing: 26 to 27
    # gcds per inverse here, most of them in the final division by c.
    # Forward elimination over the powers with lazy pivots took 357 to 362;
    # normalising every row took 482 to 507, and clearing each new pivot
    # from the earlier rows as well took 891 to 1,010.
    p = 5
    A = rational_algebra(p)
    rng = random.Random(5)
    dense = [
        A.from_entries({(i, j): rng.randrange(p) for i in range(p) for j in range(p)})
        for _ in range(4)
    ]
    calls = []
    gcd = polys.p_gcd
    monkeypatch.setattr(polys, "p_gcd", lambda f, g, q: calls.append(1) or gcd(f, g, q))
    for t in dense:
        calls.clear()
        A.inverse(t)
        assert len(calls) <= 30


def test_sparse_p5_inverse_with_quadratic_coefficients(monkeypatch):
    # 12 coefficients of degree at most 2 in a and b: 27 gcds and 0.04 s on
    # a 2-core machine.  When inverses eliminated over the powers it took
    # 511 gcds and 147 s
    p = 5
    A = rational_algebra(p)
    t = random_element(random.Random(1), A, density=0.6, sample=lambda r: random_poly_scalar(
        r, A.field, max_degree=2, max_terms=3, nonzero=True))
    assert len(t.entries) == 12
    calls = []
    gcd = polys.p_gcd
    monkeypatch.setattr(polys, "p_gcd", lambda f, g, q: calls.append(1) or gcd(f, g, q))
    s = A.inverse(t)
    assert len(calls) <= 60
    monkeypatch.undo()
    assert A.mul(s, t) == A.one() and A.mul(t, s) == A.one()


def test_inverse_of_u_y_power_divides_no_basis_row(monkeypatch):
    # the powers t^k, k < p, of t = u*y^k lie in y-columns other than 0, so
    # every trace and every e_i but e_p vanishes, tail is t^(p-1) and the
    # check multiplies polynomials: the gcds left are those of tail / c, one
    # per coefficient, 3 to 7 here (3 to 8 when inverses eliminated over the
    # powers).  Normalising every basis row and checking with the rational
    # inverse took 17 to 36.
    p = 5
    A = rational_algebra(p)
    rng = random.Random(11)
    calls = []
    gcd = polys.p_gcd
    monkeypatch.setattr(polys, "p_gcd", lambda f, g, q: calls.append(1) or gcd(f, g, q))
    for _ in range(8):
        t = A.mul(random_fx_element(rng, A), A.power(A.y(), rng.randrange(1, p)))
        calls.clear()
        s = A.inverse(t)
        assert len(calls) <= 2 * p
        assert A.mul(s, t) == A.one() and A.mul(t, s) == A.one()


def test_dense_inverse_runs_no_remainder_sequence(monkeypatch):
    # tail / c takes one gcd for each of the 43 coefficients of the inverse;
    # single terms, monomial factors and a coprimality certificate at one
    # point of F_7 settle all of them.  Every nontrivial gcd ran the
    # subresultant sequence before: 37 runs for this inverse.
    p = 7
    A = rational_algebra(p)
    x, y = A.x(), A.y()
    t = A.mul(x, y) + A.scale(A.field.gen("b"), x) + A.one()
    runs = []
    subresultant = polys._subresultant_gcd
    monkeypatch.setattr(polys, "_subresultant_gcd",
                        lambda F, G, q: runs.append(1) or subresultant(F, G, q))
    s = A.inverse(t)
    assert not runs
    monkeypatch.undo()
    assert A.mul(s, t) == A.one() and A.mul(t, s) == A.one()


# --- commutators ---------------------------------------------------------------

def test_commutator_examples():
    A = rational_algebra(3)
    x, y = A.x(), A.y()
    assert A.commutator(y, x) == y
    y2 = A.power(y, 2)
    assert A.commutator(y2, x) == A.scale(2, y2)
    assert A.commutator(x, x).is_zero()


# --- inverses -------------------------------------------------------------------

def test_inverse_of_y():
    A = rational_algebra(3)
    y = A.y()
    inv = A.inverse(y)
    beta_inv = A.field.one() / A.beta
    assert inv == A.scale(beta_inv, A.power(y, 2))


@pytest.mark.parametrize("p", [2, 3])
def test_inverse_of_x_closed_form(p):
    # x * (x^(p-1) - 1) = x^p - x = alpha, so 1/x = (x^(p-1) - 1)/alpha
    A = rational_algebra(p)
    x = A.x()
    inv = A.inverse(x)
    expected = A.scale(A.field.one() / A.alpha, A.power(x, p - 1) - A.one())
    assert inv == expected
    assert A.mul(inv, x) == A.one() and A.mul(x, inv) == A.one()


def test_rank_one_idempotent_gets_a_horner_witness():
    # in the split [0, b)_3, t = 1 - x^2 is a rank-1 idempotent: its reduced
    # characteristic polynomial is T^3 - T^2, so both c and tail = t^2 - t
    # vanish, and the witness is the next Horner sum t - 1 = 2*x^2
    field = FieldDescriptor("rational", 3)
    A = make_algebra(3, field.zero(), field.gen("b"), field)
    t = A.from_entries({(0, 0): 1, (2, 0): 2})
    assert A.mul(t, t) == t
    with pytest.raises(NotInvertible) as exc:
        A.inverse(t)
    s = exc.value.witness
    assert not s.is_zero()
    assert A.mul(s, t).is_zero()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_inverse_in_fx_is_the_product_of_the_other_shifts_over_the_norm(p):
    # an independent closed form: N(u) is the product of the p shifts
    # u(x + i), so 1/u is the product of the shifts i = 1 .. p-1 over N(u)
    A = rational_algebra(p)
    rng = random.Random(41 + p)
    for _ in range(4):
        u = random_fx_element(rng, A)
        others = shifts_product(A, u, first=1)
        assert A.inverse(u) == A.scale(A.field.one() / A.norm_Fx(u), others)


def test_split_algebra_zero_divisor_witness():
    field = FieldDescriptor("rational", 2)
    A = make_algebra(2, field.zero(), field.gen("b"), field)
    with pytest.raises(NotInvertible) as exc:
        A.inverse(A.x())
    s = exc.value.witness
    assert not s.is_zero()
    assert A.mul(s, A.x()).is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_inverse_round_trip_random(p):
    A = rational_algebra(p)
    rng = random.Random(77 + p)
    if p == 5:
        # keep coefficient growth tame at the largest prime: dense grids over
        # F_p plus the single-column shapes the witness machinery relies on
        def draw():
            if rng.random() < 0.5:
                return A.from_entries(
                    {(i, j): rng.randrange(p) for i in range(p) for j in range(p)}
                )
            u = random_fx_element(rng, A)
            return A.mul(u, A.power(A.y(), rng.randrange(1, p)))
    else:
        def draw():
            return random_nonzero_element(rng, A)
    done = 0
    while done < 6:
        t = draw()
        if t.is_zero():
            continue
        try:
            s = A.inverse(t)
        except NotInvertible as exc:
            assert not exc.witness.is_zero()
            assert A.mul(exc.witness, t).is_zero()
            continue
        assert A.mul(s, t) == A.one()
        assert A.mul(t, s) == A.one()
        done += 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_laurent_inverse_matches_exact_inverse_inside_window(p):
    # the inverse over F_p(a, b) is the oracle: at every precision each
    # coefficient of the Laurent engine's inverse is the same num/den
    rat = FieldDescriptor("rational", p)
    R = make_algebra(p, rat.one(), rat.gen("a"), rat)
    compared = 0

    def compare(window, t, exact):
        nonlocal compared
        lau = FieldDescriptor("laurent", p, window)
        L = make_algebra(p, lau.one(), lau.gen("a"), lau)
        approx = L.inverse(copy_to(L, t))
        assert fractions_of(approx) == fractions_of(exact)
        compared += len(exact.entries)

    for window in (3, 6, 8):
        rng = random.Random(1000 * p + window)
        done = 0
        while done < 8:
            u = random_fx_element(rng, R)
            t = R.mul(u, R.power(R.y(), rng.randrange(1, p)))
            try:
                exact = R.inverse(t)
            except NotInvertible:
                continue
            compare(window, t, exact)
            done += 1
    if p == 5:
        # a general element outside the u*y^k family
        a, b = rat.gen("a"), rat.gen("b")
        t = R.from_entries({(0, 1): a, (0, 2): 1, (1, 0): 3 * b, (1, 1): 4 * a})
        compare(6, t, R.inverse(t))
    assert compared >= 3 * 8 + (p == 5)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_laurent_inverse_of_general_elements_is_certified_or_undecided(p):
    # general elements with monomial coefficients in [1, a), [1, b) and
    # [a, b): every draw is decided, a zero divisor or an inverse equal to
    # the one over F_p(a, b).  Any exception but NotInvertible fails the
    # test; WitnessVerificationFailed is one that pivoting on an uncertified
    # entry, or a series inverse that certified a wrong term, used to raise.
    rat = FieldDescriptor("rational", p)
    sample = lambda r: random_monomial_scalar(r, rat, max_degree=1)
    decided = 0
    for window in (3, 6, 8):
        lau = FieldDescriptor("laurent", p, window)
        for alpha, beta in (("1", "a"), ("1", "b"), ("a", "b")):
            R = make_algebra(p, parse_scalar(alpha, rat), parse_scalar(beta, rat), rat)
            L = make_algebra(p, parse_scalar(alpha, lau), parse_scalar(beta, lau), lau)
            rng = random.Random(f"{p} {window} {alpha} {beta}")
            for _ in range(7):
                t = random_nonzero_element(rng, R, 0.3, sample=sample)
                try:
                    approx = L.inverse(copy_to(L, t))
                except NotInvertible:
                    with pytest.raises(NotInvertible):
                        R.inverse(t)
                else:
                    assert fractions_of(approx) == fractions_of(R.inverse(t))
                decided += 1
    # at window 8 the series inverse left 2 of the 21 draws at p = 5
    # undecided, and forward elimination over the powers 14 at p = 3
    assert decided == 63


def test_laurent_inverse_through_an_exact_cancellation():
    # h_1 * t cancels a term pair of its x coefficient exactly; that zero
    # once lowered the coefficient's tracked lower bound to b^0, so the
    # leading term of c = Nrd(t) was not certified and the inverse was
    # undecided
    p = 3
    rat, lau = FieldDescriptor("rational", p), FieldDescriptor("laurent", p, 8)
    R, L = (make_algebra(p, parse_scalar("1/(1+a)", f), f.gen("b"), f) for f in (rat, lau))
    a, b = rat.gen("a"), rat.gen("b")
    t = R.from_entries({(1, 0): b, (2, 0): a * b})
    assert fractions_of(L.inverse(copy_to(L, t))) == fractions_of(R.inverse(t))


@pytest.mark.parametrize("text", ["1/(1+a)", "1/(1/(1+b) - 1)"])
def test_laurent_element_inverse_of_a_scalar_is_the_scalar_inverse(text):
    # a scalar element takes the scalar inverse: dividing tail by c = t^p
    # certified 1/(1/(1+b) - 1) only to O(b^2), and an elimination that
    # computed its pivot entries raised PrecisionExhausted on 1/(1+a)
    lau = FieldDescriptor("laurent", 3, 8)
    A = make_algebra(3, lau.gen("a"), lau.gen("b"), lau)
    c = parse_scalar(text, lau)
    assert A.inverse(A.scalar(c)) == A.scalar(c.inverse())


def test_laurent_inverse_must_certify_its_constant_term():
    # at windows 1 and 2 the constant coefficient of a check product once
    # had a window that ended before a^0 b^0, so the inverse was undecided.
    # The check products are now exact at every precision: both are 1.
    rat = FieldDescriptor("rational", 3)
    R = make_algebra(3, rat.one(), rat.gen("a"), rat)
    for window in (1, 2, 3):
        lau = FieldDescriptor("laurent", 3, window)
        a, b = lau.gen("a"), lau.gen("b")
        L = make_algebra(3, lau.one(), a, lau)
        t = L.from_entries({(0, 0): a, (0, 1): a, (1, 1): b, (1, 2): a, (2, 0): a, (2, 2): b})
        s = L.inverse(t)
        assert L.mul(s, t) == L.mul(t, s) == L.one()
        assert fractions_of(s) == fractions_of(R.inverse(copy_to(R, t)))


@pytest.mark.parametrize("p", [2, 3])
def test_inverse_agrees_with_dense_reference(p):
    # the characteristic-polynomial inverse and the p^2 x p^2
    # right-multiplication solve are independent routes and must agree
    A = rational_algebra(p)
    rng = random.Random(303 + p)
    done = 0
    while done < 5:
        t = random_nonzero_element(rng, A)
        try:
            fast = A.inverse(t)
        except NotInvertible:
            with pytest.raises(NotInvertible) as exc:
                inverse_dense(A, t)
            assert A.mul(exc.value.witness, t).is_zero()
            done += 1
            continue
        assert inverse_dense(A, t) == fast
        done += 1


def test_conjugation_examples():
    A = rational_algebra(3)
    x, y = A.x(), A.y()
    assert A.conjugate(y, x) == x + A.one()
    assert A.conjugate(A.one(), x + y) == x + y
    # the pair (x, y) has commutator coefficient k = 1, so m = 1 shifts by one
    assert A.conjugate(y, x + y) == x + y + A.one()
    # conjugating by y^m shifts x by m, never by one unless m = 1
    assert A.conjugate(A.power(y, 2), x + y) == x + y + A.scalar(2)
    # for y^2 the commutator coefficient is k = 2, so m = 2 and the shift
    # element is (y^2)^m
    y2 = A.power(y, 2)
    assert A.conjugate(A.power(y2, 2), x + y2) == x + y2 + A.one()


# --- predicates -------------------------------------------------------------------

def test_artin_schreier_predicate():
    A = rational_algebra(3)
    x, y = A.x(), A.y()
    assert A.is_artin_schreier(x) == A.alpha
    assert A.is_artin_schreier(x + y) == A.alpha + A.beta
    assert A.is_artin_schreier(y) is None
    assert A.is_artin_schreier(A.scalar(A.alpha)) is None


def test_p_central_predicate():
    A = rational_algebra(3)
    x, y = A.x(), A.y()
    assert A.is_p_central(y) == A.beta
    assert A.is_p_central(x) is None
    lam = A.field.gen("a")
    w = A.mul(A.scalar(lam) + x, y)
    from palgebra import frobenius

    expected = (A.alpha + frobenius(lam) - lam) * A.beta
    assert A.is_p_central(w) == expected


# --- norms ------------------------------------------------------------------------

def test_norm_examples():
    field = FieldDescriptor("rational", 2)
    a, b = field.gen("a"), field.gen("b")
    A = make_algebra(2, a, b, field)
    lam = a
    assert A.norm_Fx(A.scalar(lam) + A.x()) == parse_scalar("a^2", field)
    assert A.norm_Fx(A.x()) == a
    A1 = make_algebra(2, field.one(), a, field)
    assert A1.norm_Fx(A1.one() + A1.x()) == field.one()


def test_norm_closed_form_lambda_plus_x():
    # N(lambda + x) = lambda^p - lambda + alpha
    for p in (2, 3, 5):
        field = FieldDescriptor("rational", p)
        A = make_algebra(p, field.gen("a"), field.gen("b"), field)
        rng = random.Random(99 + p)
        for _ in range(5):
            lam = random_poly_scalar(rng, field)
            from palgebra import frobenius

            got = A.norm_Fx(A.scalar(lam) + A.x())
            assert got == frobenius(lam) - lam + A.alpha


def test_norm_rejections():
    A = rational_algebra(2)
    with pytest.raises(NotInSubfield):
        A.norm_Fx(A.y())
    with pytest.raises(ZeroElement):
        A.norm_Fx(A.zero())


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_norm_is_the_product_of_the_shifts(p):
    # norm_Fx reads the reduced norm off the Horner sums; the product of the
    # p shifts u(x + i) is the closed form it must agree with, over F_p(a, b)
    # and over F_p((a))((b)) alike
    rat = FieldDescriptor("rational", p)
    lau = FieldDescriptor("laurent", p, 8)
    algebras = [
        make_algebra(p, parse_scalar(alpha, field), parse_scalar(beta, field), field)
        for field, alpha, beta in (
            (rat, "a", "b"), (rat, "a/b", "1/(a+b)"), (rat, "0", "b"), (lau, "a", "b"),
        )
    ]
    rng = random.Random(61 + p)
    zero_norms = 0
    for A in algebras:
        # in the split [0, b), N(x + i) = alpha = 0
        draws = [A.x() + A.scalar(i) for i in range(p)]
        draws += [random_fx_element(rng, A) for _ in range(4)]
        for u in draws:
            norm = A.norm_Fx(u)
            assert A.scalar(norm) == shifts_product(A, u)
            zero_norms += norm.is_zero()
    assert zero_norms >= p
    # a coefficient whose expansion is an infinite series: the norm of the
    # scalar c is c^p, and that of c + x, once undecided at every window,
    # is the product of the shifts and the norm over F_p(a, b)
    L, R = algebras[-1], algebras[0]
    c = parse_scalar("1/(1+a)", lau)
    assert L.norm_Fx(L.scalar(c)) == c ** p
    u = L.scalar(c) + L.x()
    norm = L.norm_Fx(u)
    assert L.scalar(norm) == shifts_product(L, u)
    exact = R.norm_Fx(R.scalar(parse_scalar("1/(1+a)", rat)) + R.x())
    assert fractions_of(norm) == fractions_of(exact)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_norm_makes_p_minus_1_products_and_no_shift(monkeypatch, p):
    # the Horner recurrence makes p - 1 element products and one RatFunc
    # product per s_k: 2, 4 and 6 here.  Multiplying the p binomially
    # expanded shifts u(x + i) made the same element products and 2 to 10,
    # 28 to 40 and 108 to 120 RatFunc products for these draws.
    A = rational_algebra(p)
    rng = random.Random(7 + p)
    products = []
    mul = algebra_module.SymbolAlgebra.mul
    monkeypatch.setattr(algebra_module.SymbolAlgebra, "mul",
                        lambda B, s, t: products.append(1) or mul(B, s, t))
    scalar_products = _count_calls(monkeypatch, RatFunc, ("__mul__",))
    for _ in range(3):
        u = random_fx_element(rng, A, max_degree=2)
        products.clear()
        scalar_products.clear()
        A.norm_Fx(u)
        assert len(products) == p - 1
        assert len(scalar_products) <= p - 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_norm_identity_uy_power(p):
    # (u y)^p = N(u) * beta for u in F[x]; two independent code paths
    A = rational_algebra(p)
    rng = random.Random(31 + p)
    for _ in range(20):
        u = random_fx_element(rng, A)
        lhs = A.power(A.mul(u, A.y()), p)
        rhs = A.scalar(A.norm_Fx(u) * A.beta)
        assert lhs == rhs


# --- eigendecomposition --------------------------------------------------------------

def test_ad_decompose_monomial_example():
    A = rational_algebra(3)
    x, y = A.x(), A.y()
    t = x + y + A.scale(2, A.mul(x, A.power(y, 2)))
    comps = A.ad_decompose(t, x)
    assert comps[0] == x
    assert comps[1] == y
    assert comps[2] == A.scale(2, A.mul(x, A.power(y, 2)))


def test_ad_decompose_of_reference_element():
    A = rational_algebra(5)
    comps = A.ad_decompose(A.x(), A.x())
    assert comps[0] == A.x()
    for i in range(1, 5):
        assert comps[i].is_zero()


def test_ad_decompose_requires_artin_schreier():
    A = rational_algebra(3)
    with pytest.raises(NotArtinSchreier):
        A.ad_decompose(A.x(), A.y())


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ad_decompose_reconstructs_and_eigen(p):
    A = rational_algebra(p)
    rng = random.Random(55 + p)
    x = A.x()
    for _ in range(15):
        t = random_element(rng, A)
        comps = A.ad_decompose(t, x)
        assert comps.total() == t
        for i, part in enumerate(comps):
            assert A.commutator(part, x) == A.scale(i, part)
        again = A.ad_decompose(t, x)
        assert all(u == v for u, v in zip(comps, again))


def test_ad_decompose_general_artin_schreier_reference():
    # decomposition also works with respect to x + y, not just x
    A = rational_algebra(3)
    x_el = A.x() + A.y()
    rng = random.Random(8)
    t = random_element(rng, A)
    comps = A.ad_decompose(t, x_el)
    assert comps.total() == t
    for i, part in enumerate(comps):
        assert A.commutator(part, x_el) == A.scale(i, part)


# --- element basics ---------------------------------------------------------------

def test_element_equality_across_equal_algebras():
    A1 = rational_algebra(3)
    A2 = rational_algebra(3)
    assert A1 == A2
    assert A1.x() == A2.x()


def test_is_scalar():
    A = rational_algebra(2)
    assert A.one().is_scalar() == A.field.one()
    assert A.zero().is_scalar() == A.field.zero()
    assert A.x().is_scalar() is None


def test_is_scalar_over_laurent_decides_only_on_certified_terms():
    # u * (1 + a) - 1 was 0 + O(a^5), so an element with it as its
    # x-coefficient was undecided; it is exactly zero, and the element a scalar
    field = FieldDescriptor("laurent", 3, 5)
    A = make_algebra(3, field.one(), field.gen("a"), field)
    u = parse_scalar("1/(1+a)", field)
    remainder = u * (1 + field.gen("a")) - 1
    assert remainder.is_zero()
    assert A.scalar(u).is_scalar() == u
    assert A.from_entries({(0, 0): u, (1, 0): u, (0, 1): remainder}).is_scalar() is None
    assert A.from_entries({(0, 0): u, (1, 0): remainder}).is_scalar() == u
