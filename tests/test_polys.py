"""Kernel tests for the raw polynomial layer, with sympy as an independent
oracle for gcd and exact division."""

import random

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from palgebra import polys

A, B = sympy.symbols("a b")


def to_sympy(f):
    return sympy.Poly.from_dict({m: c for m, c in f.items()}, A, B) if f else sympy.Poly(0, A, B)


def from_sympy(poly, p):
    out = {}
    for m, c in poly.as_dict().items():
        c = int(c) % p
        if c:
            out[m] = c
    return out


def sympy_gcd(f, g, p):
    """The monic gcd of f and g by sympy, recursing in b, its first
    generator, which is of low degree here and fast."""
    theirs = sympy.gcd(
        sympy.Poly(to_sympy(f).as_expr(), B, A, modulus=p),
        sympy.Poly(to_sympy(g).as_expr(), B, A, modulus=p),
    )
    return polys.p_monic(from_sympy(sympy.Poly(theirs.as_expr(), A, B), p), p)


def monomial(ea, eb):
    return {(ea, eb): 1}


def random_poly(rng, p, max_deg=3, terms=4):
    out = {}
    for _ in range(rng.randint(0, terms)):
        m = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        c = rng.randrange(p)
        s = (out.get(m, 0) + c) % p
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mul_matches_sympy(p):
    rng = random.Random(1000 + p)
    for _ in range(25):
        f, g = random_poly(rng, p), random_poly(rng, p)
        ours = polys.p_mul(f, g, p)
        theirs = from_sympy(to_sympy(f) * to_sympy(g), p)
        assert ours == theirs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mul_into_then_reduce_is_a_sum_of_products(p):
    # integer coefficients pile up unreduced; one reduction mod p gives the
    # reduced sum, Laurent exponents included
    rng = random.Random(1100 + p)
    for _ in range(25):
        f, g, h = (random_poly(rng, p) for _ in range(3))
        k = {(ea - 2, eb - 1): c for (ea, eb), c in random_poly(rng, p).items()}
        acc = polys.p_mul_into(polys.p_mul_into({}, f, g), h, k)
        assert polys.p_reduce(acc, p) == polys.p_add(polys.p_mul(f, g, p), polys.p_mul(h, k, p), p)
    assert polys.p_reduce({(0, 0): p, (1, 0): -1, (0, 1): 2 * p + 1}, p) == {
        (1, 0): p - 1,
        (0, 1): 1,
    }


def test_slot_bytes_grow_by_powers_of_two_then_by_words():
    bounds = [2**k - 1 for k in (8, 9, 16, 17, 32, 33, 64, 65, 128, 129)]
    assert [polys.slot_bytes(n) for n in bounds] == [1, 2, 2, 4, 4, 8, 8, 16, 16, 24]


@pytest.mark.parametrize("p", [2, 5, 65521])
def test_packed_maps_multiply_as_p_mul(p):
    # Laurent exponents pack from each map's least exponents; a stride past
    # the product's b-span and a width for (p-1)^2 * min(|f|, |g|) read the
    # unreduced product back, with sparse and dense maps alike
    rng = random.Random(1200 + p)
    cells = [(ea - 2, eb - 1) for ea in range(7) for eb in range(7)]
    for f_terms, g_terms in ((1, 1), (3, 1), (12, 3), (40, 30)):
        f, g = ({m: rng.randrange(1, p) for m in rng.sample(cells, n)} for n in (f_terms, g_terms))
        (fa, fb, _, fhb), (ga, gb, _, ghb) = polys.p_box([f]), polys.p_box([g])
        stride = fhb - fb + ghb - gb + 1
        width = polys.slot_bytes((p - 1) ** 2 * min(len(f), len(g)))
        n = polys.p_pack(f, (fa, fb), stride, width) * polys.p_pack(g, (ga, gb), stride, width)
        assert polys.p_unpack(n, (fa + ga, fb + gb), stride, width, p) == polys.p_mul(f, g, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gcd_matches_sympy(p):
    rng = random.Random(2000 + p)
    checked = 0
    while checked < 30:
        f, g, h = random_poly(rng, p, 2, 3), random_poly(rng, p, 2, 3), random_poly(rng, p, 2, 2)
        if checked % 2:
            # a planted factor a^i b^j on each operand, split off before the rest
            f, g = (polys.p_mul(k, monomial(rng.randint(0, 3), rng.randint(0, 3)), p) for k in (f, g))
        fh, gh = polys.p_mul(f, h, p), polys.p_mul(g, h, p)
        if not fh or not gh:
            continue
        assert polys.p_gcd(fh, gh, p) == sympy_gcd(fh, gh, p)
        checked += 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_gcd_divides_and_div_exact_roundtrip(p):
    rng = random.Random(3000 + p)
    for _ in range(30):
        f, g = random_poly(rng, p, 2, 3), random_poly(rng, p, 2, 3)
        if not f or not g:
            continue
        d = polys.p_gcd(f, g, p)
        qf = polys.p_div_exact(f, d, p)
        qg = polys.p_div_exact(g, d, p)
        assert polys.p_mul(qf, d, p) == f
        assert polys.p_mul(qg, d, p) == g


def test_gcd_forces_reduction_example():
    # (a^2 - b^2) / (a - b) = a + b over F_3
    p = 3
    num = {(2, 0): 1, (0, 2): p - 1}
    den = {(1, 0): 1, (0, 1): p - 1}
    g = polys.p_gcd(num, den, p)
    assert polys.p_div_exact(num, g, p) != num  # the factor a - b cancels
    q = polys.p_div_exact(num, den, p)
    assert q == {(1, 0): 1, (0, 1): 1}


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
def test_frobenius_on_monomials(ea, eb):
    p = 3
    f = {(ea, eb): 2}
    assert polys.p_frobenius(f, p) == {(ea * p, eb * p): 2}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_is_pth_power(p):
    rng = random.Random(4000 + p)
    for _ in range(10):
        f = random_poly(rng, p, 2, 3)
        power = polys.p_const(1, p)
        for _ in range(p):
            power = polys.p_mul(power, f, p)
        assert polys.p_frobenius(f, p) == power


def test_format_poly_grlex_order():
    p = 5
    f = {(0, 0): 1, (1, 0): 1, (2, 1): 2, (0, 2): 3}
    assert polys.format_poly(f) == "2*a^2*b + 3*b^2 + a + 1"


def test_univariate_gcd_monic():
    p = 5
    f = [2, 2]  # 2 + 2t
    g = [4, 0, 4]  # 4 + 4t^2
    d = polys.u_gcd(f, g, p)
    assert d and d[-1] == 1


# univariate kernels on dense lists, lowest degree first, [] for zero

T = sympy.symbols("t")


def u_to_sympy(f, p):
    return sympy.Poly(list(reversed(f)) or [0], T, modulus=p)


def u_from_sympy(poly, p):
    return [int(c) % p for c in reversed(poly.all_coeffs())] if not poly.is_zero else []


def random_dense(rng, p, terms, max_deg):
    """A dense list with up to ``terms`` nonzero coefficients of degree at
    most ``max_deg``, no trailing zero."""
    f = [0] * (max_deg + 1)
    for e in rng.sample(range(max_deg + 1), min(terms, max_deg + 1)):
        f[e] = rng.randrange(p)
    while f and not f[-1]:
        f.pop()
    return f


# (terms, max degree) per operand: zero, constants, single terms, dense
# operands of a dozen coefficients (10 x 12 terms) and sparse ones
U_SHAPES = [((0, 0), (3, 4)), ((1, 0), (4, 5)), ((1, 6), (5, 7)), ((1, 3), (1, 9)),
            ((2, 5), (3, 3)), ((10, 9), (12, 11)), ((4, 14), (6, 20))]


@pytest.mark.parametrize("p", [2, 3, 5, 53])
def test_univariate_kernels_match_sympy(p):
    rng = random.Random(5000 + p)
    for (tf, df), (tg, dg) in U_SHAPES * 6:
        f, g = random_dense(rng, p, tf, df), random_dense(rng, p, tg, dg)
        for x, y in ((f, g), (g, f)):
            assert polys.u_mul(x, y, p) == u_from_sympy(u_to_sympy(x, p) * u_to_sympy(y, p), p)
            assert polys.u_gcd(x, y, p) == u_from_sympy(
                sympy.gcd(u_to_sympy(x, p), u_to_sympy(y, p)).monic(), p
            )
            if y:
                q, r = polys.u_divmod(x, y, p)
                sq, sr = sympy.div(u_to_sympy(x, p), u_to_sympy(y, p))
                assert (q, r) == (u_from_sympy(sq, p), u_from_sympy(sr, p))
                assert polys.u_div_exact(polys.u_mul(x, y, p), y, p) == x
                if r:
                    with pytest.raises(ArithmeticError):
                        polys.u_div_exact(x, y, p)
    with pytest.raises(ZeroDivisionError):
        polys.u_divmod([1], [], p)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_gcd_and_div_exact_match_sympy_at_high_a_degree(p):
    # a-degree up to 12 and up to 8 terms per factor, so the univariate
    # products and divisions see operands of a dozen coefficients
    rng = random.Random(6000 + p)
    for _ in range(20):
        f, g, h = ({(rng.randint(0, 12), rng.randint(0, 2)): rng.randrange(1, p)
                    for _ in range(rng.randint(1, 8))} for _ in range(3))
        fh, gh = polys.p_mul(f, h, p), polys.p_mul(g, h, p)
        ours = polys.p_gcd(fh, gh, p)
        assert ours == sympy_gcd(fh, gh, p)
        assert polys.p_mul(polys.p_div_exact(fh, ours, p), ours, p) == fh
        assert polys.p_div_exact(fh, h, p) == f


# the cases p_gcd settles before the primitive remainder sequence, each checked
# against sympy, and the certificate's refusals

GCD_PRIMES = [2, 3, 5, 7]


def count_sequence_runs(monkeypatch):
    runs = []
    sequence = polys._primitive_prs
    monkeypatch.setattr(polys, "_primitive_prs",
                        lambda F, G, p: runs.append(1) or sequence(F, G, p))
    return runs


def random_in_b(rng, p, deg_a, deg_b):
    """A random polynomial of b-degree exactly deg_b >= 1, with a constant
    term, so that neither a nor b divides it."""
    f = random_poly(rng, p, deg_a, 4)
    f[(rng.randint(0, deg_a), deg_b)] = rng.randrange(1, p)
    f[(0, 0)] = rng.randrange(1, p)
    return {m: c for m, c in f.items() if m[1] <= deg_b}


@pytest.mark.parametrize("p", GCD_PRIMES)
def test_gcd_with_a_single_term_operand_matches_sympy(p, monkeypatch):
    # a monomial's only prime factors are a and b: no remainder sequence runs
    rng = random.Random(7000 + p)
    runs = count_sequence_runs(monkeypatch)
    for _ in range(20):
        term = {(rng.randint(0, 4), rng.randint(0, 4)): rng.randrange(1, p)}
        g = polys.p_mul(random_in_b(rng, p, 3, rng.randint(1, 3)),
                        monomial(rng.randint(0, 4), rng.randint(0, 4)), p)
        for f, h in ((term, g), (g, term)):
            assert polys.p_gcd(f, h, p) == sympy_gcd(f, h, p)
    assert not runs


@pytest.mark.parametrize("p", GCD_PRIMES)
def test_gcd_of_coprime_primitive_parts_is_the_contents_gcd(p, monkeypatch):
    # contents in F_p[a] share u; the primitive parts F, G are coprime, so
    # the gcd is u, and one point a0 proves it with no remainder sequence
    rng = random.Random(7200 + p)
    runs = count_sequence_runs(monkeypatch)
    checked = 0
    while checked < 15:
        u = {(1, 0): 1, (0, 0): rng.randrange(1, p)}
        F, G = random_in_b(rng, p, 3, 2), random_in_b(rng, p, 3, 1)
        if sympy_gcd(F, G, p) != polys.P_ONE:
            continue
        cf, cg = (polys.p_mul(u, {(rng.randint(0, 2), 0): 1, (0, 0): 1}, p) for _ in range(2))
        f, g = polys.p_mul(F, cf, p), polys.p_mul(G, cg, p)
        assert polys.p_gcd(f, g, p) == sympy_gcd(f, g, p)
        checked += 1
    # F_2 and F_3 have few points, and a coprime pair can share a root in b
    # at each of them: 7 and 3 of these 15 pairs fall through to the
    # remainder sequence there, and none at p = 5 and 7
    assert len(runs) <= {2: 7, 3: 3}.get(p, 0)


@pytest.mark.parametrize("p", GCD_PRIMES)
def test_gcd_with_a_planted_common_factor_is_never_certified_coprime(p, monkeypatch):
    # h has b-degree at least 1, so F(a0, b) and G(a0, b) share h(a0, b)
    # of positive degree wherever lc_b(F)(a0) != 0
    rng = random.Random(7300 + p)
    answers = []
    certificate = polys._coprime_at_a_point
    monkeypatch.setattr(polys, "_coprime_at_a_point",
                        lambda F, G, q: answers.append(certificate(F, G, q)) or answers[-1])
    for _ in range(15):
        h = random_in_b(rng, p, 2, rng.randint(1, 2))
        f = polys.p_mul(random_in_b(rng, p, 2, rng.randint(1, 2)), h, p)
        g = polys.p_mul(random_in_b(rng, p, 2, rng.randint(1, 2)), h, p)
        assert polys.p_gcd(f, g, p) == sympy_gcd(f, g, p)
    assert answers and not any(answers)


@pytest.mark.parametrize("p", GCD_PRIMES)
def test_gcd_with_lc_vanishing_on_all_of_f_p_runs_the_remainder_sequence(p, monkeypatch):
    # lc_b of both operands is a multiple of a^p - a, which vanishes at every
    # a0 in F_p: no point can certify, so the remainder sequence decides.
    # Each operand and h have the coefficient 1 at some power of b, so they
    # are primitive and lc_b keeps the factor a^p - a once contents split off
    rng = random.Random(7400 + p)
    vanishing = {(p, 0): 1, (1, 0): p - 1}
    runs = count_sequence_runs(monkeypatch)
    checked = 0
    while checked < 10:
        f, g = ({**{(ea, 0): rng.randrange(1, p) for ea in range(rng.randint(1, 3))}, (0, 1): 1,
                 **polys.p_mul(vanishing, monomial(rng.randint(0, 1), 2), p)}
                for _ in range(2))
        if f == g:
            continue
        if checked % 2:
            h = {(rng.randint(0, 1), 0): rng.randrange(1, p), (0, 0): 1, (0, 1): 1}
            f, g = polys.p_mul(f, h, p), polys.p_mul(g, h, p)
        assert polys.p_gcd(f, g, p) == sympy_gcd(f, g, p)
        checked += 1
        assert len(runs) == checked


def primitive_in_b(rng, p, deg_b):
    """random_in_b with its content in F_p[a] divided out, recursive in b."""
    rec = polys._to_rec(random_in_b(rng, p, 2, deg_b))
    return polys._rec_quo_content(rec, polys._rec_content(rec, p), p)


@pytest.mark.parametrize("p", GCD_PRIMES)
def test_primitive_remainder_sequence_hands_on_primitive_remainders(p, monkeypatch):
    # primitive operands of b-degree 3-4 share a planted factor h of b-degree
    # 1 or 2 and have cofactors of b-degree at least 2, so a sequence whose
    # degrees drop by one hands on two remainders before it reaches h; each
    # G it divides by must have content 1
    rng = random.Random(7600 + p)
    handed = []
    prem = polys._prem_b
    monkeypatch.setattr(polys, "_prem_b", lambda F, G, q: handed.append(G) or prem(F, G, q))
    long_runs = 0
    for _ in range(12):
        d = rng.randint(1, 2)
        h, f1, g1 = (primitive_in_b(rng, p, k) for k in (d, 4 - d, rng.randint(2, 4 - d)))
        F, G = (polys._to_rec(polys.p_mul(polys._from_rec(k), polys._from_rec(h), p))
                for k in (f1, g1))
        handed.clear()
        H = polys._primitive_prs(F, G, p)
        assert polys._rec_content(H, p) == [1]
        assert polys.p_monic(polys._from_rec(H), p) == sympy_gcd(
            polys._from_rec(F), polys._from_rec(G), p)
        assert all(polys._rec_content(k, p) == [1] for k in handed)
        long_runs += len(handed) >= 3
    assert long_runs >= 6


def test_certificate_scan_is_bounded_by_degrees_not_p(monkeypatch):
    # a planted common factor of b-degree 1 at p = 65521: a coprime pair fails
    # at most at the zeros of lc_b(F) and Res_b(F, G), so the scan stops after
    # deg_a lc_b(F) + deg_a F * deg_b G + deg_a G * deg_b F + 1 points, each
    # evaluating both operands once, instead of trying every a0 in F_p
    p = 65521
    rng = random.Random(7500)
    calls = []
    rec_at = polys._rec_at
    monkeypatch.setattr(polys, "_rec_at", lambda rec, a0, q: calls.append(a0) or rec_at(rec, a0, q))
    for _ in range(5):
        h = random_in_b(rng, p, 2, 1)
        f = polys.p_mul(random_in_b(rng, p, 2, rng.randint(1, 2)), h, p)
        g = polys.p_mul(random_in_b(rng, p, 2, rng.randint(1, 2)), h, p)
        calls.clear()
        assert polys.p_gcd(f, g, p) == sympy_gcd(f, g, p)
        (fa, fb), (ga, gb) = (tuple(map(max, zip(*k))) for k in (f, g))
        bound = max(fa, ga) + fa * gb + ga * fb + 1
        assert calls and len(calls) <= 2 * bound
