"""Presentation transformations and their verified witnesses."""

import random

import pytest

from palgebra import (
    FieldDescriptor,
    HypothesisFails,
    InvalidSlot,
    NotInvertible,
    RelationFails,
    SymbolAlgebra,
    SymbolPresentation,
    chain_identity,
    frobenius,
    make_algebra,
    parse_scalar,
    right_to_left,
    scale_slot_by_norm,
    solve_lambda,
    verify_lemma,
    verify_presentation,
)
from palgebra import polys, sampling
from palgebra.sampling import (
    draw_right_linked,
    random_fx_element,
    random_poly_scalar,
)

from support import copy_to, fractions_of, random_nonzero_element

RAT = {p: FieldDescriptor("rational", p) for p in (2, 3, 5)}


def algebra(p, alpha=None, beta=None):
    field = RAT[p]
    return make_algebra(
        p,
        alpha if alpha is not None else field.gen("a"),
        beta if beta is not None else field.gen("b"),
        field,
    )


# --- verify_presentation -----------------------------------------------------

def test_verify_presentation_defining_generators():
    A = algebra(2)
    w = verify_presentation(A, A.x(), A.y())
    assert w.claimed_left == A.alpha
    assert w.claimed_right == A.beta


def test_verify_presentation_chain_pair():
    A = algebra(2)
    w = verify_presentation(A, A.x() + A.y(), A.y())
    assert w.claimed_left == A.alpha + A.beta
    assert w.claimed_right == A.beta


def test_verify_presentation_rejects_bad_pair():
    A = algebra(2)
    with pytest.raises(RelationFails):
        verify_presentation(A, A.x(), A.x())


def test_verify_presentation_nilpotent_w_raises_with_witness():
    # in [0, b)_2, (x y)^2 = N(x) b = (x^2 + x) b = 0: x y is a zero divisor
    field = RAT[2]
    A = make_algebra(2, field.zero(), field.gen("b"), field)
    w = A.mul(A.x(), A.y())
    with pytest.raises(NotInvertible) as info:
        verify_presentation(A, A.x(), w)
    s = info.value.witness
    assert not s.is_zero()
    assert A.mul(s, w).is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_witnesses_are_verified_without_an_inverse(monkeypatch, p):
    # a nonzero scalar w^p proves w a unit, so no witness needs w^-1
    def refuse(*args):
        raise AssertionError("verify_presentation inverted a unit")

    monkeypatch.setattr(SymbolAlgebra, "inverse", refuse)
    monkeypatch.setattr(SymbolAlgebra, "conjugate", refuse)
    field = RAT[p]
    rng = random.Random(300 + p)
    for i in range(3):
        alpha, gamma, beta = draw_right_linked(rng, field, monomial_beta=(i % 2 == 0))
        res = right_to_left(alpha, gamma, beta, p, field)
        assert res.pres_A.left == res.pres_Aprime.left == res.common_left
    A = algebra(p)
    assert chain_identity(A)[0].left == A.alpha + A.beta
    # N(a + x) = a^p - a + alpha = a^p
    scaled, _, _ = scale_slot_by_norm(A, A.scalar(field.gen("a")) + A.x())
    assert scaled.right == field.gen("a") ** p * A.beta


# --- chain identity ------------------------------------------------------------

def test_chain_identity_basic():
    pres, witness = chain_identity(algebra(2))
    assert pres.left == RAT[2].gen("a") + RAT[2].gen("b")
    assert pres.right == RAT[2].gen("b")
    assert str(witness.z) == "y + x"


def test_chain_identity_zero_left_slot():
    field = RAT[3]
    pres, _ = chain_identity(algebra(3, alpha=field.zero()))
    assert pres.left == field.gen("b")


def test_chain_identity_cycles_after_p_steps():
    p = 3
    field = RAT[p]
    A = algebra(p)
    seen = [A.alpha]
    for _ in range(p):
        pres, _ = chain_identity(A)
        seen.append(pres.left)
        A = make_algebra(p, pres.left, pres.right, field)
    a, b = field.gen("a"), field.gen("b")
    assert seen[1] == a + b
    assert seen[2] == a + 2 * b
    assert seen[3] == a  # adding beta p times adds zero
    assert pres.right == b


# --- norm slot scaling ------------------------------------------------------------

def test_scale_slot_by_x():
    A = algebra(2)
    new_pres, witness, norm = scale_slot_by_norm(A, A.x())
    field = RAT[2]
    assert norm == field.gen("a")  # N(x) = x (x + 1) = x^2 + x = alpha
    assert new_pres.right == field.gen("a") * field.gen("b")
    assert new_pres.left == A.alpha
    assert witness.claimed_right == new_pres.right


def test_scale_slot_by_one_is_identity():
    A = algebra(5)
    new_pres, _, _ = scale_slot_by_norm(A, A.one())
    assert new_pres == SymbolPresentation(A.alpha, A.beta, 5, RAT[5])


def test_scale_slot_by_lambda_plus_x():
    # N(a + x) = a^2 - a + a = a^2 at p = 2
    A = algebra(2)
    field = RAT[2]
    u = A.scalar(field.gen("a")) + A.x()
    new_pres, witness, _ = scale_slot_by_norm(A, u)
    assert new_pres.right == parse_scalar("a^2*b", field)
    # cross-check via the engine power
    w = A.mul(u, A.y())
    assert A.power(w, 2) == A.scalar(new_pres.right)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_scale_slot_composes(p):
    A1 = algebra(p)
    rng = random.Random(500 + p)
    for _ in range(4):
        u = random_fx_element(rng, A1)
        if A1.norm_Fx(u).is_zero():
            continue
        n_u = A1.norm_Fx(u)
        mid, _, _ = scale_slot_by_norm(A1, u)
        A2 = make_algebra(p, mid.left, mid.right, RAT[p])
        v = random_fx_element(rng, A2)
        if A2.norm_Fx(v).is_zero():
            continue
        n_v = A2.norm_Fx(v)
        out, _, _ = scale_slot_by_norm(A2, v)
        assert out.right == n_v * n_u * A1.beta


# --- the additivity identity ---------------------------------------------------------

def test_verify_lemma_p3_y_squared():
    A = algebra(3)
    rep = verify_lemma(A, A.x(), A.power(A.y(), 2))
    assert rep.k == 2 and rep.m == 2
    field = RAT[3]
    assert rep.lhs == A.scalar(field.gen("a") + field.gen("b") ** 2)
    assert rep.ok


def test_verify_lemma_p2_basic():
    A = algebra(2)
    rep = verify_lemma(A, A.x(), A.y())
    assert rep.k == 1
    field = RAT[2]
    assert rep.lhs == A.scalar(field.gen("a") + field.gen("b"))
    assert rep.ok


def test_verify_lemma_hypothesis_fails():
    A = algebra(2)
    with pytest.raises(HypothesisFails):
        verify_lemma(A, A.x(), A.x())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_verify_lemma_structured_family(p):
    A = algebra(p)
    rng = random.Random(700 + p)
    checked = 0
    while checked < 2 * (p - 1):
        u = random_fx_element(rng, A)
        if A.norm_Fx(u).is_zero():
            continue
        k = 1 + checked % (p - 1)
        y_el = A.mul(u, A.power(A.y(), k))
        rep = verify_lemma(A, A.x(), y_el)
        assert rep.k == k
        assert rep.ok
        checked += 1


def test_verify_lemma_family_conjugates_with_few_gcds(monkeypatch):
    # the first 20 draws of acceptance criterion 3 at p = 5, k = 1..4: the
    # shift t^m (x+t) t^-m is (t^m (x+t) tail) / Nrd(t^m), and its polynomial
    # coefficients cancel Nrd(t^m) by exact division.  This makes 81 p_gcd
    # calls and 1 remainder sequence; dividing tail by Nrd(t^m) before the
    # product made 682 and 473
    p = 5
    A = algebra(p)
    rng = random.Random(303 + p)
    units = []
    while len(units) < 20:
        u = random_fx_element(rng, A)
        if not A.norm_Fx(u).is_zero():
            units.append(u)
    calls, runs = [], []
    gcd, sequence = polys.p_gcd, polys._primitive_prs
    monkeypatch.setattr(polys, "p_gcd", lambda f, g, q: calls.append(1) or gcd(f, g, q))
    monkeypatch.setattr(polys, "_primitive_prs", lambda F, G, q: runs.append(1) or sequence(F, G, q))
    for u in units:
        for k in range(1, p):
            assert verify_lemma(A, A.x(), A.mul(u, A.power(A.y(), k))).ok
    assert len(calls) <= 100
    assert len(runs) <= 2


# --- lambda and the main construction --------------------------------------------------

def test_solve_lambda_examples():
    field = RAT[2]
    a, b = field.gen("a"), field.gen("b")
    assert solve_lambda(a, a, b) == a
    assert solve_lambda(a, a + a * b, b).is_zero()
    gamma = parse_scalar("a*b + 1", field)
    assert solve_lambda(field.zero(), gamma, b) == -gamma / b
    with pytest.raises(InvalidSlot):
        solve_lambda(a, a, field.zero())


def test_solve_lambda_compares_laurent_scalars_on_certified_terms():
    field = FieldDescriptor("laurent", 3, 8)
    alpha, a, b = parse_scalar("1/(1+a)", field), field.gen("a"), field.gen("b")
    lam = solve_lambda(alpha, a, b)
    lhs = alpha + b * (alpha - lam)
    # once a + O(a^8) against a, equal only on certified terms; now exactly a
    assert lhs == a
    assert (lhs - a).is_zero()


def test_right_to_left_p2_lambda_a():
    field = RAT[2]
    a, b = field.gen("a"), field.gen("b")
    res = right_to_left(a, a, b, 2, field)
    assert res.lam == a
    assert res.common_left == a + a ** 2 * b
    assert res.pres_A.right == parse_scalar("a^2*b", field)
    assert res.pres_Aprime.right == b
    assert res.pres_A.left == res.pres_Aprime.left == res.common_left


def test_right_to_left_p2_lambda_zero():
    field = RAT[2]
    a, b = field.gen("a"), field.gen("b")
    res = right_to_left(a, a + a * b, b, 2, field)
    assert res.lam.is_zero()
    assert res.common_left == a + a * b
    assert res.pres_A.right == a * b
    # w = x y with w^2 = N(x) b = a b, and z = x + w
    A = make_algebra(2, a, b, field)
    assert res.witness_A.w == A.mul(A.x(), A.y())
    assert res.witness_A.z == A.x() + res.witness_A.w
    assert A.power(A.mul(A.x(), A.y()), 2) == A.scalar(a * b)


def test_right_to_left_p3():
    field = RAT[3]
    a, b = field.gen("a"), field.gen("b")
    res = right_to_left(a, a, b, 3, field)
    assert res.lam == a
    assert res.common_left == a + a ** 3 * b


def test_right_to_left_degenerate_raises():
    field = RAT[5]
    with pytest.raises(InvalidSlot):
        right_to_left(field.zero(), field.zero(), field.from_int(2), 5, field)


def test_draw_right_linked_resamples_split_draws(monkeypatch):
    attempts = []

    def counting_solve_lambda(alpha, gamma, beta):
        attempts.append((alpha, gamma, beta))
        return solve_lambda(alpha, gamma, beta)

    monkeypatch.setattr(sampling, "solve_lambda", counting_solve_lambda)
    draws = 0
    for p in (2, 3):
        rng = random.Random(70 + p)
        for i in range(40):
            alpha, gamma, beta = draw_right_linked(rng, RAT[p], monomial_beta=(i % 2 == 0))
            lam = solve_lambda(alpha, gamma, beta)
            assert not (alpha + frobenius(lam) - lam).is_zero()
            draws += 1
    # split draws were met and resampled, never returned
    assert len(attempts) > draws


@pytest.mark.parametrize("p", [2, 3, 5])
def test_right_to_left_random_pairs(p):
    field = RAT[p]
    rng = random.Random(900 + p)
    n = 4 if p == 5 else 8
    for i in range(n):
        alpha, gamma, beta = draw_right_linked(rng, field, monomial_beta=(i % 2 == 0))
        res = right_to_left(alpha, gamma, beta, p, field)
        # the two presentations share the left slot exactly
        assert res.pres_A.left == res.pres_Aprime.left == res.common_left
        # witnesses verified independently
        A = make_algebra(p, alpha, beta, field)
        wit = verify_presentation(A, res.witness_A.z, res.witness_A.w)
        assert wit.claimed_left == res.common_left
        Ap = make_algebra(p, gamma, beta, field)
        witp = verify_presentation(Ap, res.witness_Aprime.z, res.witness_Aprime.w)
        assert witp.claimed_left == res.common_left
        assert witp.claimed_right == beta


@pytest.mark.parametrize("p", [2, 3, 5])
def test_bookkeeping_identity_pure_fields(p):
    # alpha + (alpha + lambda^p - lambda) beta = (alpha + beta(alpha - lambda)) + lambda^p beta
    field = RAT[p]
    rng = random.Random(41 + p)
    for _ in range(25):
        lam = random_poly_scalar(rng, field)
        alpha = random_poly_scalar(rng, field)
        beta = random_poly_scalar(rng, field)
        lhs = alpha + (alpha + frobenius(lam) - lam) * beta
        rhs = (alpha + beta * (alpha - lam)) + frobenius(lam) * beta
        assert lhs == rhs


def test_presentation_requires_nonzero_right_slot():
    field = RAT[2]
    with pytest.raises(InvalidSlot):
        SymbolPresentation(field.gen("a"), field.zero(), 2, field)


def test_result_serialization_round_trip():
    import json

    field = RAT[2]
    a, b = field.gen("a"), field.gen("b")
    res = right_to_left(a, a + a * b, b, 2, field)
    payload = res.to_dict()
    text = json.dumps(payload)
    again = json.loads(text)
    assert again["lambda"] == "0"
    assert again["common_left"] == str(res.common_left)
    assert set(again["witness_A"]) == {"z", "w", "left", "right"}


# --- the Laurent field against the rational field ---------------------------

SWEEP_SLOTS = (("a", "b"), ("1", "a"), ("a/b", "1/(a+b)"), ("1/(1+a)", "b"))


def _sweep_calls(p, rng, R):
    """name -> f(A, into) for the calls the sweep compares, on inputs drawn
    over the rational algebra R and moved into A by into."""
    u = random_fx_element(rng, R)
    t = R.mul(u, R.power(R.y(), rng.randrange(1, p)))
    g = random_nonzero_element(rng, R, 0.3, sample=lambda r: random_poly_scalar(r, R.field, 1, 2))
    gamma = random_poly_scalar(rng, R.field, max_degree=1, max_terms=2)
    return {
        "inverse": lambda A, into: A.inverse(into(t)),
        "inverse of a general element": lambda A, into: A.inverse(into(g)),
        "norm_Fx": lambda A, into: A.norm_Fx(into(u)),
        "power": lambda A, into: A.power(into(g), p + 1),
        "ad_decompose": lambda A, into: A.ad_decompose(into(g), A.x()),
        "right_to_left": lambda A, into: right_to_left(A.alpha, into(gamma), A.beta, p, A.field),
        "chain_identity": lambda A, into: chain_identity(A),
        "scale_slot_by_norm": lambda A, into: scale_slot_by_norm(A, into(u)),
        "verify_lemma": lambda A, into: verify_lemma(A, A.x(), into(t)),
    }


@pytest.mark.parametrize("p", [2, 3, 5])
def test_laurent_results_are_the_rational_results(p):
    # every Laurent scalar is a canonical fraction, so each call over
    # F_p((a))((b)) returns what it returns over F_p(a, b), scalar for
    # scalar the same (num, den); every draw here is decided
    rat, lau = RAT[p], FieldDescriptor("laurent", p, 8)
    rng = random.Random(f"laurent sweep {p}")
    for alpha, beta in SWEEP_SLOTS:
        R = make_algebra(p, parse_scalar(alpha, rat), parse_scalar(beta, rat), rat)
        L = make_algebra(p, parse_scalar(alpha, lau), parse_scalar(beta, lau), lau)

        def into_laurent(value):
            if hasattr(value, "entries"):
                return copy_to(L, value)
            return lau.from_terms(value.num, value.den)

        for _ in range(2):
            for name, call in _sweep_calls(p, rng, R).items():
                want = call(R, lambda value: value)
                got = call(L, into_laurent)
                assert fractions_of(got) == fractions_of(want), (alpha, beta, name)
