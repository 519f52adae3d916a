"""Acceptance suite: eight criteria, each a single test printing its own
pass line, all at exact (zero) tolerance.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines).
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from palgebra import (
    FieldDescriptor,
    NotInvertible,
    ValuedAlgebra,
    counterexample_check,
    frobenius,
    make_algebra,
    right_to_left,
    verify_lemma,
)
from palgebra.sampling import (
    draw_right_linked,
    random_fx_element,
    random_poly_scalar,
)

from support import SRC, random_element

PRIMES = (2, 3, 5)
GOLDENS = Path(__file__).parent / "goldens"


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_relations_and_associativity():
    """Defining relations in 100 random algebras per p; associativity on
    10^3 random triples per p."""
    for p in PRIMES:
        field = FieldDescriptor("rational", p)
        rng = random.Random(101 + p)
        algebras = []
        for _ in range(100):
            alpha = random_poly_scalar(rng, field, max_degree=1)
            beta = random_poly_scalar(rng, field, max_degree=1, nonzero=True)
            A = make_algebra(p, alpha, beta, field)
            algebras.append(A)
            x, y = A.x(), A.y()
            assert A.power(x, p) == x + A.scalar(alpha)
            assert A.power(y, p) == A.scalar(beta)
            assert A.conjugate(y, x) == x + A.one()
        triples = 0
        while triples < 1000:
            A = algebras[triples % 100]
            s = random_element(rng, A, density=0.3, max_terms=1)
            t = random_element(rng, A, density=0.3, max_terms=1)
            u = random_element(rng, A, density=0.3, max_terms=1)
            assert A.mul(A.mul(s, t), u) == A.mul(s, A.mul(t, u))
            triples += 1
    _report("1 (relations + associativity)")


def test_criterion_2_eigendecomposition():
    """ad_decompose on 100 random elements per p: reconstruction,
    eigen-relations, and idempotent re-decomposition."""
    for p in PRIMES:
        field = FieldDescriptor("rational", p)
        A = make_algebra(p, field.gen("a"), field.gen("b"), field)
        rng = random.Random(202 + p)
        x = A.x()
        for _ in range(100):
            t = random_element(rng, A)
            comps = A.ad_decompose(t, x)
            assert comps.total() == t
            for i, part in enumerate(comps):
                assert A.commutator(part, x) == A.scale(i, part)
                again = A.ad_decompose(part, x)
                for j, repart in enumerate(again):
                    assert repart == (part if j == i else A.zero())
    _report("2 (eigendecomposition unique and exact)")


def test_criterion_3_additivity_identity_family():
    """Both sides of (x+y)^p - (x+y) = (x^p - x) + y^p agree for the family
    (x, u*y^k) over 100 random u and every k in 1..p-1."""
    for p in PRIMES:
        field = FieldDescriptor("rational", p)
        A = make_algebra(p, field.gen("a"), field.gen("b"), field)
        rng = random.Random(303 + p)
        drawn = 0
        while drawn < 100:
            u = random_fx_element(rng, A)
            if A.norm_Fx(u).is_zero():
                continue
            drawn += 1
            for k in range(1, p):
                y_el = A.mul(u, A.power(A.y(), k))
                rep = verify_lemma(A, A.x(), y_el)
                assert rep.k == k
                assert rep.sides_agree
                assert rep.shift_conjugation_ok
    _report("3 (additivity identity on the structured family)")


def test_criterion_4_common_left_slot():
    """100 random right-linked pairs per p: every witness relation and the
    scalar bookkeeping identity hold exactly."""
    for p in PRIMES:
        field = FieldDescriptor("rational", p)
        rng = random.Random(404 + p)
        for i in range(100):
            alpha, gamma, beta = draw_right_linked(rng, field, monomial_beta=(i % 4 != 0))
            res = right_to_left(alpha, gamma, beta, p, field)
            lam = res.lam
            delta = gamma + frobenius(lam) * beta
            norm_slot = (alpha + frobenius(lam) - lam) * beta
            assert res.common_left == delta
            # relations in A = [alpha, beta)
            A = make_algebra(p, alpha, beta, field)
            z, w = res.witness_A.z, res.witness_A.w
            assert A.sub(A.power(z, p), z) == A.scalar(delta)
            assert A.power(w, p) == A.scalar(norm_slot)
            assert A.conjugate(w, z) == z + A.one()
            # relations in A' = [gamma, beta)
            Ap = make_algebra(p, gamma, beta, field)
            zp, wp = res.witness_Aprime.z, res.witness_Aprime.w
            assert wp == Ap.y()
            assert Ap.sub(Ap.power(zp, p), zp) == Ap.scalar(delta)
            assert Ap.conjugate(wp, zp) == zp + Ap.one()
            # the scalar identity, purely in the field
            assert delta == alpha + norm_slot
            # shared left slot
            assert res.pres_A.left == res.pres_Aprime.left == delta
    _report("4 (right linked implies left linked, witnessed)")


def test_criterion_5_norm_identity():
    """(u*y)^p = N(u)*beta via two independent code paths, 100 u per p."""
    for p in PRIMES:
        field = FieldDescriptor("rational", p)
        A = make_algebra(p, field.gen("a"), field.gen("b"), field)
        rng = random.Random(505 + p)
        for _ in range(100):
            u = random_fx_element(rng, A)
            lhs = A.power(A.mul(u, A.y()), p)
            rhs = A.scalar(A.norm_Fx(u) * A.beta)
            assert lhs == rhs
    _report("5 (norm identity, two code paths)")


def test_criterion_6_counterexample():
    """Value groups of [1,a) and [1,b) at window 8; coordinate residues of
    v((u*y)^p) equal 1 mod p on 100 samples; multiplicativity on 200 pairs."""
    for p in PRIMES:
        rep = counterexample_check(p, precision=8, samples=50, seed=606 + p)
        assert rep.value_group_a == f"(1/{p})Z x Z"
        assert rep.value_group_b == f"Z x (1/{p})Z"
        assert rep.total_checks == 100
        assert rep.checks_passed == 100
        for record in rep.records:
            assert record.coordinate_residue == 1
        assert rep.lattices_always_distinct
        # multiplicativity of the Gauss value on 200 certified pairs
        field = FieldDescriptor("laurent", p, 8)
        A = make_algebra(p, field.one(), field.gen("a"), field)
        va = ValuedAlgebra(A)
        rng = random.Random(707 + p)
        pairs = 0
        while pairs < 200:
            s = random_element(rng, A, density=0.3)
            t = random_element(rng, A, density=0.3)
            if s.is_zero() or t.is_zero():
                continue
            assert va.gauss_value(A.mul(s, t)) == va.gauss_value(s) + va.gauss_value(t)
            pairs += 1
    _report("6 (two algebras share no inseparable subfield: family evidence)")


def test_criterion_7_split_detection():
    """In [0, b) at p = 2, inverting x yields a zero-divisor witness."""
    field = FieldDescriptor("rational", 2)
    A = make_algebra(2, field.zero(), field.gen("b"), field)
    with pytest.raises(NotInvertible) as exc:
        A.inverse(A.x())
    s = exc.value.witness
    assert not s.is_zero()
    assert A.mul(s, A.x()).is_zero()
    _report("7 (split instance detected by zero-divisor witness)")


def test_criterion_8_cli_goldens():
    """The three documented command transcripts are byte-identical."""
    cases = [
        ("link_p2.txt",
         ["link", "-p", "2", "--alpha", "a", "--gamma", "a+a*b", "--beta", "b"]),
        ("verify_lemma_p3.txt",
         ["verify-lemma", "-p", "3", "--x", "x", "--t", "y^2", "--alpha", "a", "--beta", "b"]),
        ("counterexample_p2.txt",
         ["counterexample", "-p", "2", "--precision", "6", "--samples", "50", "--seed", "7"]),
    ]
    for fname, argv in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "palgebra.cli", *argv],
            capture_output=True,
            text=True,
            cwd=SRC,
        )
        assert proc.returncode == 0
        assert proc.stdout.encode() == (GOLDENS / fname).read_bytes()
    _report("8 (CLI transcripts byte-identical)")
