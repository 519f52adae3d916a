"""Seeded random generators for scalars and algebra elements.

Everything takes an explicit random.Random so that the valuation
experiment, the scripts and the benchmark stay reproducible. Sampled
coefficients are kept small: the engine is exact, so size only costs time.
"""

from __future__ import annotations

from .fields import frobenius
from .linkage import solve_lambda


def random_poly_scalar(rng, field, max_degree=2, max_terms=3, nonzero=False):
    """Random polynomial in a, b as a scalar of the field."""
    p = field.prime
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            m = (rng.randint(0, max_degree), rng.randint(0, max_degree))
            c = rng.randrange(p)
            terms[m] = (terms.get(m, 0) + c) % p
        terms = {m: c for m, c in terms.items() if c}
        if terms or not nonzero:
            return field.from_terms(terms)


def random_monomial_scalar(rng, field, max_degree=2):
    """Random nonzero monomial c * a^i * b^j."""
    m = (rng.randint(0, max_degree), rng.randint(0, max_degree))
    return field.from_terms({m: rng.randrange(1, field.prime)})


def random_fx_element(rng, algebra, max_degree=1):
    """Random nonzero element of the commutative subring F[x]; coefficients
    are polynomials with exponents at most ``max_degree``."""
    p = algebra.p
    while True:
        entries = {}
        for i in range(p):
            if rng.random() < 0.6:
                c = random_poly_scalar(rng, algebra.field, max_degree=max_degree, max_terms=2)
                if not c.is_zero():
                    entries[(i, 0)] = c
        if entries:
            return algebra.from_entries(entries)


def draw_right_linked(rng, field, monomial_beta=True):
    """Random (alpha, gamma, beta) for the common-left-slot construction,
    resampling the degenerate draws where alpha + lambda^p - lambda = 0
    (split instances excluded by the division-algebra hypothesis)."""
    while True:
        alpha = random_poly_scalar(rng, field, max_degree=1)
        gamma = random_poly_scalar(rng, field, max_degree=1)
        if monomial_beta:
            beta = random_monomial_scalar(rng, field, max_degree=1)
        else:
            beta = random_poly_scalar(rng, field, max_degree=1, nonzero=True)
        lam = solve_lambda(alpha, gamma, beta)
        if alpha + frobenius(lam) != lam:
            return alpha, gamma, beta
