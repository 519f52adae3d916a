"""Shared helpers for the test suite: the source path, the samplers, the
per-coefficient product oracle, the dense inverse oracle, the shifts in
F[x], the Laurent expansion oracle, the general two-column Hermite form
and the Gauss value in Fraction arithmetic."""

import dataclasses
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

from palgebra import NotInvertible, WitnessVerificationFailed, ZeroValue, valuation
from palgebra.sampling import random_monomial_scalar, random_poly_scalar

# subprocesses run ``python -m palgebra.cli`` from here, so they import this
# checkout's package whatever PYTHONPATH says
SRC = Path(__file__).resolve().parent.parent / "src"


def random_element(rng, A, density=0.35, max_degree=1, max_terms=2, sample=None):
    """Random element: each of the p^2 basis coefficients is drawn with
    probability ``density``, from ``sample(rng)`` when given, else as a
    polynomial in a, b with exponents at most ``max_degree`` and at most
    ``max_terms`` terms.  Drawn zeros are dropped."""
    if sample is None:
        sample = lambda r: random_poly_scalar(r, A.field, max_degree=max_degree, max_terms=max_terms)
    entries = {}
    for i in range(A.p):
        for j in range(A.p):
            if rng.random() < density:
                entries[(i, j)] = sample(rng)
    return A.from_entries(entries)


def random_nonzero_element(rng, A, density=0.35, sample=None):
    """random_element, drawn again until it is nonzero."""
    while True:
        t = random_element(rng, A, density, sample=sample)
        if not t.is_zero():
            return t


def random_rational_function(rng, field, max_degree=2):
    """Random scalar with a nontrivial denominator (rational fields only)."""
    num = random_poly_scalar(rng, field, max_degree, nonzero=True)
    den = random_monomial_scalar(rng, field, max_degree=1) + random_poly_scalar(
        rng, field, max_degree=1, max_terms=1
    )
    if den.is_zero():
        den = field.one()
    return num / den


# --- reference path: products reduced term by term --------------------------
# The product as SymbolAlgebra.mul formed it before it cleared denominators
# and grouped by structure constants: every basis-monomial product is
# expanded into its own scalar coefficients, and every scalar product and
# partial sum is a reduced scalar.

def basis_product(A, i1, j1, i2, j2):
    """x^i1 y^j1 * x^i2 y^j2 in normal form, as ((i, j), coefficient) pairs."""
    p = A.p
    zero = A.field.zero()
    # x^i1 y^j1 x^i2 y^j2 = x^i1 (x + j1)^i2 y^(j1 + j2)
    coeffs = [zero] * (i1 + i2 + 1)
    for k in range(i2 + 1):
        c = (comb(i2, k) * pow(j1, i2 - k, p)) % p
        if c:
            coeffs[i1 + k] = A.field.from_int(c)
    # reduce x-degree with x^p = x + alpha until it is below p
    while len(coeffs) > p:
        top = coeffs.pop()
        e = len(coeffs) - p
        coeffs[e + 1] = coeffs[e + 1] + top
        coeffs[e] = coeffs[e] + top * A.alpha
    j = j1 + j2
    if j >= p:
        j -= p
        coeffs = [c * A.beta for c in coeffs]
    return [((e, j), c) for e, c in enumerate(coeffs) if not c.is_zero()]


def mul_reference(A, s, t):
    acc = {}
    for (i1, j1), c1 in s.entries.items():
        for (i2, j2), c2 in t.entries.items():
            c12 = c1 * c2
            for ij, k in basis_product(A, i1, j1, i2, j2):
                term = c12 * k
                acc[ij] = acc[ij] + term if ij in acc else term
    return A.from_entries(acc)


# --- reference path: dense solve over the base field -----------------------
# An independent cross-check for SymbolAlgebra.inverse: same contract,
# implemented as the p^2 x p^2 right-multiplication solve.

def inverse_dense(A, t):
    p = A.p
    n = p * p
    zero, one = A.field.zero(), A.field.one()
    # column m of M holds e_m * t; we solve M^T s = e_(0,0)
    mt = [[zero] * n for _ in range(n)]
    for m in range(n):
        i1, j1 = divmod(m, p)
        for (i2, j2), c2 in t.support():
            for (i, j), k in basis_product(A, i1, j1, i2, j2):
                r = i * p + j
                mt[r][m] = mt[r][m] + c2 * k
    rhs = [one if r == 0 else zero for r in range(n)]
    kind, vec = _solve_or_null(mt, rhs, zero, one)
    if kind == "null":
        witness = A.from_entries(
            {divmod(m, p): c for m, c in enumerate(vec) if not c.is_zero()}
        )
        raise NotInvertible("element is a zero divisor", witness=witness)
    s = A.from_entries(
        {divmod(m, p): c for m, c in enumerate(vec) if not c.is_zero()}
    )
    if not (
        A.certified_equal(A.mul(s, t), A.one())
        and A.certified_equal(A.mul(t, s), A.one())
    ):
        raise WitnessVerificationFailed("solved inverse failed the two-sided check")
    return s


def _solve_or_null(matrix, rhs, zero, one):
    """Gaussian elimination with exact pivoting by first nonzero entry.

    Returns ("solution", vec) with matrix @ vec = rhs when the matrix is
    invertible, else ("null", vec) with a nonzero kernel vector.
    """
    n = len(matrix)
    m = [row[:] + [r] for row, r in zip(matrix, rhs)]
    pivot_of_col = {}
    row = 0
    for col in range(n):
        piv = None
        for r in range(row, n):
            if not m[r][col].is_zero():
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = one / m[row][col]
        m[row] = [inv * v for v in m[row]]
        for r in range(n):
            if r != row and not m[r][col].is_zero():
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[row])]
        pivot_of_col[col] = row
        row += 1
    if row == n:
        vec = [zero] * n
        for col, r in pivot_of_col.items():
            vec[col] = m[r][n]
        return "solution", vec
    # rank-deficient: build a kernel vector from a free column
    free = next(c for c in range(n) if c not in pivot_of_col)
    vec = [zero] * n
    vec[free] = one
    for col, r in pivot_of_col.items():
        vec[col] = -m[r][free]
    return "null", vec


# --- reference path: the norm from F[x] as a product of shifts --------------
# An independent cross-check for SymbolAlgebra.norm_Fx, which reads the norm
# off the reduced characteristic polynomial: N(u) is the product of the p
# Galois conjugates u(x + i), each expanded binomially.

def shift_x(A, u, k):
    """u(x + k) for an element u of F[x]; y^k x^e = (x + k)^e y^k with
    e < p, so no x^p wraps to alpha."""
    p = A.p
    entries = {}
    for (e, j), c in u.support():
        assert j == 0, "u must lie in F[x]"
        for m in range(e + 1):
            const = comb(e, m) * pow(k, e - m, p) % p
            if const:
                cur = entries.get((m, 0), A.field.zero())
                entries[(m, 0)] = cur + A.field.from_int(const) * c
    return A.from_entries(entries)


def shifts_product(A, u, first=0):
    """The product of the shifts u(x + i) for i = first .. p-1, in order."""
    prod = A.one()
    for i in range(first, A.p):
        prod = A.mul(prod, shift_x(A, u, i))
    return prod


# --- reference path: Laurent expansion of a rational function ----------------
# A cross-check for the terms LaurentScalar prints (fields._expansion): the
# terms of num/den in F_p((a))((b)) solved one by one from den * q = num,
# b-level by b-level and upward in a inside each level, over a range of
# a-exponents at every level rather than over the terms a level holds.

def laurent_expansion(c, ta, tb):
    """The terms of the rational scalar c with ea < ta and eb < tb."""
    p = c.p
    num, den = c.num, c.den
    j0 = min(eb for _, eb in den)
    k0 = min(ea for ea, eb in den if eb == j0)
    c0_inv = pow(den[(k0, j0)], -1, p)
    rest = [(da - k0, db - j0, d) for (da, db), d in den.items() if (da, db) != (k0, j0)]
    # a term of den one b-level up and drop a-levels down ties q at (e, f)
    # to q at (e + drop, f - 1): q has no term below low - f * drop at level
    # f0 + f, and level f needs its terms up to ta + (tb - 1 - f) * drop
    drop = max([0] + [-da for da, db, _ in rest if db])
    low = min(ea for ea, _ in num) - k0
    f0 = min(eb for _, eb in num) - j0
    q = {}
    for f in range(f0, tb):
        for e in range(low - (f - f0) * drop, ta + (tb - 1 - f) * drop):
            s = num.get((e + k0, f + j0), 0)
            for da, db, d in rest:
                s -= d * q.get((e - da, f - db), 0)
            if s % p:
                q[(e, f)] = s * c0_inv % p
    return {m: v for m, v in q.items() if m[0] < ta}


def laurent_coefficient(c, ea, eb):
    """The coefficient at a^ea b^eb of the scalar c read in F_p((a))((b)),
    an int in 0..p-1."""
    return laurent_expansion(c, ea + 1, eb + 1).get((ea, eb), 0)


def hermite_2col(rows):
    """Row Hermite normal form of an integer matrix with two columns and
    rank 2, by Euclid on the first column: the two basis rows
    [(d1, v), (0, d2)] with d1, d2 > 0 and 0 <= v < d2."""
    rows = [r for r in rows if r != (0, 0)]
    while True:
        nonzero_first = [r for r in rows if r[0] != 0]
        if len(nonzero_first) <= 1:
            break
        nonzero_first.sort(key=lambda r: abs(r[0]))
        (u0, v0), rest = nonzero_first[0], nonzero_first[1:]
        new_rows = [r for r in rows if r[0] == 0] + [(u0, v0)]
        for u, v in rest:
            q = u // u0
            new_rows.append((u - q * u0, v - q * v0))
        rows = [r for r in new_rows if r != (0, 0)]
    first = next(((u, v) for u, v in rows if u != 0), None)
    seconds = [v for u, v in rows if u == 0 and v != 0]
    if first is None or not seconds:
        raise ValueError("the rows span a lattice of rank below 2")
    d2 = gcd(*seconds)
    d1, v1 = first
    if d1 < 0:
        d1, v1 = -d1, -v1
    return [(d1, v1 % d2), (0, d2)]


def gauss_value_reference(va, t):
    """ValuedAlgebra.gauss_value as it was computed on Values: each stored
    coefficient's valuation plus j*v(y), v(y) = valuation(beta)/p, added
    and compared as Fractions."""
    A = va.algebra
    A._check(t)
    v_y = valuation(A.beta) * Fraction(1, A.p)
    best = None
    for (_, j), c in t.support():
        v = valuation(c) + v_y * j
        if best is None or v < best:
            best = v
    if best is None:
        raise ZeroValue("the zero element has no value")
    return best


# --- comparing the two fields ----------------------------------------------
# A Laurent scalar and a rational one are equal values when they are the
# same canonical fraction.

def fractions_of(value):
    """value with each scalar read as its (num, den): an element as the
    map (i, j) -> (num, den) of its coefficients, a tuple or list item by
    item, a dataclass such as a witness or a report field by field but its
    base field, and anything else as it is."""
    if hasattr(value, "num"):
        return value.num, value.den
    if hasattr(value, "entries"):
        return {ij: fractions_of(c) for ij, c in value.entries.items()}
    if dataclasses.is_dataclass(value):
        return {f.name: fractions_of(getattr(value, f.name))
                for f in dataclasses.fields(value) if f.name != "field"}
    if isinstance(value, (tuple, list)):
        return [fractions_of(v) for v in value]
    return value


def copy_to(A, t):
    """The element t of another algebra over the same prime as an element
    of A, coefficient by coefficient as the same fractions."""
    return A.from_entries({ij: A.field.from_terms(c.num, c.den) for ij, c in t.entries.items()})
