"""The degree-p symbol algebra engine.

An algebra handle represents the p^2-dimensional algebra generated over
its base field by x and y subject to

    x^p - x = alpha,    y^p = beta,    y*x*y^(-1) = x + 1,

with elements stored as maps from the basis monomials x^i y^j to their
nonzero coefficients.
Products are brought to normal form by first moving powers of y past
powers of x (y^j x^c = (x+j)^c y^j, expanded binomially), then reducing
x-degrees of p and above through x^p = x + alpha, then y-degrees through
y^p = beta.  One reduction step suffices, so every product of basis
monomials is a sum of (n0 + n1*alpha) * beta^w x^i y^j with integer
structure constants n0, n1 in F_p and w in {0, 1}.  The integer expansions
depend only on p and are shared by every algebra.  Elements and handles
are immutable.

Scalars, over F_p(a, b) and over F_p((a))((b)) alike, reach a product
only as their canonical term maps num and den, a denominator of one being
polys.P_ONE.  A product does no scalar arithmetic.  Each operand's
numerators are brought over the lcm of its denominators.  Over
den(alpha) * den(beta), a constant is n0 times one slot factor plus n1
times another, four factors built once per algebra from the slots' maps.
Each term pair's product is formed once with unreduced integer
coefficients and summed, times n0 and times n1, per output monomial and
wrap; each output sum is multiplied once by its slot factor, at most four
per output monomial, and each output coefficient is reduced mod p once,
divided once by the product of the operands' and the slots' denominators,
and built once.  Two kernels form the numerators.  _dict_products keeps
each sum as a map of integer coefficients; _packed_products packs every
numerator and slot factor into one int (Kronecker substitution,
polys.p_pack), so a term pair is one int product, a sum is an int sum and
each output numerator is unpacked once.  Packing costs more than it saves
on small products, so a product takes the packed kernel only from
PACKED_MIN_SIZE on, its size being the sum over its term pairs of the two
numerators' term counts.  A power up to t^5, or any power over slots
without denominators, multiplies numerators only: its chain
hands them on undivided, and only the result's coefficients are divided,
once each.
Canonical rational forms are unique, so the result is the same as
reducing every scalar product and partial sum.

Inverses and norms need no elimination.  One recurrence walks the reduced
characteristic polynomial of t in Horner form, each coefficient read off
the reduced trace of the product just formed (SymbolAlgebra._horner_sums).
Its last sum is a polynomial tail in t with t * tail = tail * t = Nrd(t),
a scalar: inverse returns tail / Nrd(t), and norm_Fx is Nrd on F[x].
"""

from __future__ import annotations

import functools
import math
import operator

from . import polys
from .errors import (
    InvalidPrime,
    InvalidSlot,
    NotArtinSchreier,
    NotInSubfield,
    NotInvertible,
    WitnessVerificationFailed,
    ZeroElement,
)
from .fields import _cancel

_COMB = math.comb

# the least _size, the sum over term pairs of |c1| + |c2|, for which a
# product takes the packed kernel.  On 26,166 products of exact data
# captured from the four benchmark workloads (32 rounds each, seed 3) the
# packed kernel took 4.2x the dict kernel's time at size 2-3, 1.5x at
# 16-31, 1.0x at 32-63, 0.77x at 64-127 and 0.4x from 256; any switch from
# 32 to 64 gave the least total, 0.76x of the dict kernel alone
PACKED_MIN_SIZE = 48


class SymbolAlgebra:
    """Handle for the algebra with left slot alpha and right slot beta."""

    __slots__ = ("p", "alpha", "beta", "field", "_zero", "_one", "_factors")

    def __init__(self, p, alpha, beta, field):
        if field.prime != p:
            raise InvalidPrime("field characteristic does not match p")
        if not field.owns(alpha) or not field.owns(beta):
            raise ValueError("slots must be scalars of the described field")
        if beta.is_zero():
            raise InvalidSlot("the right slot must be nonzero")
        self.p = p
        self.alpha = alpha
        self.beta = beta
        self.field = field
        self._zero = field.zero()
        self._one = field.one()
        # (n0 + n1*alpha) * beta^wrap over da * db, for slots alpha = na / da
        # and beta = nb / db, is n0 * factors[wrap][0] + n1 * factors[wrap][1]
        # with the factors da * b and na * b, b = nb if wrap else db; na is
        # {} when alpha is zero.  factors[0][0] is da * db
        (na, da), (nb, db) = (alpha.num, alpha.den), (beta.num, beta.den)
        self._factors = tuple((polys.p_mul(da, b, p), polys.p_mul(na, b, p)) for b in (db, nb))

    # identity of handles is by value so rebuilt algebras interoperate
    def __eq__(self, other):
        if not isinstance(other, SymbolAlgebra):
            return NotImplemented
        return (
            self.p == other.p
            and self.field == other.field
            and self.alpha == other.alpha
            and self.beta == other.beta
        )

    def __hash__(self):
        return hash((self.p, self.field))

    def __str__(self):
        return f"[{self.alpha}, {self.beta})_{self.p}"

    def __repr__(self):
        return f"SymbolAlgebra({self})"

    # element constructors ---------------------------------------------------
    def _grid(self, entries):
        """Element from a map (i, j) -> scalar with 0 <= i, j < p; zeros
        are dropped."""
        return AlgElement(self, {ij: c for ij, c in entries.items() if not c.is_zero()})

    def zero(self):
        return self._grid({})

    def one(self):
        return self._grid({(0, 0): self._one})

    def scalar(self, c):
        if isinstance(c, int):
            c = self.field.from_int(c)
        if not self.field.owns(c):
            raise ValueError("scalar does not belong to the base field")
        return self._grid({(0, 0): c})

    def x(self):
        return self._grid({(1, 0): self._one})

    def y(self):
        return self._grid({(0, 1): self._one})

    def from_entries(self, entries):
        """Element from a map (i, j) -> scalar-or-int with 0 <= i, j < p;
        a scalar the field does not own raises ValueError."""
        p, field = self.p, self.field
        entries = {ij: field.from_int(c) if isinstance(c, int) else c for ij, c in entries.items()}
        if not all(map(field.owns, entries.values())):
            raise ValueError("coefficients must be scalars of the base field")
        if not all(0 <= i < p and 0 <= j < p for i, j in entries):
            raise ValueError("monomial exponents must lie in [0, p)")
        return self._grid(entries)

    def _check(self, t):
        # the identity test spares comparing the slots of the same handle
        if t.algebra is not self and t.algebra != self:
            raise ValueError("element belongs to a different algebra")

    # normal-form multiplication ----------------------------------------------
    def mul(self, s, t):
        self._check(s)
        self._check(t)
        # multiply numerators, which needs no gcd, then divide each output
        # coefficient once by the product of the operands' and the slots'
        # denominators, over which the slot factors are written
        p = self.p
        num, den = self._mul_terms(_over_common_denominator(s.entries, p),
                                   _over_common_denominator(t.entries, p))
        from_terms = self.field.from_terms
        return AlgElement(self, {ij: from_terms(c, den) for ij, c in num.items()})

    def _mul_terms(self, s_frac, t_frac):
        """The product of two elements given as (numerators, d) from
        _over_common_denominator, in the same form: each output numerator
        over the product of the operands' denominators and the slots' one,
        factors[0][0].  The numerators come from _packed_products when the
        product's _size is at least PACKED_MIN_SIZE, else from
        _dict_products; the caller divides and builds the coefficients."""
        (s_num, s_den), (t_num, t_den) = s_frac, t_frac
        p = self.p
        kernel = _packed_products if _size(s_num, t_num) >= PACKED_MIN_SIZE else _dict_products
        num = kernel(p, s_num, t_num, self._factors)
        den = self._factors[0][0]
        for d in (s_den, t_den):
            if polys.p_is_one(den):
                den = d
            elif not polys.p_is_one(d):
                den = polys.p_mul(den, d, p)
        return num, den

    def add(self, s, t):
        self._check(s)
        self._check(t)
        acc = dict(s.entries)
        for ij, c in t.entries.items():
            acc[ij] = acc[ij] + c if ij in acc else c
        return self._grid(acc)

    def neg(self, t):
        self._check(t)
        return self._grid({ij: -c for ij, c in t.entries.items()})

    def sub(self, s, t):
        return self.add(s, self.neg(t))

    def scale(self, c, t):
        """Multiply by a central scalar, an int or a scalar of the base field."""
        self._check(t)
        if not (isinstance(c, int) or self.field.owns(c)):
            raise ValueError("scalar does not belong to the base field")
        return self._scaled(c, t)

    def _scaled(self, c, t):
        """scale without its checks, for callers that have made them."""
        if isinstance(c, int):
            c = self.field.from_int(c)
        return self._grid({ij: c * e for ij, e in t.entries.items()})

    def power(self, t, n):
        self._check(t)
        if n < 0:
            raise ValueError("negative powers go through inverse")
        # numerators over one denominator, divided at the end.  Each product
        # carries the slots' denominators once more, so past t^5 over slots
        # with denominators every product divides instead
        if not n or n > 5 and not polys.p_is_one(self._factors[0][0]):
            return polys.power(t, n, self.one(), self.mul)
        # n >= 1 here, so the chain never reads an identity
        frac = _over_common_denominator(t.entries, self.p)
        num, den = polys.power(frac, n, None, self._mul_terms)
        from_terms = self.field.from_terms
        return AlgElement(self, {ij: from_terms(c, den) for ij, c in num.items()})

    def commutator(self, s, t):
        return self.sub(self.mul(s, t), self.mul(t, s))

    def certified_equal(self, s, t):
        """Exact equality of two elements of this algebra: every coefficient
        is in canonical form, so equal elements have equal entries maps."""
        self._check(s)
        self._check(t)
        return s.entries == t.entries

    # the reduced characteristic polynomial, in Horner form ------------------
    def _horner_sums(self, t):
        """The Horner sums h_0 .. h_(p-1) of t's reduced characteristic
        polynomial T^p + s_1 T^(p-1) + ... + s_p, s_k = (-1)^k e_k, and
        h_(p-1) * t.  Here h_0 = 1 and h_k = h_(k-1) * t + s_k, where
        Newton's identities give s_k = -Trd(h_(k-1) * t) / k with
        Trd(v) = -coeff(x^(p-1) y^0), dividing only by k < p in F_p; a
        zero s_k is not added.  By Cayley-Hamilton h_(p-1) * t is the
        scalar -s_p = Nrd(t).  Costs p - 1 products, each on the right."""
        p, from_int = self.p, self.field.from_int
        sums = [self.one()]
        prod = t
        for k in range(1, p):
            s = prod.coeff(p - 1, 0) * from_int(polys.inv_mod(k, p))
            h = prod if s.is_zero() else self.add(prod, self.scalar(s))
            sums.append(h)
            prod = self.mul(h, t)
        return sums, prod

    def inverse(self, t):
        """Two-sided inverse, raising NotInvertible with a nonzero witness s
        (s*t = 0, a zero divisor) when none exists.

        The Horner sums of the reduced characteristic polynomial
        (_horner_sums) give tail = h_(p-1) with tail * t = Nrd(t), so c =
        the constant term of t * tail and the inverse is tail / c.  An
        inverse costs the p - 1 products of the recurrence, t * tail and
        one scalar inverse.  It is checked on both sides: t * tail must
        have no coefficient but c and equal tail * t.  With c = 0
        the witness is the last nonzero h_m, verified by multiplication.  A
        scalar t takes the scalar inverse: the recurrence would form every
        power of it up to t^p, unbounded work at a large p.
        """
        self._check(t)
        if t.is_zero():
            raise NotInvertible("element is a zero divisor", witness=self.one())
        if set(t.entries) == {(0, 0)}:
            return self._grid({(0, 0): self._one / t.entries[(0, 0)]})
        sums, right = self._horner_sums(t)
        tail = sums[-1]
        prod = self.mul(t, tail)
        c = prod.is_scalar()
        if c is None or right.entries != prod.entries:
            raise WitnessVerificationFailed("t * tail is not a scalar on both sides")
        if c.is_zero():
            witness = next(h for h in reversed(sums) if not h.is_zero())
            if not self.mul(witness, t).is_zero():
                raise WitnessVerificationFailed("bad zero-divisor witness")
            raise NotInvertible("element is a zero divisor", witness=witness)
        return self._scaled(self._one / c, tail)

    def conjugate(self, u, t):
        """u * t * u^(-1)."""
        return self.mul(self.mul(u, t), self.inverse(u))

    # element predicates -------------------------------------------------------
    def is_artin_schreier(self, t):
        """The scalar t^p - t when t is Artin-Schreier and not central, else None."""
        self._check(t)
        if t.is_scalar() is not None:
            return None
        d = self.sub(self.power(t, self.p), t)
        return d.is_scalar()

    def is_p_central(self, t):
        """The scalar t^p when t is p-central and not central, else None."""
        self._check(t)
        if t.is_scalar() is not None:
            return None
        return self.power(t, self.p).is_scalar()

    # the commutative subring F[x] ----------------------------------------------
    def _require_fx(self, u):
        self._check(u)
        for _, j in u.entries:
            if j != 0:
                raise NotInSubfield("element involves y")

    def norm_Fx(self, u):
        """The norm of u from F[x] to the base field, the product of the p
        shifts u(x + i): on F[x] it is the reduced norm, read as the
        constant term of h_(p-1)(u) * u (_horner_sums), which must be a
        scalar."""
        self._require_fx(u)
        if u.is_zero():
            raise ZeroElement("the norm of zero is not defined")
        c = self._horner_sums(u)[1].is_scalar()
        if c is None:
            raise WitnessVerificationFailed("norm did not land in the base field")
        return c

    # eigendecomposition for the inner derivation by an Artin-Schreier element --
    def ad_decompose(self, t, x_el):
        """Split t into the p eigencomponents of v -> v*x_el - x_el*v.

        Component i satisfies t_i x_el - x_el t_i = i t_i and the components
        sum back to t; both facts are consequences of x_el^p - x_el being
        central, which is what makes the operator satisfy ad^p = ad.  The
        projector onto component i is 1 - (ad - i)^(p-1), expanded in powers
        of ad with coefficients in F_p.
        """
        self._check(t)
        if self.is_artin_schreier(x_el) is None:
            raise NotArtinSchreier("the reference element must be Artin-Schreier")
        p = self.p
        iterates = [t]
        for _ in range(p - 1):
            iterates.append(self.commutator(iterates[-1], x_el))
        parts = []
        for i in range(p):
            part = self.zero()
            for m in range(p):
                # ad^m has C(p-1, m) (-i)^(p-1-m) = i^(p-1-m) in (ad - i)^(p-1),
                # as C(p-1, m) = (-1)^m mod p for every prime, p = 2 included
                c = ((m == 0) - pow(i, p - 1 - m, p)) % p
                if c:
                    part = self.add(part, self._scaled(c, iterates[m]))
            parts.append(part)
        return AdComponents(parts)


class AlgElement:
    """Element of a symbol algebra, immutable: ``entries`` maps (i, j) to
    the coefficient of x^i y^j.  Zero coefficients are never stored."""

    __slots__ = ("algebra", "entries")

    def __init__(self, algebra, entries):
        self.algebra = algebra
        self.entries = entries

    def coeff(self, i, j):
        return self.entries.get((i, j), self.algebra._zero)

    def support(self):
        """The stored ((i, j), coefficient) pairs, row-major."""
        return sorted(self.entries.items())

    def is_zero(self):
        return not self.entries

    def is_scalar(self):
        """The coefficient of 1 when the element lies in F*1, else None."""
        return None if any(ij != (0, 0) for ij in self.entries) else self.coeff(0, 0)

    # operators -----------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, AlgElement):
            return other
        if isinstance(other, int) or self.algebra.field.owns(other):
            return self.algebra.scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.algebra.add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return self.algebra.neg(self)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.algebra.sub(self, other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.algebra.sub(other, self)

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            return self.algebra.mul(self, other)
        return self.__rmul__(other)

    def __rmul__(self, other):
        # the ownership test picks the result; scale would make it again
        if isinstance(other, int) or self.algebra.field.owns(other):
            return self.algebra._scaled(other, self)
        return NotImplemented

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.algebra.mul(self, self.algebra.inverse(other))

    def __pow__(self, n):
        return self.algebra.power(self, n)

    def __eq__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        return self.algebra == other.algebra and self.entries == other.entries

    def __hash__(self):
        return hash((self.algebra, frozenset(self.entries.items())))

    # printing ----------------------------------------------------------------
    def __str__(self):
        parts = []
        for (i, j), c in self.support():
            xy = []
            if i:
                xy.append("x" if i == 1 else f"x^{i}")
            if j:
                xy.append("y" if j == 1 else f"y^{j}")
            cs = str(c)
            if not xy:
                parts.append(f"({cs})" if c._is_sum() else cs)
                continue
            if cs == "1":
                parts.append("*".join(xy))
            elif c._is_sum():
                parts.append("*".join([f"({cs})"] + xy))
            else:
                parts.append("*".join([cs] + xy))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"AlgElement({self.algebra}, {self})"


class AdComponents(tuple):
    """Eigencomponents of an element under the inner derivation by x_el."""

    __slots__ = ()

    def total(self):
        return functools.reduce(operator.add, self)


def _over_common_denominator(entries, p):
    """(numerators, d) with each coefficient of entries the term map
    numerators[ij] over the term map d, the lcm of the coefficients'
    denominators (polys.P_ONE when none has one).  The lcm takes one gcd
    per further distinct denominator."""
    numerators, dens = {}, {}
    for ij, c in entries.items():
        numerators[ij] = c.num
        if not polys.p_is_one(c.den):
            dens[ij] = frozenset(c.den.items()), c.den
    if not dens:
        return numerators, polys.P_ONE
    common = polys.P_ONE
    cofactors = {}  # each distinct denominator, keyed by its terms -> common / it
    for key, e in dens.values():
        if key not in cofactors:
            # e / common = grow / rest in lowest terms, one gcd: the lcm grows
            # by grow and the cofactor of e is rest
            grow, rest = _cancel(e, common, p)
            if not polys.p_is_one(grow):
                common = polys.p_mul(common, grow, p)
                for f, cof in cofactors.items():
                    cofactors[f] = polys.p_mul(cof, grow, p)
            cofactors[key] = rest
    out = {}
    for ij, num in numerators.items():
        f = cofactors[dens[ij][0]] if ij in dens else common
        out[ij] = num if polys.p_is_one(f) else polys.p_mul(num, f, p)
    return out, common


def _pairs(p, s_entries, t_entries, mul):
    """(mul(c1, c2), j, wrap, expansion) for each term pair, its product
    formed once: x^i1 y^j1 * x^i2 y^j2 is the sum of (n0 + n1*alpha) *
    beta^wrap x^i y^j over the expansion's triples (i, n0, n1)."""
    for (i1, j1), c1 in s_entries.items():
        for (i2, j2), c2 in t_entries.items():
            j = j1 + j2
            wrap = j >= p
            yield mul(c1, c2), j - p if wrap else j, wrap, _x_expansion(p, i1, j1, i2)


def _size(s_num, t_num):
    """The sum over term pairs of the two numerators' term counts."""
    return len(s_num) * sum(map(len, t_num.values())) + len(t_num) * sum(map(len, s_num.values()))


def _dict_products(p, s_num, t_num, factors):
    """The output numerators of a product of numerator maps, reduced mod
    p, for the slot factors of SymbolAlgebra._factors.  Each term pair's
    product, times n0 and times n1, is summed with unreduced integer
    coefficients into two maps per (i, j, wrap), each map is multiplied
    once by its slot factor, and each output numerator is reduced once."""
    sums = {}  # (i, j, wrap) -> (n0 part, n1 part)
    for c12, j, wrap, expansion in _pairs(p, s_num, t_num, _raw_mul):
        for i, n0, n1 in expansion:
            parts = sums.get((i, j, wrap))
            if parts is None:
                parts = sums[(i, j, wrap)] = ({}, {})
            if n0:
                part = parts[0]
                for m, c in c12.items():
                    part[m] = part.get(m, 0) + n0 * c
            if n1:
                part = parts[1]
                for m, c in c12.items():
                    part[m] = part.get(m, 0) + n1 * c
    acc = {}
    for (i, j, wrap), parts in sums.items():
        out = acc.setdefault((i, j), {})
        for part, k in zip(parts, factors[wrap]):
            if part and k:
                if k == polys.P_ONE:
                    for m, c in part.items():
                        out[m] = out.get(m, 0) + c
                else:
                    polys.p_mul_into(out, part, k)
    return {ij: r for ij, c in acc.items() if (r := polys.p_reduce(c, p))}


def _packed_products(p, s_num, t_num, factors):
    """_dict_products with every map packed into one int (polys.p_pack):
    one int product per term pair, int sums per (i, j, wrap) times n0 and
    times n1, one int product per sum and slot factor, and one unpacking
    per output numerator.  Each operand packs from its own least
    exponents, the slot factors from theirs, and the slots are sized by
    the bound on an output coefficient before reduction.  That
    coefficient sums two parts n * (c1 * c2 * k)[m] per term pair, n and
    every coefficient at most p - 1, and at most min(|c1|, |c2|) * |k|
    term triples meet in (c1 * c2 * k)[m], so it is at most
    (p-1)^4 * _size * max |k|."""
    if not s_num or not t_num:
        return {}
    ks = [k for pair in factors for k in pair if k]
    boxes = [polys.p_box(maps) for maps in (s_num.values(), t_num.values(), ks)]
    stride = sum(hb - lb for _, lb, _, hb in boxes) + 1
    width = polys.slot_bytes((p - 1) ** 4 * _size(s_num, t_num) * max(map(len, ks)))
    (sa, sb, *_), (ta, tb, *_), (ka, kb, *_) = boxes
    s_packed = {ij: polys.p_pack(f, (sa, sb), stride, width) for ij, f in s_num.items()}
    t_packed = {ij: polys.p_pack(f, (ta, tb), stride, width) for ij, f in t_num.items()}
    k_packed = [[polys.p_pack(k, (ka, kb), stride, width) if k else 0 for k in pair] for pair in factors]
    sums = {}  # (j, wrap) -> {i: [n0 part, n1 part]}
    for c12, j, wrap, expansion in _pairs(p, s_packed, t_packed, operator.mul):
        row = sums.get((j, wrap))
        if row is None:
            row = sums[(j, wrap)] = {}
        for i, n0, n1 in expansion:
            parts = row.get(i)
            if parts is None:
                row[i] = [n0 * c12, n1 * c12]
            else:
                if n0:
                    parts[0] += n0 * c12
                if n1:
                    parts[1] += n1 * c12
    acc = {}
    for (j, wrap), row in sums.items():
        k0, k1 = k_packed[wrap]
        for i, (s0, s1) in row.items():
            acc[(i, j)] = acc.get((i, j), 0) + s0 * k0 + s1 * k1
    origin = (sa + ta + ka, sb + tb + kb)
    return {ij: r for ij, c in acc.items() if (r := polys.p_unpack(c, origin, stride, width, p))}


def _raw_mul(f, g):
    """f*g for term maps, with integer coefficients not reduced mod p."""
    return polys.p_mul_into({}, f, g)


# shared by every algebra and filled key by key: an eager p^3 table would
# stall a large p, and a bounded one stays small across many primes
@functools.lru_cache(maxsize=1 << 13)
def _x_expansion(p, i1, j1, i2):
    """x^i1 y^j1 x^i2 = sum((n0 + n1*alpha) x^i) y^j1 as the triples
    (i, n0, n1) with n0, n1 in F_p, not both zero, in increasing i."""
    # y^j1 x^i2 = (x + j1)^i2 y^j1, expanded binomially
    n0 = [0] * (i1 + i2 + 1)
    for k in range(i2 + 1):
        n0[i1 + k] = _COMB(i2, k) * pow(j1, i2 - k, p) % p
    n1 = [0] * min(p, i1 + i2 + 1)
    # degrees reach at most 2p - 2, so one step of x^p = x + alpha leaves
    # each of them below p
    for d in range(p, i1 + i2 + 1):
        n0[d - p + 1] += n0[d]
        n1[d - p] += n0[d]
    terms = [(i, n0[i] % p, n1[i] % p) for i in range(min(p, i1 + i2 + 1))]
    return tuple(term for term in terms if term[1] or term[2])


def make_algebra(p, alpha, beta, field):
    """Construct the symbol algebra with the given slots over the field."""
    return SymbolAlgebra(p, alpha, beta, field)
