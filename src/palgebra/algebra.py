"""The degree-p symbol algebra engine.

An algebra handle represents the p^2-dimensional algebra generated over
its base field by x and y subject to

    x^p - x = alpha,    y^p = beta,    y*x*y^(-1) = x + 1,

with elements stored as maps from the basis monomials x^i y^j to their
nonzero coefficients.
Products are brought to normal form by first moving powers of y past
powers of x (y^j x^c = (x+j)^c y^j, expanded binomially), then reducing
x-degrees of p and above through x^p = x + alpha, then y-degrees through
y^p = beta.  The expansions of all basis-monomial products are cached per
algebra; elements and handles are immutable.

Products run on numerators over one denominator: each operand is written
as an element with polynomial coefficients over the lcm of its
coefficients' denominators, the numerators are multiplied with polynomial
arithmetic alone, and each output coefficient is divided once by the
product of the two denominators.  Canonical rational forms are unique, so
the result is the same as reducing every scalar product and partial sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

_COMB = math.comb


class SymbolAlgebra:
    """Handle for the algebra with left slot alpha and right slot beta."""

    __slots__ = ("p", "alpha", "beta", "field", "_zero", "_one", "_cache")

    def __init__(self, p, alpha, beta, field):
        if not polys.is_prime(p):
            raise InvalidPrime(f"{p} is not prime")
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
        self._cache = {}

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
        """Element from a map (i, j) -> scalar; exact zeros are dropped."""
        p = self.p
        kept = {}
        for (i, j), c in entries.items():
            if not (0 <= i < p and 0 <= j < p):
                raise ValueError("monomial exponents must lie in [0, p)")
            if not c._surely_zero():
                kept[(i, j)] = c
        return AlgElement(self, kept)

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
        """Element from a map (i, j) -> scalar-or-int with 0 <= i, j < p."""
        return self._grid(
            {ij: self.field.from_int(c) if isinstance(c, int) else c for ij, c in entries.items()}
        )

    def _check(self, t):
        if t.algebra != self:
            raise ValueError("element belongs to a different algebra")

    # normal-form multiplication ----------------------------------------------
    def _basis_product(self, i1, j1, i2, j2):
        key = (i1, j1, i2, j2)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        p = self.p
        # x^i1 y^j1 x^i2 y^j2 = x^i1 (x + j1)^i2 y^(j1 + j2)
        coeffs = [self._zero] * (i1 + i2 + 1)
        for k in range(i2 + 1):
            c = (_COMB(i2, k) * pow(j1, i2 - k, p)) % p
            if c:
                coeffs[i1 + k] = self.field.from_int(c)
        # reduce x-degree with x^p = x + alpha until it is below p
        while len(coeffs) > p:
            top = coeffs.pop()
            d = len(coeffs)  # popped exponent
            e = d - p
            coeffs[e + 1] = coeffs[e + 1] + top
            coeffs[e] = coeffs[e] + top * self.alpha
        j = j1 + j2
        if j >= p:
            j -= p
            coeffs = [c * self.beta for c in coeffs]
        expansion = tuple(((e, j), c) for e, c in enumerate(coeffs) if not c._surely_zero())
        self._cache[key] = expansion
        return expansion

    def _over_common_denominator(self, t):
        """(numerators, d) with t = numerators / d: every numerator is a
        polynomial and d is the lcm of the coefficients' denominators.
        (t.entries, None) when no coefficient has a denominator."""
        entries = t.entries
        for c in entries.values():
            if c._denominator() is not None:
                break
        else:
            return entries, None
        dens = {ij: c._denominator() for ij, c in entries.items()}
        common = self._one
        cofactor = {}  # each distinct denominator e -> common / e
        for e in dens.values():
            if e is None or e in cofactor:
                continue
            # e / common = (e / g) / (common / g) for g = gcd(e, common): the
            # lcm grows by e / g and the cofactor of e is common / g
            q = e / common
            rest = q._denominator()
            grow = q if rest is None else q * rest
            common = common * grow
            for f in cofactor:
                cofactor[f] = cofactor[f] * grow
            cofactor[e] = self._one if rest is None else rest
        numerators = {}
        for ij, c in entries.items():
            e = dens[ij]
            # c * e cancels c's own denominator, which takes no gcd
            numerators[ij] = c * common if e is None else c * e * cofactor[e]
        return numerators, common

    def mul(self, s, t):
        self._check(s)
        self._check(t)
        # multiply numerators, which needs no gcd, then divide each output
        # coefficient once by the product of the two denominators
        s_num, s_den = self._over_common_denominator(s)
        t_num, t_den = self._over_common_denominator(t)
        acc = {}
        for (i1, j1), c1 in s_num.items():
            for (i2, j2), c2 in t_num.items():
                c12 = c1 * c2
                for ij, k in self._basis_product(i1, j1, i2, j2):
                    # a sum starts from its first term, not from an exact
                    # zero: a Laurent term keeps its own lower bounds la/lb,
                    # which are tighter than min(0, .) and still sound
                    term = c12 * k
                    acc[ij] = acc[ij] + term if ij in acc else term
        if s_den is None and t_den is None:
            return self._grid(acc)
        den = t_den if s_den is None else s_den if t_den is None else s_den * t_den
        # with rational slots a coefficient k of a basis product, and so a
        # sum, can carry a denominator of its own; the division reduces it too
        return self._grid({ij: c / den for ij, c in acc.items()})

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
        """Multiply by a central scalar."""
        if isinstance(c, int):
            c = self.field.from_int(c)
        return self._grid({ij: c * e for ij, e in t.entries.items()})

    def power(self, t, n):
        self._check(t)
        if n < 0:
            raise ValueError("negative powers go through inverse")
        return polys.power(t, n, self.one(), self.mul)

    def commutator(self, s, t):
        return self.sub(self.mul(s, t), self.mul(t, s))

    def certified_equal(self, s, t):
        """Equality up to the certification window of each coefficient.

        Strict equality for rational scalars; over Laurent fields a
        difference whose stored terms all vanish counts as equal, which is
        the right notion for verifying identities whose inputs passed
        through window-truncating operations (inversion).
        """
        return all(c._certified_zero() for c in self.sub(s, t).entries.values())

    # linear algebra over the base field --------------------------------------
    def inverse(self, t):
        """Two-sided inverse, raising NotInvertible with a nonzero witness s
        (s*t = 0, a zero divisor) when none exists.

        In a central simple algebra of degree p every element satisfies a
        monic polynomial of degree at most p over the center, so the powers
        1, t, ..., t^p are linearly dependent.  The minimal dependency is
        found by forward elimination: each power is a row, reduced against
        the earlier rows in the order they were added, each row's pivot
        being its smallest monomial.  A nonzero constant term inverts t, a
        zero constant term hands back the dependency tail as a zero-divisor
        witness.  The result is verified by multiplication on both sides.
        """
        self._check(t)
        p = self.p
        zero, one = self._zero, self._one
        basis = []  # (pivot, row, history) with row = sum(history[m] * t^m)
        powers = [self.one()]
        for k in range(p + 1):
            if k:
                powers.append(self.mul(powers[-1], t))
            row = powers[k]
            hist = [one if m == k else zero for m in range(p + 1)]
            # each basis row vanishes at the pivots of the rows before it, so
            # one pass in insertion order clears every pivot
            for piv, brow, bhist in basis:
                f = row.coeff(*piv)
                if not f._surely_zero():
                    row = self.sub(row, self.scale(f, brow))
                    hist = [a - f * b for a, b in zip(hist, bhist)]
            if row.is_zero():
                return self._resolve_dependency(t, powers, hist)
            piv = min(row.entries)
            inv = one / row.entries[piv]
            basis.append((piv, self.scale(inv, row), [inv * v for v in hist]))
        raise WitnessVerificationFailed("powers 1..t^p were independent")

    def _resolve_dependency(self, t, powers, coeffs):
        """Turn a dependency sum(coeffs[i] * t^i) = 0 into an inverse or a
        zero-divisor witness; coeffs came from a minimal dependency, so the
        tail sum is nonzero whenever the constant term vanishes."""
        tail = self.zero()
        for i in range(1, len(powers)):
            c = coeffs[i]
            if not c._surely_zero():
                tail = self.add(tail, self.scale(c, powers[i - 1]))
        c0 = coeffs[0]
        if c0._surely_zero():
            if tail.is_zero() or not self.certified_equal(self.mul(tail, t), self.zero()):
                raise WitnessVerificationFailed("bad zero-divisor witness")
            raise NotInvertible("element is a zero divisor", witness=tail)
        s = self.scale(-(self.field.one() / c0), tail)
        if not (
            self.certified_equal(self.mul(s, t), self.one())
            and self.certified_equal(self.mul(t, s), self.one())
        ):
            raise WitnessVerificationFailed("solved inverse failed the two-sided check")
        return s

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
        for (i, j), _ in u.support():
            if j != 0:
                raise NotInSubfield("element involves y")

    def shift_x(self, u, k):
        """Substitute x -> x + k in an element of F[x]."""
        self._require_fx(u)
        p = self.p
        k %= p
        if k == 0:
            return u
        entries = {}
        for (e, _), c in u.support():
            for m in range(e + 1):
                const = (_COMB(e, m) * pow(k, e - m, p)) % p
                if const:
                    cur = entries.get((m, 0), self._zero)
                    entries[(m, 0)] = cur + self.field.from_int(const) * c
        return self._grid(entries)

    def norm_Fx(self, u):
        """Product of the p shifts u(x + i), reduced to a base-field scalar."""
        self._require_fx(u)
        if u.is_zero():
            raise ZeroElement("the norm of zero is not defined")
        prod = u
        for i in range(1, self.p):
            prod = self.mul(prod, self.shift_x(u, i))
        c = prod.is_scalar()
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
        cur = t
        for _ in range(p - 1):
            cur = self.sub(self.mul(cur, x_el), self.mul(x_el, cur))
            iterates.append(cur)
        parts = []
        for i in range(p):
            part = self.zero()
            for m in range(p):
                c = ((m == 0) - _COMB(p - 1, m) * pow(-i, p - 1 - m, p)) % p
                if c:
                    part = self.add(part, self.scale(c, iterates[m]))
            parts.append(part)
        return AdComponents(tuple(parts))


class AlgElement:
    """Element of a symbol algebra, immutable: ``entries`` maps (i, j) to
    the coefficient of x^i y^j.  Exact zeros are never stored; an inexact
    Laurent coefficient with no certified terms is."""

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
        if any(ij != (0, 0) for ij in self.entries):
            return None
        return self.coeff(0, 0)

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
        if isinstance(other, int) or self.algebra.field.owns(other):
            return self.algebra.scale(other, self)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int) or self.algebra.field.owns(other):
            return self.algebra.scale(other, self)
        return NotImplemented

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.algebra.mul(self, self.algebra.inverse(other))

    def __pow__(self, n):
        return self.algebra.power(self, n)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.algebra.scalar(other)
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


@dataclass(frozen=True)
class AdComponents:
    """Eigencomponents of an element under the inner derivation by x_el."""

    parts: tuple

    def total(self):
        out = self.parts[0]
        for part in self.parts[1:]:
            out = out + part
        return out

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __len__(self):
        return len(self.parts)


def make_algebra(p, alpha, beta, field):
    """Construct the symbol algebra with the given slots over the field."""
    return SymbolAlgebra(p, alpha, beta, field)
