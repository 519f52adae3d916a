"""Exact scalars: rational functions in a and b over F_p, read in F_p(a, b)
or in the bi-Laurent field F_p((a))((b)), and rank-2 values.

Every scalar is immutable after construction and all operations are pure.
Scalars are kept in canonical reduced form (coprime numerator and
denominator, denominator monic under graded lex order), so equality of
representations is equality of functions.

Every value the library builds in F_p((a))((b)) is a rational function of
a and b, so a LaurentScalar is a RatFunc-form fraction read as a series, b
outermost, with RatFunc's arithmetic: every answer is exact.  Its rank-2
valuation is exact too, the b-first least exponent of the numerator minus
that of the denominator.  A Laurent scalar's precision only sets how far
the printer expands a value whose denominator is not a monomial.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

from . import polys
from .errors import (
    DivisionByZero,
    InvalidPrime,
    ZeroValue,
)

INF = math.inf

# the largest degree a field accepts: primality is decided by trial division,
# and much of the engine's work is dense in p, so a larger p is refused at once
MAX_PRIME = 1 << 16

# the largest Laurent precision a field accepts: a printed series has up to
# about precision^2 / 2 terms.  At this cap, on a 2-core machine, `eval -p 3
# --expr "1/(1+a+b)"` prints 4,150 terms in 0.06 s, and a p = 5 eval with 25
# such coefficients, --alpha "1/(1+a+b)" --beta 1+a+b --expr
# "1/(1+a*x+b*y)", prints 2.6 MB in 1.0 s; at 500 it took 20 s for 44 MB
MAX_PRECISION = 128


# ---------------------------------------------------------------------------
# rational functions in a, b over F_p
# ---------------------------------------------------------------------------

class RatFunc:
    """Element of F_p(a, b) in canonical reduced form."""

    __slots__ = ("p", "num", "den")

    def __init__(self, p, num, den=None, *, _canonical=False):
        self.p = p
        if den is None:
            den = polys.P_ONE
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            self.num, self.den = {}, dict(polys.P_ONE)
            return
        if not _canonical and not polys.p_is_one(den):
            num, den = _cancel(num, den, p)
            num, den = _monic_den(num, den, p)
        self.num, self.den = num, den

    def _like(self, num, den=None, canonical=True):
        """num / den as a scalar of this one's field."""
        return RatFunc(self.p, num, den, _canonical=canonical)

    # predicates -----------------------------------------------------------
    def is_zero(self):
        return not self.num

    def is_poly(self):
        return polys.p_is_one(self.den)

    def _is_sum(self):
        return self.is_poly() and len(self.num) > 1

    def _fraction(self):
        """(num, den) as term maps, den None for a polynomial; callers read
        the maps and never mutate them."""
        return self.num, None if polys.p_is_one(self.den) else self.den

    # arithmetic -----------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, type(self)):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other
        if isinstance(other, int):
            return self._like(polys.p_const(other, self.p))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        if self.is_poly() and other.is_poly():
            return self._like(polys.p_add(self.num, other.num, p))
        if self.den == other.den:
            return self._like(polys.p_add(self.num, other.num, p), self.den, canonical=False)
        num = polys.p_add(
            polys.p_mul(self.num, other.den, p),
            polys.p_mul(other.num, self.den, p),
            p,
        )
        return self._like(num, polys.p_mul(self.den, other.den, p), canonical=False)

    __radd__ = __add__

    def __neg__(self):
        return self._like(polys.p_neg(self.num, self.p), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        if self.is_zero() or other.is_zero():
            return self._like({})
        if self.is_poly() and other.is_poly():
            return self._like(polys.p_mul(self.num, other.num, p))
        # cross-reduce so the product needs no further gcd
        n1, d2 = _cancel(self.num, other.den, p)
        n2, d1 = _cancel(other.num, self.den, p)
        return self._like(*_monic_den(polys.p_mul(n1, n2, p), polys.p_mul(d1, d2, p), p))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("division by zero rational function")
        # a canonical numerator and denominator are coprime, so the
        # reciprocal needs no gcd
        return self._like(*_monic_den(self.den, self.num, self.p))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return polys.power(self, n, self._coerce(1), operator.mul)

    def frobenius(self):
        p = self.p
        return self._like(polys.p_frobenius(self.num, p), polys.p_frobenius(self.den, p))

    # comparison / hashing ---------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.p == other.p and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.p, frozenset(self.num.items()), frozenset(self.den.items())))

    # printing ----------------------------------------------------------------
    def __str__(self):
        if self.is_poly():
            return polys.format_poly(self.num)
        num_s = polys.format_poly(self.num)
        if len(self.num) > 1:
            num_s = f"({num_s})"
        den_s = polys.format_poly(self.den)
        if len(self.den) > 1:
            den_s = f"({den_s})"
        else:
            (ea, eb) = next(iter(self.den))
            if ea > 0 and eb > 0:
                den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self):
        return f"RatFunc(p={self.p}, {self})"


def _cancel(n, d, p):
    """n / g and d / g for g = gcd(n, d); a numerator equal to the
    denominator cancels with no gcd."""
    if polys.p_is_one(d):
        return n, d
    if n == d:
        return dict(polys.P_ONE), dict(polys.P_ONE)
    g = polys.p_gcd(n, d, p)
    if polys.p_is_one(g):
        return n, d
    if len(g) == 1:
        # a monic monomial gcd divides by shifting the exponents
        (ga, gb), = g
        return polys._shift(n, -ga, -gb), polys._shift(d, -ga, -gb)
    return polys.p_div_exact(n, g, p), polys.p_div_exact(d, g, p)


def _monic_den(num, den, p):
    """num and den scaled so that den is monic."""
    lc = polys.p_lc(den)
    if lc == 1:
        return num, den
    inv = polys.inv_mod(lc, p)
    return polys.p_scale(num, inv, p), polys.p_scale(den, inv, p)


# ---------------------------------------------------------------------------
# rational functions read in F_p((a))((b)), b outermost
# ---------------------------------------------------------------------------

_second = operator.itemgetter(1)


class LaurentScalar:
    """Element of F_p((a))((b)) that is a rational function num / den in
    RatFunc's canonical form, with RatFunc's arithmetic.

    ``prec`` sets the box the printer expands a value in when its
    denominator is not a monomial (__str__); a value with a monomial
    denominator is a Laurent polynomial and prints exactly.
    """

    __slots__ = ("p", "prec", "num", "den")

    def __init__(self, p, prec, terms, den=None, *, _canonical=False):
        """terms / den, reduced to canonical form unless ``_canonical``
        says it is.  With no den, ``terms`` maps the exponent pairs of a
        Laurent polynomial, negative ones allowed, to its coefficients,
        which ``_canonical`` says are already in 1..p-1."""
        self.prec = prec
        if den is not None:
            RatFunc.__init__(self, p, terms, den, _canonical=_canonical)
            return
        if not _canonical:
            terms = polys.p_reduce(terms, p)
        self.p, self.num, self.den = p, terms, polys.P_ONE
        if terms:
            # the least negative exponents move into a monomial denominator,
            # which leaves the numerator coprime to it
            sa, sb = min(0, min(terms)[0]), min(0, min(map(_second, terms)))
            if sa or sb:
                self.num = {(ea - sa, eb - sb): c for (ea, eb), c in terms.items()}
                self.den = {(-sa, -sb): 1}

    def _like(self, num, den=None, canonical=True):
        """num / den as a scalar of this one's field."""
        return LaurentScalar(self.p, self.prec, num, polys.P_ONE if den is None else den,
                             _canonical=canonical)

    # the arithmetic of canonical fractions is RatFunc's
    is_zero = RatFunc.is_zero
    is_poly = RatFunc.is_poly
    _fraction = RatFunc._fraction
    _coerce = RatFunc._coerce
    __add__ = __radd__ = RatFunc.__add__
    __neg__ = RatFunc.__neg__
    __sub__ = RatFunc.__sub__
    __rsub__ = RatFunc.__rsub__
    __mul__ = __rmul__ = RatFunc.__mul__
    inverse = RatFunc.inverse
    __truediv__ = RatFunc.__truediv__
    __rtruediv__ = RatFunc.__rtruediv__
    __pow__ = RatFunc.__pow__
    frobenius = RatFunc.frobenius
    __eq__ = RatFunc.__eq__
    __hash__ = RatFunc.__hash__

    @property
    def terms(self):
        """The terms (ea, eb) -> c of a Laurent polynomial, a value whose
        denominator is a monomial; None for any other value."""
        if len(self.den) != 1:
            return None
        (da, db), = self.den
        if not (da or db):
            return self.num
        return {(ea - da, eb - db): c for (ea, eb), c in self.num.items()}

    def _is_sum(self):
        return len(self.num) > 1 or len(self.den) > 1

    def coefficient(self, ea, eb):
        """The coefficient at a^ea b^eb of the expansion, an int in 0..p-1."""
        return _expansion(self.num, self.den, self.p, ea + 1, eb + 1).get((ea, eb), 0)

    # printing ----------------------------------------------------------------
    def _box(self):
        """(ha, hb): the printer shows the terms with ea < ha and eb < hb.

        It is the box of 1/den expanded to this precision, shifted by num's
        least exponents: with den = c a^k0 b^j0 (1 + w), the expansion of
        1/(1 + w) stops at a^prec when den has another term at b^j0, else
        never, and at b^prec when den has a term above b^j0, else never;
        the monomial moves both ends by (-k0, -j0).  That is the box the
        series inverse of windowed Laurent scalars certified, so a value
        made by one scalar inverse prints as it did with them.
        """
        k0, j0 = _lead(self.den)
        prec = self.prec
        ta = prec if any(eb == j0 and ea != k0 for ea, eb in self.den) else INF
        tb = prec if any(eb > j0 for _, eb in self.den) else INF
        ha = ta - k0 + min(ea for ea, _ in self.num)
        hb = tb - j0 + min(eb for _, eb in self.num)
        return ha, hb

    def __str__(self):
        terms = self.terms
        if terms is not None:
            return _format_laurent(terms)
        ha, hb = self._box()
        body = _format_laurent(_expansion(self.num, self.den, self.p, ha, hb))
        if ha == INF:
            o = f"O(b^{hb})"
        elif hb == INF:
            o = f"O(a^{ha})"
        else:
            o = f"O(a^{ha}, b^{hb})"
        return f"{body} + {o}"

    def __repr__(self):
        return f"LaurentScalar(p={self.p}, {self})"


def _lead(m):
    """The b-first least exponent pair (ea, eb) of a nonzero term map."""
    if len(m) == 1:
        (lead,) = m
        return lead
    eb, ea = min((eb, ea) for ea, eb in m)
    return ea, eb


def _expansion(num, den, p, ha, hb):
    """The terms a^e b^f of num / den in F_p((a))((b)) with e < ha and
    f < hb, for a finite hb when den has terms above its lowest b-level.

    The quotient q solves den * q = num one b-level at a time, upward from
    num's lowest, and upward in a inside a level: with den's leading term
    c0 a^k0 b^j0, q(e, f) = (num(e + k0, f + j0) - the other terms of den
    times q) / c0.  A term of den one level up and drop a-exponents down
    ties q at (e, f) to q at (e + drop, f - 1), so level f is solved up to
    a^(ha + (hb - 1 - f) * drop).  A level is a finite sum when den's
    leading term is alone on its level."""
    k0, j0 = lead = _lead(den)
    inv = polys.inv_mod(den[lead], p)
    same = [(da - k0, d) for (da, db), d in den.items() if db == j0 and da != k0]
    up = [(da - k0, db - j0, d) for (da, db), d in den.items() if db > j0]
    drop = max([0] + [-da for da, _, _ in up])
    rows = {}  # num's terms by level of q
    for (e, f), c in num.items():
        rows.setdefault(f - j0, {})[e - k0] = c
    q = {}
    for f in range(min(rows), hb) if up else sorted(f for f in rows if f < hb):
        row = dict(rows.get(f, ()))
        for da, db, d in up:
            for e, c in q.get(f - db, {}).items():
                row[e + da] = row.get(e + da, 0) - d * c
        if same:
            level = {}
            for e in range(min(row), ha + (hb - 1 - f) * drop if drop else ha) if row else ():
                s = row.get(e, 0) - sum(d * level.get(e - da, 0) for da, d in same)
                if s % p:
                    level[e] = s * inv % p
        else:
            level = {e: r for e, c in row.items() if (r := c * inv % p)}
        if level:
            q[f] = level
    return {(e, f): c for f, level in q.items() for e, c in level.items() if e < ha}


def _format_laurent(terms):
    """A map of Laurent terms, ascending b first, over the monomial that
    clears its negative exponents."""
    if not terms:
        return "0"
    sa = min(0, min(ea for ea, _ in terms))
    sb = min(0, min(eb for _, eb in terms))
    shifted = {(ea - sa, eb - sb): c for (ea, eb), c in terms.items()}
    body = polys.format_poly(shifted, order="series")
    if not (sa or sb):
        return body
    den = polys._format_monomial(-sa, -sb, 1)
    if -sa > 0 and -sb > 0:
        den = f"({den})"
    return f"({body})/{den}" if len(shifted) > 1 else f"{body}/{den}"


# ---------------------------------------------------------------------------
# rank-2 values
# ---------------------------------------------------------------------------

@total_ordering
@dataclass(frozen=True)
class Value:
    """Element of the rank-2 value group, ordered lexicographically with the
    b-coordinate (outer Laurent variable) compared first."""

    va: Fraction
    vb: Fraction

    @classmethod
    def of(cls, va, vb):
        return cls(Fraction(va), Fraction(vb))

    def __add__(self, other):
        return Value(self.va + other.va, self.vb + other.vb)

    def __sub__(self, other):
        return Value(self.va - other.va, self.vb - other.vb)

    def __mul__(self, n):
        return Value(self.va * n, self.vb * n)

    __rmul__ = __mul__

    def divided_by(self, n):
        return Value(self.va / n, self.vb / n)

    def __lt__(self, other):
        return (self.vb, self.va) < (other.vb, other.va)

    def __str__(self):
        return f"({self.va}, {self.vb})"


def valuation(c):
    """The value of a nonzero Laurent scalar: the exponent pair of its
    b-dominant leading term."""
    if not isinstance(c, LaurentScalar):
        raise TypeError("valuation is defined for Laurent scalars")
    return Value.of(*_leading(c))


def _leading(c):
    """Exponents (ea, eb) of the b-dominant leading term of a Laurent
    scalar: the numerator's leading exponents minus the denominator's.
    Raises ZeroValue for zero."""
    if c.is_zero():
        raise ZeroValue("the zero scalar has no value")
    (na, nb), (da, db) = _lead(c.num), _lead(c.den)
    return na - da, nb - db


def frobenius(c):
    """The p-th power map on scalars."""
    return c.frobenius()


def certified_equal(s, t):
    """The one relation check: two scalars, or two elements of one algebra,
    are equal when their difference is zero.  Every scalar is exact, so this
    is exact equality over both fields."""
    return (s - t).is_zero()


# ---------------------------------------------------------------------------
# field descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldDescriptor:
    """Names a concrete base field: F_p(a, b), or F_p((a))((b)) with the
    precision its series print to."""

    kind: str
    prime: int
    precision: int | None = None

    def __post_init__(self):
        if self.kind not in ("rational", "laurent"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.prime > MAX_PRIME:
            raise InvalidPrime(f"{self.prime} exceeds the largest supported prime {MAX_PRIME}")
        if not polys.is_prime(self.prime):
            raise InvalidPrime(f"{self.prime} is not prime")
        if (self.precision is not None) != (self.kind == "laurent"):
            raise ValueError("precision must be given exactly for laurent fields")
        if self.kind == "laurent" and self.precision < 1:
            raise ValueError("precision must be positive")
        if self.kind == "laurent" and self.precision > MAX_PRECISION:
            raise ValueError(f"precision {self.precision} exceeds the largest supported "
                             f"precision {MAX_PRECISION}")

    # scalar factories -------------------------------------------------------
    def from_terms(self, terms, den=None):
        """The polynomial sum of c * a^i * b^j over a map (i, j) -> c with
        every c in 1..p-1, as a scalar of this field that takes the map
        over; divided by the nonzero polynomial ``den``, a map of the same
        kind, when one is given.  A Laurent field's map may have negative
        exponents when no den is given."""
        if self.kind == "rational":
            return RatFunc(self.prime, terms, den, _canonical=den is None)
        return LaurentScalar(self.prime, self.precision, terms, den, _canonical=den is None)

    def zero(self):
        return self.from_terms({})

    def one(self):
        return self.from_terms(dict(polys.P_ONE))

    def from_int(self, c):
        return self.from_terms(polys.p_const(c, self.prime))

    def gen(self, name):
        return self.from_terms(polys.p_gen(name))

    def owns(self, scalar):
        """A scalar of this field: same kind and prime, and over a Laurent
        field the same precision, so that a value prints as its field does."""
        if self.kind == "rational":
            return isinstance(scalar, RatFunc) and scalar.p == self.prime
        return (
            isinstance(scalar, LaurentScalar)
            and scalar.p == self.prime
            and scalar.prec == self.precision
        )

    def __str__(self):
        if self.kind == "rational":
            return f"F_{self.prime}(a,b)"
        return f"F_{self.prime}((a))((b)) @ window {self.precision}"
