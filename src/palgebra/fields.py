"""Exact scalars: rational functions in a and b over F_p, truncated
bi-Laurent series F_p((a))((b)), and rank-2 values.

Every scalar is immutable after construction and all operations are pure.
Rational functions are kept in canonical reduced form (coprime numerator
and denominator, denominator monic under graded lex order), so equality
of representations is equality of functions.

Laurent scalars carry an explicit certification window: the stored terms
are exactly the terms of the true value with a-exponent below ``ha`` and
b-exponent below ``hb`` (an infinite bound on both sides means the value
is exact).  ``la`` and ``lb`` are lower bounds for the exponents of the
full true support and are what keeps window bookkeeping sound through
multiplication.  Operations shrink windows as little as the inputs allow;
a question that the surviving window cannot answer raises
PrecisionExhausted instead of guessing.
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
    PrecisionExhausted,
    ZeroValue,
)

INF = math.inf

# the largest degree a field accepts: primality is decided by trial division,
# and much of the engine's work is dense in p, so a larger p is refused at once
MAX_PRIME = 1 << 16


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

    # predicates -----------------------------------------------------------
    def is_zero(self):
        return not self.num

    # rational functions are exact, so every zero test is certain
    _surely_zero = _certified_zero = is_zero

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
        if isinstance(other, RatFunc):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other
        if isinstance(other, int):
            return RatFunc(self.p, polys.p_const(other, self.p), _canonical=True)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        if self.is_poly() and other.is_poly():
            return RatFunc(p, polys.p_add(self.num, other.num, p), _canonical=True)
        if self.den == other.den:
            return RatFunc(p, polys.p_add(self.num, other.num, p), self.den)
        num = polys.p_add(
            polys.p_mul(self.num, other.den, p),
            polys.p_mul(other.num, self.den, p),
            p,
        )
        return RatFunc(p, num, polys.p_mul(self.den, other.den, p))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(self.p, polys.p_neg(self.num, self.p), self.den, _canonical=True)

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
            return RatFunc(p, {})
        if self.is_poly() and other.is_poly():
            return RatFunc(p, polys.p_mul(self.num, other.num, p), _canonical=True)
        # cross-reduce so the product needs no further gcd
        n1, d2 = _cancel(self.num, other.den, p)
        n2, d1 = _cancel(other.num, self.den, p)
        num, den = _monic_den(polys.p_mul(n1, n2, p), polys.p_mul(d1, d2, p), p)
        return RatFunc(p, num, den, _canonical=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        # a canonical numerator and denominator are coprime, so the
        # reciprocal needs no gcd
        num, den = _monic_den(other.den, other.num, other.p)
        return self * RatFunc(other.p, num, den, _canonical=True)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n < 0:
            return self._coerce(1) / self ** (-n)
        return polys.power(self, n, self._coerce(1), operator.mul)

    def frobenius(self):
        p = self.p
        return RatFunc(
            p,
            polys.p_frobenius(self.num, p),
            polys.p_frobenius(self.den, p),
            _canonical=True,
        )

    # comparison / hashing ---------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, RatFunc):
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
    return polys.p_div_exact(n, g, p), polys.p_div_exact(d, g, p)


def _monic_den(num, den, p):
    """num and den scaled so that den is monic."""
    lc = polys.p_lc(den)
    if lc == 1:
        return num, den
    inv = polys.inv_mod(lc, p)
    return polys.p_scale(num, inv, p), polys.p_scale(den, inv, p)


# ---------------------------------------------------------------------------
# truncated bi-Laurent series F_p((a))((b)), b outermost
# ---------------------------------------------------------------------------

def _bmin(x, y):
    return x if x <= y else y


_second = operator.itemgetter(1)


class LaurentScalar:
    """Element of F_p((a))((b)) known exactly below a certification window.

    ``terms`` maps exponent pairs (ea, eb) to coefficients; the window
    (``ha``, ``hb``) certifies every true term with ea < ha and eb < hb is
    stored.  ``la``/``lb`` bound the true support from below.  Values with
    an infinite window on both axes are exact.
    """

    __slots__ = ("p", "prec", "terms", "ha", "hb", "la", "lb")

    def __init__(self, p, prec, terms, ha=INF, hb=INF, la=0, lb=0, *, _reduced=False):
        """``_reduced`` says every coefficient of ``terms`` is already in
        1..p-1; an exact scalar then keeps the map itself."""
        self.p = p
        self.prec = prec
        self.ha = ha
        self.hb = hb
        if ha == INF and hb == INF:
            # exact: the stored support is the true support
            if not _reduced:
                terms = polys.p_reduce(terms, p)
            self.terms = terms
            self.la = min(terms)[0] if terms else 0
            self.lb = min(map(_second, terms)) if terms else 0
        else:
            self.terms = {
                m: r for m, c in terms.items() if m[0] < ha and m[1] < hb and (r := c % p)
            }
            self.la = la
            self.lb = lb

    # predicates -----------------------------------------------------------
    @property
    def exact(self):
        return self.ha == INF and self.hb == INF

    def is_zero(self):
        """True only when the value is exactly zero; an empty inexact value
        cannot decide and raises PrecisionExhausted."""
        if self.terms:
            return False
        if self.exact:
            return True
        raise PrecisionExhausted("window too small to decide zeroness")

    def _surely_zero(self):
        return not self.terms and self.exact

    def _certified_zero(self):
        """Zero as far as the window certifies: no stored terms."""
        return not self.terms

    def _fraction(self):
        """(terms, None) for an exact value, a Laurent polynomial with no
        denominator; None for a truncated series."""
        return (self.terms, None) if self.ha == INF and self.hb == INF else None

    def _is_sum(self):
        return len(self.terms) > 1 or not self.exact

    def coefficient(self, ea, eb):
        """Certified coefficient at (ea, eb), an int in 0..p-1."""
        if ea >= self.ha or eb >= self.hb:
            raise PrecisionExhausted(f"coefficient at ({ea}, {eb}) is outside the window")
        return self.terms.get((ea, eb), 0)

    # arithmetic -----------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, LaurentScalar):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other
        if isinstance(other, int):
            return LaurentScalar(self.p, self.prec, {(0, 0): other})
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # an exact zero bounds nothing, so the sum keeps the other operand's
        # la and lb instead of lowering them to 0
        if other._surely_zero():
            return self
        if self._surely_zero():
            return other
        p = self.p
        return LaurentScalar(
            p,
            self.prec,
            polys.p_add(self.terms, other.terms, p),
            _bmin(self.ha, other.ha),
            _bmin(self.hb, other.hb),
            _bmin(self.la, other.la),
            _bmin(self.lb, other.lb),
            _reduced=True,
        )

    __radd__ = __add__

    def __neg__(self):
        return LaurentScalar(
            self.p,
            self.prec,
            {m: -c for m, c in self.terms.items()},
            self.ha,
            self.hb,
            self.la,
            self.lb,
        )

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
        if self._surely_zero() or other._surely_zero():
            return LaurentScalar(p, self.prec, {})
        # windows: unknown terms of one factor smear across the support of
        # the other, bounded below by la/lb of that other factor
        ha = hb = INF
        if self.ha != INF:
            ha = _bmin(ha, self.ha + other.la)
        if other.ha != INF:
            ha = _bmin(ha, other.ha + self.la)
        if self.hb != INF:
            hb = _bmin(hb, self.hb + other.lb)
        if other.hb != INF:
            hb = _bmin(hb, other.hb + self.lb)
        return LaurentScalar(
            p,
            self.prec,
            polys.p_mul(self.terms, other.terms, p),
            ha,
            hb,
            self.la + other.la,
            self.lb + other.lb,
            _reduced=True,
        )

    __rmul__ = __mul__

    def inverse(self):
        p, prec = self.p, self.prec
        k0, j0 = _certified_leading(self, DivisionByZero("inverting zero Laurent scalar"))
        c0 = self.terms[(k0, j0)]
        m_inv = LaurentScalar(p, prec, {(-k0, -j0): polys.inv_mod(c0, p)})
        w = self * m_inv - 1
        if w._surely_zero():
            return m_inv
        # with hb infinite a term w does not store has ea >= ha, so the
        # stored terms and ha bound w's a-exponents where the tracked la,
        # which only grows looser through products, may not
        bound = w.la
        if w.hb == INF:
            bound = max(bound, min(min((ea for ea, _ in w.terms), default=INF), w.ha))
        if bound == -INF:
            raise PrecisionExhausted("cannot bound the inverse's support")
        # Every true term of w is lex-positive: eb >= 1, or eb == 0 with
        # ea >= 1, and below b^hb a term w does not store has ea >= ha.  So a
        # power of w leaves a target box [ea < ta, eb < tb] for good once it
        # passes the axes that w's terms feed, except that a stored term with
        # eb >= 1 and ea < 0 lowers the a-exponent, by at most drop per
        # factor and at most tb - 1 - eb times for a product at b-level eb.
        has_a_terms = any(eb == 0 for _, eb in w.terms)
        has_b_terms = any(eb >= 1 for _, eb in w.terms)
        ta = _bmin(prec, w.ha) if has_a_terms else w.ha
        tb = _bmin(prec, w.hb) if has_b_terms else w.hb
        drop = max(0, -min((ea for ea, eb in w.terms if eb), default=0))
        if drop:
            # tb is finite; a product with an unstored factor has
            # ea >= ha - (tb - 1) * drop, so the box ends there
            ta = _bmin(ta, w.ha - (tb - 1) * drop)
        neg_w = [(m, -c) for m, c in w.terms.items()]
        acc = {(0, 0): 1}
        term = {(0, 0): 1}
        while term:
            # the stored products that can still reach the box; once none
            # is left, no later power reaches it either
            nxt = {}
            for (a1, b1), c1 in term.items():
                for (a2, b2), c2 in neg_w:
                    ea, eb = a1 + a2, b1 + b2
                    if eb < tb and ea < (ta + (tb - 1 - eb) * drop if drop else ta):
                        nxt[(ea, eb)] = (nxt.get((ea, eb), 0) + c1 * c2) % p
            term = {m: c for m, c in nxt.items() if c}
            for m, c in term.items():
                acc[m] = (acc.get(m, 0) + c) % p
        # the powers of w stay at b-exponents >= 0, and at a-exponents >= 0
        # when w's do; tracked lower bounds would over-count error compounding
        return LaurentScalar(p, prec, acc, ta, tb, 0 if bound >= 0 else -INF, 0) * m_inv

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
        return LaurentScalar(
            self.p,
            self.prec,
            {(ea * self.p, eb * self.p): c for (ea, eb), c in self.terms.items()},
            self.ha if self.ha == INF else self.ha * self.p,
            self.hb if self.hb == INF else self.hb * self.p,
            self.la * self.p,
            self.lb * self.p,
        )

    # comparison -------------------------------------------------------------
    def __eq__(self, other):
        """Equality of certified approximations: same terms, same window."""
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        return (
            self.p == other.p
            and self.terms == other.terms
            and self.ha == other.ha
            and self.hb == other.hb
        )

    def __hash__(self):
        return hash((self.p, frozenset(self.terms.items()), self.ha, self.hb))

    # printing ----------------------------------------------------------------
    def __str__(self):
        if not self.terms:
            body = "0"
        else:
            sa = min(0, min(ea for ea, _ in self.terms))
            sb = min(0, min(eb for _, eb in self.terms))
            shifted = {(ea - sa, eb - sb): c for (ea, eb), c in self.terms.items()}
            body = polys.format_poly(shifted, order="series")
            if sa or sb:
                den = polys._format_monomial(-sa, -sb, 1)
                if -sa > 0 and -sb > 0:
                    den = f"({den})"
                body = f"({body})/{den}" if len(shifted) > 1 else f"{body}/{den}"
        if self.exact:
            return body
        if self.ha == INF:
            o = f"O(b^{self.hb})"
        elif self.hb == INF:
            o = f"O(a^{self.ha})"
        else:
            o = f"O(a^{self.ha}, b^{self.hb})"
        return f"{body} + {o}"

    def __repr__(self):
        return f"LaurentScalar(p={self.p}, {self})"


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
    """Exponent pair of the lexicographically minimal term, b-dominant.

    Requires the leading term to be certified by the window.
    """
    if not isinstance(c, LaurentScalar):
        raise TypeError("valuation is defined for Laurent scalars")
    return Value.of(*_certified_leading(c, ZeroValue("the zero scalar has no value")))


def _certified_leading(c, zero):
    """Exponents (ea, eb) of the b-dominant leading term of a Laurent
    scalar, certified by its window; raises ``zero`` when the scalar is
    exactly zero and PrecisionExhausted when the window stores no term or
    does not certify the leading stored one.  With ha infinite every term
    of a stored b-level is stored, so the lowest stored level leads;
    otherwise the support's lower bound lb must reach that level."""
    if not c.terms:
        if c.exact:
            raise zero
        raise PrecisionExhausted("window too small to find a leading term")
    eb_min = min(map(_second, c.terms))
    if c.ha != INF and c.lb != eb_min:
        raise PrecisionExhausted("leading term is not certified by the window")
    return min(ea for ea, eb in c.terms if eb == eb_min), eb_min


def frobenius(c):
    """The p-th power map on scalars."""
    return c.frobenius()


def certified_equal(s, t):
    """The one relation check: two scalars, or two elements of one algebra,
    are equal when their difference has no certified term.  For rational
    scalars this is exact equality; over Laurent fields a difference that
    stores no term, such as 0 + O(a^5), passes whatever its window."""
    return (s - t)._certified_zero()


# ---------------------------------------------------------------------------
# field descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldDescriptor:
    """Names a concrete base field: F_p(a, b) or F_p((a))((b)) with window."""

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

    # scalar factories -------------------------------------------------------
    def from_terms(self, terms, den=None):
        """The polynomial sum of c * a^i * b^j over a map (i, j) -> c with
        every c in 1..p-1, as a scalar of this field that takes the map
        over; divided by the nonzero polynomial ``den``, a map of the same
        kind, when one is given (rational fields only)."""
        if self.kind == "rational":
            if den is None:
                return RatFunc(self.prime, terms, _canonical=True)
            return RatFunc(self.prime, terms, den)
        return LaurentScalar(self.prime, self.precision, terms, _reduced=True)

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
        field the same window, so that windows never mix."""
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
