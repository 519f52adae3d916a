"""Polynomial kernels over the prime fields F_p.

Polynomials in the indeterminates a and b are sparse dicts mapping
(ea, eb) -> coefficient in {1, ..., p-1}, with {} for zero.  The gcd
works recursively in b over F_p[a]: there a polynomial is a dict mapping
eb -> its coefficient in F_p[a], and each coefficient is a dense list,
lowest degree first, with no trailing zero and [] for zero.  Only
``_to_rec`` and ``_from_rec`` convert between the two.

``p_gcd`` settles three cases before any pseudo-remainder sequence.
A single-term operand has only a and b as prime factors, so its gcd
with g is a^min(i, min_a g) * b^min(j, min_b g).  Otherwise the common
monomial factor a^i b^j (the least exponents of each operand) splits
off and is multiplied back at the end.  Then, with the contents in
F_p[a] split off, the primitive parts F and G (deg_b >= 1) are proved
coprime by a point a0 of F_p where lc_b(F)(a0) != 0 and F(a0, b),
G(a0, b) are coprime in F_p[b] (the degree bound of Brown's modular
gcd): H = gcd(F, G) divides F, so lc_b(H)(a0) != 0 and deg_b H equals
the degree of H(a0, b), which divides gcd(F(a0, b), G(a0, b)) = 1.  The
gcd is then that of the contents.  For a coprime pair only the zeros of
lc_b(F) and of the nonzero resultant Res_b(F, G) fail, at most
deg_a lc_b(F) + deg_a F * deg_b G + deg_a G * deg_b F points, so the
scan stops one point past that bound (or at the end of F_p), whatever
the size of p.  When no point proves it, the subresultant sequence runs.

``u_mul`` and the packed element products of ``algebra`` use Kronecker
substitution: a polynomial becomes one int with a slot of fixed width per
monomial, the product of two such ints holds the product's coefficients
unreduced, and each slot is read back and reduced mod p.  One rule,
``slot_bytes``, sizes the slots from the caller's exact bound on an
unreduced coefficient: 1, 2, 4 or 8 bytes, then whole 8-byte words, so
every p up to fields.MAX_PRIME fits.  ``p_pack`` lays a bivariate map out
row by row in a, each row ``stride`` slots of b, from an origin at or
below its least exponents, so exact Laurent numerators with negative
exponents pack too.

All functions are pure. Monomial comparisons use graded lexicographic
order with a ranked above b; gcds are returned monic with respect to that
order so that canonical forms are unique.
"""

from __future__ import annotations

from array import array
from itertools import zip_longest
from sys import byteorder


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def inv_mod(c: int, p: int) -> int:
    return pow(c % p, p - 2, p)


def power(base, n, one, mul):
    """base^n for n >= 0 by repeated squaring, in any ring given by its
    identity and product; the identity is returned only for n = 0, never
    multiplied, and no square is taken past the top bit of n."""
    if not n:
        return one
    while not n & 1:
        base = mul(base, base)
        n >>= 1
    out = base
    while n := n >> 1:
        base = mul(base, base)
        if n & 1:
            out = mul(out, base)
    return out


# ---------------------------------------------------------------------------
# univariate layer (used by the bivariate gcd, recursive in b over F_p[a])
# ---------------------------------------------------------------------------

def u_mul(f, g, p):
    if not f or not g:
        return []
    if g.count(0) == len(g) - 1:
        f, g = g, f
    if f.count(0) == len(f) - 1:
        # one term c*t^e: a shift and a scaling
        c = f[-1]
        return [0] * (len(f) - 1) + [(c * k) % p for k in g]
    # Kronecker substitution: each operand becomes one integer, a slot per
    # coefficient wide enough for a coefficient of the product before
    # reduction; one multiplication, then each slot is read back mod p
    width = slot_bytes((p - 1) * (p - 1) * min(len(f), len(g)))
    prod = _pack(f, width) * _pack(g, width)
    return [c % p for c in _unpack(prod, len(f) + len(g) - 1, width)]


# Kronecker slots --------------------------------------------------------

_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def slot_bytes(bound):
    """Bytes per Kronecker slot for integers 0 .. bound: 1, 2, 4 or 8, then
    whole 8-byte words (bound is at least (p-1)^2, and (p-1)^4 alone
    fills 64 bits at p = 65521)."""
    n = (bound.bit_length() + 7) // 8
    return n if n <= 2 else 4 if n <= 4 else -(-n // 8) * 8


def _pack(slots, width):
    """The ints in the list slots, each below 2^64, lowest slot first, as
    one int with width bytes per slot."""
    if width > 8:
        words = [0] * (len(slots) * (width // 8))
        words[:: width // 8] = slots
        slots, width = words, 8
    data = array(_CODES[width], slots)
    if _BIG_ENDIAN:
        data.byteswap()
    return int.from_bytes(data, "little")


def _unpack(n, count, width):
    """The lowest count slots of n, width bytes each, lowest first."""
    data = n.to_bytes(count * width, "little")
    if width > 8:
        return [int.from_bytes(data[k : k + width], "little") for k in range(0, len(data), width)]
    if _BIG_ENDIAN:
        slots = array(_CODES[width], data)
        slots.byteswap()
        return slots
    return memoryview(data).cast(_CODES[width])


_BIG_ENDIAN = byteorder == "big"


def u_sub(f, g, p):
    out = [(c - k) % p for c, k in zip_longest(f, g, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def u_divmod(f, g, p):
    """Quotient and remainder of f by g; the remainder's entries are
    reduced mod p only where they are read."""
    if not g:
        raise ZeroDivisionError("univariate division by zero")
    dg = len(g) - 1
    if len(f) <= dg:
        return [], f
    inv_lc = inv_mod(g[dg], p)
    low = [(e, c) for e, c in enumerate(g[:dg]) if c]
    r = f[:]
    q = [0] * (len(f) - dg)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + dg] % p
        if c:
            c = (c * inv_lc) % p
            q[k] = c
            for e, gc in low:
                r[e + k] -= c * gc
    r = [c % p for c in r[:dg]]
    while r and not r[-1]:
        r.pop()
    return q, r


def u_div_exact(f, g, p):
    q, r = u_divmod(f, g, p)
    if r:
        raise ArithmeticError("univariate division was not exact")
    return q


def u_gcd(f, g, p):
    """Monic gcd by the Euclidean algorithm."""
    while g:
        f, g = g, u_divmod(f, g, p)[1]
    if not f:
        return []
    inv = inv_mod(f[-1], p)
    return [(c * inv) % p for c in f]


# ---------------------------------------------------------------------------
# bivariate layer
# ---------------------------------------------------------------------------

P_ONE = {(0, 0): 1}


def p_const(c, p):
    c %= p
    return {(0, 0): c} if c else {}


def p_gen(name):
    if name == "a":
        return {(1, 0): 1}
    if name == "b":
        return {(0, 1): 1}
    raise ValueError(f"unknown indeterminate {name!r}")


def p_add(f, g, p):
    out = dict(f)
    for m, c in g.items():
        s = (out.get(m, 0) + c) % p
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def p_neg(f, p):
    return {m: (-c) % p for m, c in f.items()}


def p_mul(f, g, p):
    if not f or not g:
        return {}
    out = {}
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            m = (a1 + a2, b1 + b2)
            s = (out.get(m, 0) + c1 * c2) % p
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def p_mul_into(out, f, g):
    """Add f*g into the map out with integer coefficients, not reduced."""
    get = out.get
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            m = (a1 + a2, b1 + b2)
            out[m] = get(m, 0) + c1 * c2
    return out


def p_reduce(f, p):
    """f with every coefficient reduced mod p and the zeros dropped."""
    return {m: r for m, c in f.items() if (r := c % p)}


def p_box(maps):
    """(least a, least b, greatest a, greatest b) exponents over the terms
    of the nonempty maps."""
    a, b = zip(*[m for f in maps for m in f])
    return min(a), min(b), max(a), max(b)


def p_pack(f, origin, stride, width):
    """f as one int with width bytes per slot: the coefficient of
    a^ea b^eb sits in slot (ea - la) * stride + (eb - lb) for the origin
    (la, lb), which may be negative.  A product of maps packed with the
    same stride is the packed product over the sum of their origins,
    provided the stride exceeds the product's b-span and the width holds
    its coefficients."""
    la, lb = origin
    if len(f) <= 8:
        # a few shifted terms; a list of every slot would cost more
        bits = 8 * width
        return sum(c << ((ea - la) * stride + eb - lb) * bits for (ea, eb), c in f.items())
    index = {(ea - la) * stride + eb - lb: c for (ea, eb), c in f.items()}
    slots = [0] * (max(index) + 1)
    for k, c in index.items():
        slots[k] = c
    return _pack(slots, width)


def p_unpack(n, origin, stride, width, p):
    """The term map packed in n by p_pack, each coefficient reduced mod p
    and the zeros dropped."""
    la, lb = origin
    slots = _unpack(n, -(-n.bit_length() // (8 * width)), width)
    return {(la + k // stride, lb + k % stride): r for k, c in enumerate(slots) if c and (r := c % p)}


def p_scale(f, c, p):
    c %= p
    if not c:
        return {}
    return {m: (k * c) % p for m, k in f.items()}


def p_frobenius(f, p):
    # (sum c m)^p = sum c^p m^p = sum c m^p since c^p = c in F_p
    return {(ea * p, eb * p): c for (ea, eb), c in f.items()}


def grlex_key(m):
    return (m[0] + m[1], m[0])


def p_leading_monomial(f):
    return max(f, key=grlex_key)


def p_lc(f):
    return f[p_leading_monomial(f)]


def p_monic(f, p):
    if not f:
        return {}
    return p_scale(f, inv_mod(p_lc(f), p), p)


def p_is_one(f):
    return f == P_ONE


# recursive view: dict b-exponent -> dense list in a

def _to_rec(f):
    rec = {}
    for (ea, eb), c in f.items():
        ua = rec.setdefault(eb, [])
        if len(ua) <= ea:
            ua.extend([0] * (ea + 1 - len(ua)))
        ua[ea] = c
    return rec


def _from_rec(rec):
    return {(ea, eb): c for eb, ua in rec.items() for ea, c in enumerate(ua) if c}


def _rec_content(rec, p):
    g = []
    for ua in rec.values():
        g = u_gcd(g, ua, p)
        if g == [1]:
            break
    return g


def _rec_quo_content(rec, cont, p):
    if cont == [1]:
        return rec
    return {eb: u_div_exact(ua, cont, p) for eb, ua in rec.items()}


def _rec_scale(rec, u, p):
    # u != 0, so no coefficient vanishes
    return {eb: u_mul(ua, u, p) for eb, ua in rec.items()}


def _rec_sub(f, g, p):
    out = dict(f)
    for eb, ua in g.items():
        s = u_sub(out.get(eb, []), ua, p)
        if s:
            out[eb] = s
        else:
            out.pop(eb, None)
    return out


def _u_pow(f, n, p):
    return power(f, n, [1], lambda g, h: u_mul(g, h, p))


def _prem_b(F, G, p):
    """Standard pseudo-remainder lc(G)^(delta+1) * F mod G, recursive in b."""
    dG = max(G)
    lcg = G[dG]
    delta = max(F) - dG
    R = F
    steps = 0
    while R and max(R) >= dG:
        dR = max(R)
        lcr = R[dR]
        shifted = {eb + dR - dG: u_mul(ua, lcr, p) for eb, ua in G.items()}
        R = _rec_sub(_rec_scale(R, lcg, p), shifted, p)
        steps += 1
    if R and steps < delta + 1:
        R = _rec_scale(R, _u_pow(lcg, delta + 1 - steps, p), p)
    return R


def _subresultant_gcd(F, G, p):
    """Gcd of primitive F, G in F_p[a][b] (recursive dicts, deg_b F >= deg_b G
    >= 1) up to content, via the subresultant pseudo-remainder sequence."""
    g = [1]
    h = [1]
    while True:
        delta = max(F) - max(G)
        R = _prem_b(F, G, p)
        if not R:
            return G
        if max(R) == 0:
            return {0: [1]}
        divisor = u_mul(g, _u_pow(h, delta, p), p)
        F, G = G, {eb: u_div_exact(ua, divisor, p) for eb, ua in R.items()}
        g = F[max(F)]
        if delta == 1:
            h = g
        elif delta > 1:
            h = u_div_exact(_u_pow(g, delta, p), _u_pow(h, delta - 1, p), p)


def _u_at(f, a0, p):
    c = 0
    for k in reversed(f):
        c = (c * a0 + k) % p
    return c


def _rec_at(rec, a0, p):
    """rec at a = a0: a dense univariate polynomial in b."""
    out = [0] * (max(rec) + 1)
    for eb, ua in rec.items():
        out[eb] = _u_at(ua, a0, p)
    while out and not out[-1]:
        out.pop()
    return out


def _deg_a(rec):
    return max(map(len, rec.values())) - 1


def _coprime_at_a_point(F, G, p):
    """True when some a0 in F_p proves primitive F, G (deg_b F >= 1) coprime:
    lc_b(F)(a0) != 0 and gcd(F(a0, b), G(a0, b)) = 1.  If F and G are
    coprime, only the zeros of lc_b(F) and of the nonzero Res_b(F, G) fail,
    at most deg_a lc_b(F) + deg_a F * deg_b G + deg_a G * deg_b F of them,
    so past that many failures the scan stops: F and G share a factor."""
    lcf = F[max(F)]
    bad = len(lcf) - 1 + _deg_a(F) * max(G) + _deg_a(G) * max(F)
    return any(_u_at(lcf, a0, p) and u_gcd(_rec_at(F, a0, p), _rec_at(G, a0, p), p) == [1]
               for a0 in range(min(p, bad + 1)))


def p_gcd(f, g, p):
    """Monic gcd in F_p[a, b].  A single-term operand gives a monomial
    read off the exponents; otherwise the common monomial factor is split
    off both operands, and the rest goes to ``_gcd_of_rest``, which
    returns the contents' gcd when one point a0 proves the primitive
    parts coprime (sound by the degree bound in the module docstring; the
    points tried are bounded by the operands' degrees, not by p) and runs
    the subresultant pseudo-remainder sequence (fraction-free, linear
    coefficient growth) on them only when no point does."""
    if not f:
        return p_monic(g, p)
    if not g:
        return p_monic(f, p)
    if f == g:
        return p_monic(f, p)
    # a^i b^j divides f exactly when i and j are at most f's least
    # exponents of a and of b
    fa, fb = min(ea for ea, _ in f), min(eb for _, eb in f)
    ga, gb = min(ea for ea, _ in g), min(eb for _, eb in g)
    common = (min(fa, ga), min(fb, gb))
    if len(f) == 1 or len(g) == 1:
        return {common: 1}
    rest = _gcd_of_rest(_shift(f, -fa, -fb), _shift(g, -ga, -gb), p)
    return p_monic(_shift(rest, *common), p)


def _shift(f, da, db):
    """f times a^da b^db, for exponents that stay at least 0."""
    if not da and not db:
        return f
    return {(ea + da, eb + db): c for (ea, eb), c in f.items()}


def _gcd_of_rest(f, g, p):
    """A gcd, not yet monic, of f and g, neither of them divisible by a or b."""
    rf, rg = _to_rec(f), _to_rec(g)
    df, dg = max(rf), max(rg)
    if df == 0 and dg == 0:
        return _from_rec({0: u_gcd(rf[0], rg[0], p)})
    if df == 0:
        return _from_rec({0: u_gcd(rf[0], _rec_content(rg, p), p)})
    if dg == 0:
        return _from_rec({0: u_gcd(rg[0], _rec_content(rf, p), p)})
    cf, cg = _rec_content(rf, p), _rec_content(rg, p)
    c = u_gcd(cf, cg, p)
    F = _rec_quo_content(rf, cf, p)
    G = _rec_quo_content(rg, cg, p)
    if max(F) < max(G):
        F, G = G, F
    if _coprime_at_a_point(F, G, p):
        return _from_rec({0: c})
    H = _subresultant_gcd(F, G, p)
    cont = _rec_content(H, p)
    H = _rec_quo_content(H, cont, p)
    return _from_rec(_rec_scale(H, c, p))


def p_div_exact(f, g, p):
    """Quotient f/g assuming g divides f; raises ArithmeticError otherwise."""
    if not g:
        raise ZeroDivisionError("bivariate division by zero")
    q = {}
    r = dict(f)
    glm = p_leading_monomial(g)
    inv_glc = inv_mod(g[glm], p)
    while r:
        rlm = p_leading_monomial(r)
        da, db = rlm[0] - glm[0], rlm[1] - glm[1]
        if da < 0 or db < 0:
            raise ArithmeticError("bivariate division was not exact")
        c = (r[rlm] * inv_glc) % p
        q[(da, db)] = c
        for (ea, eb), k in g.items():
            m = (ea + da, eb + db)
            s = (r.get(m, 0) - c * k) % p
            if s:
                r[m] = s
            else:
                r.pop(m, None)
    return q


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _format_monomial(ea, eb, c):
    parts = []
    if c != 1 or (ea == 0 and eb == 0):
        parts.append(str(c))
    if ea:
        parts.append("a" if ea == 1 else f"a^{ea}")
    if eb:
        parts.append("b" if eb == 1 else f"b^{eb}")
    return "*".join(parts) if parts else "1"


def format_poly(f, order="grlex"):
    """Render a bivariate polynomial; terms descending in grlex order by
    default, ascending in b-dominant lexicographic order for series."""
    if not f:
        return "0"
    if order == "grlex":
        monomials = sorted(f, key=grlex_key, reverse=True)
    else:
        monomials = sorted(f, key=lambda m: (m[1], m[0]))
    return " + ".join(_format_monomial(ea, eb, f[(ea, eb)]) for ea, eb in monomials)
