"""A fixed reference kernel that gauges the host's current speed.

The benchmark runs on shared virtual machines whose speed for
single-threaded Python moves by up to a factor of two in phases of tens of
seconds to minutes, with no CPU steal to show for it (the process's CPU time
slows down as much as its wall time).  The kernel does the kind of work
palgebra does, sparse polynomial products and a Euclidean gcd over F_p on
dicts, but with its own code on fixed inputs, so no change to palgebra
changes its time.  Timed between rounds, it gives the factor by which a
run's times are brought to a reference speed: the speed at which one call
takes ``REFERENCE_S``.
"""

from __future__ import annotations

import random
import time

# the kernel's time at the reference speed; it sets the scale of the
# reported times and must stay fixed for them to compare across runs
REFERENCE_S = 0.001

P = 5


def _mul(f, g):
    out = {}
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            m = (a1 + a2, b1 + b2)
            c = (out.get(m, 0) + c1 * c2) % P
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def _rem(f, g):
    f = dict(f)
    dg = max(g)
    inv = pow(g[dg], P - 2, P)
    while f and max(f) >= dg:
        shift = max(f) - dg
        q = f[shift + dg] * inv % P
        for e, c in g.items():
            v = (f.get(e + shift, 0) - q * c) % P
            if v:
                f[e + shift] = v
            else:
                f.pop(e + shift, None)
    return f


def _gcd(f, g):
    while g:
        f, g = g, _rem(f, g)
    return f


_rng = random.Random(5)
_F = {(_rng.randrange(4), _rng.randrange(4)): _rng.randrange(1, P) for _ in range(8)}
_G = {(_rng.randrange(4), _rng.randrange(4)): _rng.randrange(1, P) for _ in range(8)}
_U = {e: _rng.randrange(1, P) for e in range(30)}
_V = {e: _rng.randrange(1, P) for e in range(25)}


def kernel():
    """A fixed amount of work: 0.7 ms to 1.4 ms per call on a 2-vCPU
    Xeon (Sapphire Rapids) KVM guest, as its neighbours come and go."""
    h = _F
    for _ in range(3):
        h = _mul(h, _G)
    for _ in range(4):
        _gcd(_U, _V)
    return h


def timed():
    """Seconds one call of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
