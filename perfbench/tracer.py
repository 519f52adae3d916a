"""Spans around palgebra's public functions, installed from outside.

Each target function is replaced at every binding site: the defining
module or class, and every palgebra or benchmark module that imported it
by name (``cli`` imports ``right_to_left``, ``parse_scalar`` and others
directly, so patching only the defining module would miss those calls).
A span's self time is its duration minus the time of the spans it
contains.  Spans are recorded only while ``active`` is set, which the
benchmark does around each operation's timed call and not around its
check.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

from palgebra import algebra, cli, errors, fields, linkage, parsing, polys, valuations

ALL = frozenset({"verify-rational", "engine-poly", "laurent-valuation", "cli-mixed"})

# (span name, owner, attribute, workloads on which the span must be reached)
TARGETS = (
    ("polys.p_gcd", polys, "p_gcd", {"verify-rational"}),
    ("polys.u_mul", polys, "u_mul", {"verify-rational"}),
    ("polys.p_div_exact", polys, "p_div_exact", {"verify-rational"}),
    ("polys.p_mul", polys, "p_mul", ALL - {"laurent-valuation"}),
    ("fields.RatFunc", fields.RatFunc, "__add__", ALL - {"laurent-valuation"}),
    ("fields.RatFunc", fields.RatFunc, "__sub__", {"verify-rational"}),
    ("fields.RatFunc", fields.RatFunc, "__rsub__", set()),
    ("fields.RatFunc", fields.RatFunc, "__mul__", ALL - {"laurent-valuation"}),
    ("fields.RatFunc", fields.RatFunc, "__truediv__", {"verify-rational"}),
    ("fields.RatFunc", fields.RatFunc, "__rtruediv__", set()),
    ("fields.LaurentScalar.mul", fields.LaurentScalar, "__mul__", {"laurent-valuation"}),
    ("fields.LaurentScalar.inverse", fields.LaurentScalar, "inverse", {"laurent-valuation"}),
    ("algebra.mul", algebra.SymbolAlgebra, "mul", ALL),
    ("algebra.power", algebra.SymbolAlgebra, "power", ALL),
    ("algebra.inverse", algebra.SymbolAlgebra, "inverse", ALL - {"engine-poly"}),
    ("algebra.conjugate", algebra.SymbolAlgebra, "conjugate", {"verify-rational", "cli-mixed"}),
    ("linkage.verify_presentation", linkage, "verify_presentation", {"verify-rational", "cli-mixed"}),
    ("linkage.right_to_left", linkage, "right_to_left", {"verify-rational", "cli-mixed"}),
    ("linkage.verify_lemma", linkage, "verify_lemma", {"verify-rational", "cli-mixed"}),
    ("valuations.counterexample_check", valuations, "counterexample_check",
     {"laurent-valuation", "cli-mixed"}),
    ("valuations.gauss_value", valuations.ValuedAlgebra, "gauss_value",
     {"laurent-valuation", "cli-mixed"}),
    ("parsing.parse", parsing, "parse_scalar", {"cli-mixed"}),
    ("parsing.parse", parsing, "parse_element", {"cli-mixed"}),
    ("cli.main", cli, "main", {"cli-mixed"}),
)

# spans whose individual durations are kept, tagged with the prime of the
# operation that caused them; their p50_ms metrics cover p = 5 only
PER_CALL = {"linkage.right_to_left", "linkage.verify_lemma"}


class DeadWrapper(RuntimeError):
    """A wrapped function was never reached on a workload that must reach it."""


class Tracer:
    def __init__(self):
        self.active = False
        self.tag = None
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)  # outermost spans of a name only
        self._open = Counter()
        self.durations = defaultdict(list)
        self.term_pairs = 0
        self.precision_exhausted = 0
        self._child = []  # time covered by child spans, one slot per open span
        self._reached = Counter()  # per (owner, attribute)
        self._restore = []

    # -- spans ---------------------------------------------------------------
    def _wrap(self, name, key, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if name == "algebra.mul":
                # bookkeeping, kept out of the enclosing span's self time
                tb = perf_counter()
                self.term_pairs += len(args[1].support()) * len(args[2].support())
                if self._child:
                    self._child[-1] += perf_counter() - tb
            self.calls[name] += 1
            self._reached[key] += 1
            self._child.append(0.0)
            self._open[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self._open[name] -= 1
                if not self._open[name]:
                    self.inclusive_s[name] += dur
                self.self_s[name] += dur - self._child.pop()
                if self._child:
                    self._child[-1] += dur
                if name in PER_CALL:
                    self.durations[name].append((self.tag, dur))

        return span

    def _count_precision_exhausted(self):
        cls = errors.PrecisionExhausted
        base_init = cls.__init__

        def init(exc, *args, **kwargs):
            if self.active:
                self.precision_exhausted += 1
            base_init(exc, *args, **kwargs)

        self._restore.append((cls, "__init__", cls.__dict__.get("__init__")))
        cls.__init__ = init

    # -- installation ----------------------------------------------------------
    def install(self, extra_modules=()):
        """Replace every binding of each target with its span wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "palgebra" or n.startswith("palgebra."))]
        modules.extend(extra_modules)
        for name, owner, attr, _ in TARGETS:
            fn = owner.__dict__[attr]
            wrapped = self._wrap(name, (owner.__name__, attr), fn)
            # a method's aliases (__radd__ = __add__) live in its class; a
            # function's bindings in the modules that define or import it
            sites = [owner] if isinstance(owner, type) else modules
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is fn:
                        setattr(site, key, wrapped)
                        self._restore.append((site, key, fn))
        self._count_precision_exhausted()

    def uninstall(self):
        for site, key, fn in reversed(self._restore):
            if fn is None:
                delattr(site, key)
            else:
                setattr(site, key, fn)
        self._restore.clear()

    def assert_reached(self, workload):
        dead = [f"{owner.__name__}.{attr}" for _, owner, attr, needed in TARGETS
                if workload in needed and self._reached[(owner.__name__, attr)] == 0]
        if dead:
            raise DeadWrapper(f"never reached on {workload}: {', '.join(dead)}")

    # -- metrics ---------------------------------------------------------------
    def metrics(self, op_seconds, overhead_ratio, contract_violations):
        def p50_ms(name):
            xs = [d for p, d in self.durations[name] if p == 5]
            return statistics.median(xs) * 1e3 if xs else 0.0

        rat_ops = self.calls["fields.RatFunc"]
        values = {
            "polys.p_gcd.calls": (self.calls["polys.p_gcd"], "count"),
            "polys.p_gcd.self_s": (self.self_s["polys.p_gcd"], "s"),
            "polys.p_gcd.share": (self.inclusive_s["polys.p_gcd"] / op_seconds, "ratio"),
            "polys.u_mul.calls": (self.calls["polys.u_mul"], "count"),
            "polys.u_mul.self_s": (self.self_s["polys.u_mul"], "s"),
            "polys.p_div_exact.calls": (self.calls["polys.p_div_exact"], "count"),
            "fields.RatFunc.gcd_per_op": (
                self.calls["polys.p_gcd"] / rat_ops if rat_ops else 0.0, "ratio"),
            "algebra.inverse.calls": (self.calls["algebra.inverse"], "count"),
            "algebra.inverse.self_s": (self.self_s["algebra.inverse"], "s"),
            "algebra.conjugate.calls": (self.calls["algebra.conjugate"], "count"),
            "algebra.conjugate.self_s": (self.self_s["algebra.conjugate"], "s"),
            "linkage.verify_presentation.calls": (self.calls["linkage.verify_presentation"], "count"),
            "linkage.verify_presentation.self_s": (self.self_s["linkage.verify_presentation"], "s"),
            "linkage.right_to_left.calls": (self.calls["linkage.right_to_left"], "count"),
            "linkage.right_to_left.self_s": (self.self_s["linkage.right_to_left"], "s"),
            "linkage.right_to_left.p50_ms": (p50_ms("linkage.right_to_left"), "ms"),
            "linkage.verify_lemma.calls": (self.calls["linkage.verify_lemma"], "count"),
            "linkage.verify_lemma.self_s": (self.self_s["linkage.verify_lemma"], "s"),
            "linkage.verify_lemma.p50_ms": (p50_ms("linkage.verify_lemma"), "ms"),
            "algebra.mul.calls": (self.calls["algebra.mul"], "count"),
            "algebra.mul.self_s": (self.self_s["algebra.mul"], "s"),
            "algebra.mul.term_pairs": (self.term_pairs, "count"),
            "algebra.power.calls": (self.calls["algebra.power"], "count"),
            "polys.p_mul.calls": (self.calls["polys.p_mul"], "count"),
            "polys.p_mul.self_s": (self.self_s["polys.p_mul"], "s"),
            "fields.RatFunc.self_s": (self.self_s["fields.RatFunc"], "s"),
            "fields.LaurentScalar.mul.calls": (self.calls["fields.LaurentScalar.mul"], "count"),
            "fields.LaurentScalar.mul.self_s": (self.self_s["fields.LaurentScalar.mul"], "s"),
            "fields.LaurentScalar.inverse.calls": (self.calls["fields.LaurentScalar.inverse"], "count"),
            "fields.LaurentScalar.inverse.self_s": (self.self_s["fields.LaurentScalar.inverse"], "s"),
            "fields.precision_exhausted": (self.precision_exhausted, "count"),
            "valuations.counterexample_check.self_s": (self.self_s["valuations.counterexample_check"], "s"),
            "valuations.gauss_value.calls": (self.calls["valuations.gauss_value"], "count"),
            "valuations.gauss_value.self_s": (self.self_s["valuations.gauss_value"], "s"),
            "parsing.parse.calls": (self.calls["parsing.parse"], "count"),
            "parsing.parse.self_s": (self.self_s["parsing.parse"], "s"),
            "cli.main.calls": (self.calls["cli.main"], "count"),
            "cli.main.self_s": (self.self_s["cli.main"], "s"),
            "cli.contract_violations": (contract_violations, "count"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
