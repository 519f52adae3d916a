"""Command-line front end.

Verbs: link, verify-lemma, decompose, identity, scale, counterexample,
eval.  Scalars and elements are given as expressions in a, b (plus x, y
for elements); --let name=expr binds extra names.  Output is a text
report with one verification line per checked relation; --json emits the
same data as a machine-readable object with fixed key order.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage or
input error: malformed syntax, a -p that is not prime, a zero right slot,
or a division by zero or by a zero divisor inside an input expression.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import dataclass, field as dc_field

from .algebra import make_algebra
from .errors import (
    DivisionByZero,
    ExprSyntaxError,
    InvalidPrime,
    InvalidSlot,
    NotInvertible,
    PAlgebraError,
)
from .fields import FieldDescriptor
from .linkage import (
    SymbolPresentation,
    chain_identity,
    right_to_left,
    scale_slot_by_norm,
    verify_lemma,
)
from .parsing import parse_element, parse_scalar
from .valuations import counterexample_check

USAGE_EXIT = 2
MATH_EXIT = 1


@dataclass
class CheckLine:
    relation: str
    expected: str
    computed: str
    ok: bool
    brief: bool = False  # the text line shows the status only

    def to_dict(self):
        return {
            "relation": self.relation,
            "expected": self.expected,
            "computed": self.computed,
            "pass": self.ok,
        }


@dataclass
class Report:
    command: str
    inputs: dict
    results: dict = dc_field(default_factory=dict)
    checks: list = dc_field(default_factory=list)

    def check(self, relation, expected, computed):
        ok = expected == computed
        self.checks.append(CheckLine(relation, str(expected), str(computed), ok))
        return ok

    def record(self, relation, ok, expected="pass", computed=None):
        """A check the caller decided; its text line carries only the status.
        Without sides, JSON shows "pass" against "pass" or "fail"."""
        if computed is None:
            computed = "pass" if ok else "fail"
        self.checks.append(CheckLine(relation, str(expected), str(computed), ok, brief=True))

    @property
    def ok(self):
        return all(line.ok for line in self.checks)

    def render_text(self):
        lines = [f"command: {self.command}"]
        for key, val in self.inputs.items():
            lines.append(f"input {key} = {val}")
        for key, val in self.results.items():
            if isinstance(val, dict):
                body = ", ".join(f"{k} = {v}" for k, v in val.items())
                lines.append(f"{key}: {body}")
            elif isinstance(val, list):
                for item in val:
                    lines.append(f"{key}: {item}")
            else:
                lines.append(f"{key} = {val}")
        for chk in self.checks:
            status = "PASS" if chk.ok else "FAIL"
            if chk.brief:
                lines.append(f"check {chk.relation}: {status}")
            else:
                lines.append(
                    f"check {chk.relation}: expected {chk.expected}, computed {chk.computed}: {status}"
                )
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)

    def to_json(self):
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "checks": [c.to_dict() for c in self.checks],
            "status": "pass" if self.ok else "fail",
        }
        return json.dumps(payload, indent=2)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="palgebra",
        description="exact computations in symbol algebras of prime degree",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(sp, slots=("alpha", "beta"), element_opts=()):
        sp.add_argument("-p", type=int, required=True, metavar="PRIME", help="the prime degree")
        for slot in slots:
            sp.add_argument(f"--{slot}", required=True, metavar="EXPR", help=f"{slot} slot expression")
        for opt in element_opts:
            sp.add_argument(f"--{opt}", required=True, metavar="ELEM", help=f"element expression {opt}")
        sp.add_argument("--field", choices=["rational", "laurent"], default="rational")
        sp.add_argument("--precision", type=int, default=None, help="window for laurent fields")
        sp.add_argument("--let", action="append", default=[], metavar="NAME=EXPR",
                        help="bind a scalar name usable in expressions")
        sp.add_argument("--json", action="store_true", help="emit a JSON report")

    common(sub.add_parser("link", help="common left slot for a right-linked pair"),
           slots=("alpha", "gamma", "beta"))
    common(sub.add_parser("verify-lemma", help="check (x+y)^p-(x+y) = x^p-x+y^p for a commutation pair"),
           element_opts=("x", "t"))
    common(sub.add_parser("decompose", help="eigendecomposition under v -> v*x - x*v"),
           element_opts=("t",))
    common(sub.add_parser("identity", help="the presentation [alpha+beta, beta) of the same algebra"))
    common(sub.add_parser("scale", help="rescale the right slot by a norm from F[x]"),
           element_opts=("u",))
    cx = sub.add_parser("counterexample", help="left-linked but not right-linked family check")
    cx.add_argument("-p", type=int, required=True, metavar="PRIME")
    cx.add_argument("--precision", type=int, default=8)
    cx.add_argument("--samples", type=int, default=20)
    cx.add_argument("--seed", type=int, default=0)
    cx.add_argument("--json", action="store_true")
    common(sub.add_parser("eval", help="normal form of an element expression"),
           element_opts=("expr",))
    return parser


def _field_from_args(args):
    if args.field == "laurent":
        precision = args.precision if args.precision is not None else 8
        return FieldDescriptor("laurent", args.p, precision)
    if args.precision is not None:
        raise ExprSyntaxError("--precision only applies to laurent fields", 0)
    return FieldDescriptor("rational", args.p)


@contextlib.contextmanager
def _reading_input():
    """Input that names no value (a division by zero or by a zero divisor,
    or a zero right slot) is a usage error, exit 2; the library reports it
    as failed mathematics, exit 1."""
    try:
        yield
    except (DivisionByZero, NotInvertible, InvalidSlot) as exc:
        raise ValueError(f"{type(exc).__name__}: {exc}") from exc


def _element(text, algebra, env):
    with _reading_input():
        return parse_element(text, algebra, env)


def _bindings(args, field):
    env = {}
    for item in args.let:
        name, eq, expr = item.partition("=")
        if not eq or not name.strip():
            raise ExprSyntaxError(f"malformed --let binding {item!r}", 0)
        env[name.strip()] = parse_scalar(expr, field, env)
    return env


def _parse_inputs(args, slots=("alpha", "beta")):
    """The preamble shared by the algebra verbs: the base field, the --let
    bindings and the slot flags, parsed in that order, and a report whose
    inputs start with p, the field and the slots."""
    fieldd = _field_from_args(args)
    with _reading_input():
        env = _bindings(args, fieldd)
        values = [parse_scalar(getattr(args, slot), fieldd, env) for slot in slots]
        if values[slots.index("beta")].is_zero():
            raise InvalidSlot("the right slot must be nonzero")
    inputs = {"p": args.p, "field": str(fieldd)}
    inputs.update((slot, str(value)) for slot, value in zip(slots, values))
    return fieldd, env, values, Report(args.verb, inputs)


def _record_conjugation(report, relation, witness):
    """The computed w z w^-1 against z + 1, equal as far as windows certify."""
    expected = witness.z + 1
    ok = expected.algebra.certified_equal(witness.conjugation, expected)
    report.record(relation, ok, expected, witness.conjugation)


def _cmd_link(args):
    fieldd, _, (alpha, gamma, beta), report = _parse_inputs(args, ("alpha", "gamma", "beta"))
    res = right_to_left(alpha, gamma, beta, args.p, fieldd)
    report.results["lambda"] = str(res.lam)
    report.results["common_left"] = str(res.common_left)
    report.results["presentation_A"] = str(res.pres_A)
    report.results["presentation_Aprime"] = str(res.pres_Aprime)
    report.results["witness_A"] = res.witness_A.to_dict()
    report.results["witness_Aprime"] = res.witness_Aprime.to_dict()
    report.check("z^p - z in A", str(res.common_left), str(res.witness_A.claimed_left))
    report.check("w^p in A", str(res.pres_A.right), str(res.witness_A.claimed_right))
    _record_conjugation(report, "w z w^-1 = z + 1 in A", res.witness_A)
    report.check("z'^p - z' in A'", str(res.common_left), str(res.witness_Aprime.claimed_left))
    _record_conjugation(report, "y' z' y'^-1 = z' + 1 in A'", res.witness_Aprime)
    report.check(
        "alpha + (alpha + lambda^p - lambda) beta = gamma + lambda^p beta",
        str(res.common_left),
        str(alpha + res.pres_A.right),
    )
    return report


def _cmd_verify_lemma(args):
    fieldd, env, (alpha, beta), report = _parse_inputs(args)
    A = make_algebra(args.p, alpha, beta, fieldd)
    x_el = _element(args.x, A, env)
    t_el = _element(args.t, A, env)
    report.inputs.update(x=str(x_el), t=str(t_el))
    lem = verify_lemma(A, x_el, t_el)
    report.results["k"] = lem.k
    report.results["m"] = lem.m
    report.check("(x+t)^p - (x+t) = (x^p - x) + t^p", str(lem.rhs), str(lem.lhs))
    report.record("t^m (x+t) t^-m = x + t + 1", lem.shift_conjugation_ok)
    return report


def _cmd_decompose(args):
    fieldd, env, (alpha, beta), report = _parse_inputs(args)
    A = make_algebra(args.p, alpha, beta, fieldd)
    t = _element(args.t, A, env)
    report.inputs["t"] = str(t)
    comps = A.ad_decompose(t, A.x())
    for i, part in enumerate(comps):
        report.results[f"t_{i}"] = str(part)
    report.check("sum of components", str(t), str(comps.total()))
    for i, part in enumerate(comps):
        lhs = A.commutator(part, A.x())
        report.check(f"t_{i} x - x t_{i} = {i} t_{i}", str(A.scale(i, part)), str(lhs))
    return report


def _cmd_identity(args):
    fieldd, _, (alpha, beta), report = _parse_inputs(args)
    pres = SymbolPresentation(alpha, beta, args.p, fieldd)
    new_pres, witness = chain_identity(pres)
    report.results["presentation"] = str(new_pres)
    report.results["witness"] = witness.to_dict()
    report.check("z^p - z", str(alpha + beta), str(witness.claimed_left))
    report.check("w^p", str(beta), str(witness.claimed_right))
    _record_conjugation(report, "w z w^-1 = z + 1", witness)
    return report


def _cmd_scale(args):
    fieldd, env, (alpha, beta), report = _parse_inputs(args)
    pres = SymbolPresentation(alpha, beta, args.p, fieldd)
    A = pres.to_algebra()
    u = _element(args.u, A, env)
    report.inputs["u"] = str(u)
    norm = A.norm_Fx(u)
    new_pres, witness = scale_slot_by_norm(pres, u)
    report.results["norm"] = str(norm)
    report.results["presentation"] = str(new_pres)
    report.results["witness"] = witness.to_dict()
    report.check("(u y)^p = N(u) beta", str(norm * beta), str(witness.claimed_right))
    _record_conjugation(report, "(u y) x (u y)^-1 = x + 1", witness)
    return report


def _cmd_counterexample(args):
    rep = counterexample_check(args.p, args.precision, args.samples, args.seed)
    report = Report(
        "counterexample",
        {"p": args.p, "precision": args.precision, "samples": args.samples, "seed": args.seed},
    )
    report.results["value_group [1,a)"] = rep.value_group_a
    report.results["value_group [1,b)"] = rep.value_group_b
    norm_ok = sum(1 for r in rep.records if r.norm_identity_ok)
    res_a = sum(1 for r in rep.records if r.algebra == "[1,a)" and r.residue_ok)
    res_b = sum(1 for r in rep.records if r.algebra == "[1,b)" and r.residue_ok)
    half = len(rep.records) // 2
    report.check("p-central norm identity (u y)^p = N(u) slot", f"{len(rep.records)} pass",
                 f"{norm_ok} pass")
    report.check("a-coordinate of v((u y)^p) = 1 mod p in [1,a)", f"{half} pass", f"{res_a} pass")
    report.check("b-coordinate of v((u y)^p) = 1 mod p in [1,b)", f"{half} pass", f"{res_b} pass")
    report.record("subfield value groups distinct across the two algebras",
                  rep.lattices_always_distinct)
    for note in rep.verified_facts:
        report.results.setdefault("verified", []).append(note)
    for note in rep.background_facts:
        report.results.setdefault("background", []).append(note)
    return report


def _cmd_eval(args):
    fieldd, env, (alpha, beta), report = _parse_inputs(args)
    A = make_algebra(args.p, alpha, beta, fieldd)
    el = _element(args.expr, A, env)
    report.inputs["expr"] = args.expr
    report.results["normal_form"] = str(el)
    return report


_HANDLERS = {
    "link": _cmd_link,
    "verify-lemma": _cmd_verify_lemma,
    "decompose": _cmd_decompose,
    "identity": _cmd_identity,
    "scale": _cmd_scale,
    "counterexample": _cmd_counterexample,
    "eval": _cmd_eval,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT
    try:
        report = _HANDLERS[args.verb](args)
    except ExprSyntaxError as exc:
        print(f"palgebra: syntax error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except InvalidPrime as exc:
        # every verb takes its prime from -p, so a non-prime is bad input
        print(f"palgebra: invalid input: InvalidPrime: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except PAlgebraError as exc:
        print(f"palgebra: {type(exc).__name__}: {exc}", file=sys.stderr)
        return MATH_EXIT
    except (ValueError, TypeError) as exc:
        print(f"palgebra: invalid input: {exc}", file=sys.stderr)
        return USAGE_EXIT
    print(report.to_json() if args.json else report.render_text())
    return 0 if report.ok else MATH_EXIT


if __name__ == "__main__":
    sys.exit(main())
