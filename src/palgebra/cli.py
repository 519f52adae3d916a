"""Command-line front end.

Verbs: link, verify-lemma, decompose, identity, scale, counterexample,
eval.  Scalars and elements are given as expressions in a, b (plus x, y
for elements); --let name=expr binds an extra name, an ASCII identifier.
Output is a text report with one verification line per checked relation;
--json emits the same data as a machine-readable object with fixed key order.

Every check line carries a verdict reached by exact comparison: every
value is kept in one canonical form, so two values agree when their
representations are equal.  Over the Laurent field too every value is an
exact rational function of a and b; --precision only sets how far a value
whose denominator is not a monomial is expanded in print, as terms and a
trailing + O(...), while a Laurent polynomial prints exactly.  The
counterexample counts compare integers.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage or
input error: malformed syntax, a -p that is not prime or exceeds
fields.MAX_PRIME (2^16), a zero right slot, a division by zero or by a
zero divisor inside an input expression, a --let name that is not an
ASCII identifier or rebinds a, b, x or y, --precision over a rational
field, a --precision below 1 or above fields.MAX_PRECISION, a
counterexample --samples below 1, or a scale --u that is zero or has y.
"""

from __future__ import annotations

import argparse
import functools
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
    chain_identity,
    right_to_left,
    scale_slot_by_norm,
    verify_lemma,
)
from .parsing import is_name, parse_element, parse_scalar
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

    def check(self, relation, ok, expected="pass", computed=None, brief=False):
        """One check line with a verdict ``ok`` reached elsewhere, such as a
        count; a brief line shows only the status in text.  Without sides,
        JSON shows "pass" against "pass" or "fail"."""
        if computed is None:
            computed = "pass" if ok else "fail"
        self.checks.append(CheckLine(relation, str(expected), str(computed), ok, brief))

    def compare(self, relation, expected, computed, brief=False):
        """One check line whose verdict is that its two sides, two scalars
        or two elements of one algebra, are equal."""
        self.check(relation, expected == computed, expected, computed, brief)

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


# the precision of a Laurent field, and counterexample's, unless --precision is given
DEFAULT_PRECISION = 8


# built once, by the first main call: importing this module builds nothing
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="palgebra",
        description="exact computations in symbol algebras of prime degree",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, handler, help, slots=(), elements=()):
        """A verb with -p and --json; one with slots also takes its slot and
        element expressions, --field, --precision and --let (_parse_inputs)."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=handler, slots=slots, elements=elements)
        sp.add_argument("-p", type=int, required=True, metavar="PRIME", help="the prime degree")
        for slot in slots:
            sp.add_argument(f"--{slot}", required=True, metavar="EXPR", help=f"{slot} slot expression")
        for opt in elements:
            sp.add_argument(f"--{opt}", required=True, metavar="ELEM", help=f"element expression {opt}")
        if slots:
            sp.add_argument("--field", choices=["rational", "laurent"], default="rational")
            sp.add_argument("--precision", type=int, default=None,
                            help="how far laurent values are expanded in print")
            sp.add_argument("--let", action="append", default=[], metavar="NAME=EXPR",
                            help="bind a scalar name usable in expressions")
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        return sp

    slots = ("alpha", "beta")
    verb("link", _cmd_link, "common left slot for a right-linked pair",
         slots=("alpha", "gamma", "beta"))
    verb("verify-lemma", _cmd_verify_lemma, "check (x+y)^p-(x+y) = x^p-x+y^p for a commutation pair",
         slots, elements=("x", "t"))
    verb("decompose", _cmd_decompose, "eigendecomposition under v -> v*x - x*v", slots, elements=("t",))
    verb("identity", _cmd_identity, "the presentation [alpha+beta, beta) of the same algebra", slots)
    verb("scale", _cmd_scale, "rescale the right slot by a norm from F[x]", slots, elements=("u",))
    cx = verb("counterexample", _cmd_counterexample, "left-linked but not right-linked family check")
    cx.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    cx.add_argument("--samples", type=int, default=20)
    cx.add_argument("--seed", type=int, default=0)
    verb("eval", _cmd_eval, "normal form of an element expression", slots, elements=("expr",))
    return parser


def _field_from_args(args):
    if args.field == "laurent":
        precision = args.precision if args.precision is not None else DEFAULT_PRECISION
        return FieldDescriptor("laurent", args.p, precision)
    if args.precision is not None:
        raise ValueError("--precision only applies to laurent fields")
    return FieldDescriptor("rational", args.p)


def _bindings(args, field):
    """The --let bindings, each an ASCII identifier that expressions can name
    and that is not one of the built-in names a, b, x, y."""
    env = {}
    for item in args.let:
        name, eq, expr = item.partition("=")
        name = name.strip()
        if not eq or not is_name(name):
            raise ValueError(f"malformed --let binding {item!r}: expected NAME=EXPR")
        if name in ("a", "b", "x", "y"):
            raise ValueError(f"--let cannot rebind the built-in name {name!r}")
        env[name] = parse_scalar(expr, field, env)
    return env


def _parse_inputs(args):
    """The preamble of the verbs with slots: the field, the --let bindings,
    the slots, the algebra [alpha, beta) and the elements, read in that order.
    Returns the algebra, the values by flag name and a report whose inputs are
    p, the field and the values in declaration order.  Input that names no
    value (a division by zero or by a zero divisor, or a zero right slot) is
    a usage error, exit 2; the library reports it as failed mathematics."""
    fieldd = _field_from_args(args)
    try:
        env = _bindings(args, fieldd)
        values = {slot: parse_scalar(getattr(args, slot), fieldd, env) for slot in args.slots}
        A = make_algebra(args.p, values["alpha"], values["beta"], fieldd)
        for name in args.elements:
            values[name] = parse_element(getattr(args, name), A, env)
    except (DivisionByZero, NotInvertible, InvalidSlot) as exc:
        raise ValueError(f"{type(exc).__name__}: {exc}") from exc
    inputs = {"p": args.p, "field": str(fieldd)}
    inputs.update((name, str(value)) for name, value in values.items())
    return A, values, Report(args.verb, inputs)


def _cmd_link(args, A, values, report):
    res = right_to_left(A.alpha, values["gamma"], A.beta, A.p, A.field)
    report.results.update(res.to_dict())
    left, right, summed = res.common_left, res.pres_A.right, A.alpha + res.pres_A.right
    wit, wit2 = res.witness_A, res.witness_Aprime
    report.compare("z^p - z in A", left, wit.claimed_left)
    report.compare("w^p in A", right, wit.claimed_right)
    report.compare("w z w^-1 = z + 1 in A", wit.z1w, wit.wz, brief=True)
    report.compare("z'^p - z' in A'", left, wit2.claimed_left)
    report.compare("y' z' y'^-1 = z' + 1 in A'", wit2.z1w, wit2.wz, brief=True)
    report.compare("alpha + (alpha + lambda^p - lambda) beta = gamma + lambda^p beta", left, summed)
    return report


def _cmd_verify_lemma(args, A, values, report):
    lem = verify_lemma(A, values["x"], values["t"])
    report.results["k"] = lem.k
    report.results["m"] = lem.m
    report.compare("(x+t)^p - (x+t) = (x^p - x) + t^p", lem.rhs, lem.lhs)
    report.check("t^m (x+t) t^-m = x + t + 1", lem.shift_conjugation_ok, brief=True)
    return report


def _cmd_decompose(args, A, values, report):
    t = values["t"]
    comps = A.ad_decompose(t, A.x())
    for i, part in enumerate(comps):
        report.results[f"t_{i}"] = str(part)
    total = comps.total()
    report.compare("sum of components", t, total)
    for i, part in enumerate(comps):
        eigen, lhs = A.scale(i, part), A.commutator(part, A.x())
        report.compare(f"t_{i} x - x t_{i} = {i} t_{i}", eigen, lhs)
    return report


def _cmd_identity(args, A, values, report):
    new_pres, wit = chain_identity(A)
    report.results["presentation"] = str(new_pres)
    report.results["witness"] = wit.to_dict()
    left = A.alpha + A.beta
    report.compare("z^p - z", left, wit.claimed_left)
    report.compare("w^p", A.beta, wit.claimed_right)
    report.compare("w z w^-1 = z + 1", wit.z1w, wit.wz, brief=True)
    return report


def _cmd_scale(args, A, values, report):
    u = values["u"]
    if u.is_zero() or any(j for (_, j), _ in u.support()):
        raise ValueError(f"--u must be a nonzero element of F[x], got {u}")
    new_pres, wit, norm = scale_slot_by_norm(A, u)
    report.results["norm"] = str(norm)
    report.results["presentation"] = str(new_pres)
    report.results["witness"] = wit.to_dict()
    right = norm * A.beta
    report.compare("(u y)^p = N(u) beta", right, wit.claimed_right)
    report.compare("(u y) x (u y)^-1 = x + 1", wit.z1w, wit.wz, brief=True)
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
    total, half = len(rep.records), len(rep.records) // 2
    for relation, want, got in (
        ("p-central norm identity (u y)^p = N(u) slot", total, norm_ok),
        ("a-coordinate of v((u y)^p) = 1 mod p in [1,a)", half, res_a),
        ("b-coordinate of v((u y)^p) = 1 mod p in [1,b)", half, res_b),
    ):
        report.check(relation, got == want, f"{want} pass", f"{got} pass")
    report.check("subfield value groups distinct across the two algebras",
                 rep.lattices_always_distinct, brief=True)
    report.results["verified"] = list(rep.verified_facts)
    report.results["background"] = list(rep.background_facts)
    return report


def _cmd_eval(args, A, values, report):
    report.inputs["expr"] = args.expr  # the text as given; the key keeps its place
    report.results["normal_form"] = str(values["expr"])
    return report


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT
    try:
        report = args.run(args, *_parse_inputs(args)) if args.slots else args.run(args)
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
