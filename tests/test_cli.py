"""CLI behavior: verbs, exit codes, JSON output, golden transcripts."""

import argparse
import json
import random
import re
import string
import subprocess
import sys
from pathlib import Path

import pytest

from palgebra import (
    FieldDescriptor,
    SymbolAlgebra,
    make_algebra,
    parse_scalar,
    polys,
    scale_slot_by_norm,
)
from palgebra.cli import Report, main

from support import SRC

GOLDENS = Path(__file__).parent / "goldens"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- golden transcripts --------------------------------------------------------

def test_golden_link(capsys):
    code, out, _ = run(capsys, "link", "-p", "2", "--alpha", "a", "--gamma", "a+a*b", "--beta", "b")
    assert code == 0
    assert out == (GOLDENS / "link_p2.txt").read_text()


def test_golden_verify_lemma(capsys):
    code, out, _ = run(capsys, "verify-lemma", "-p", "3", "--x", "x", "--t", "y^2",
                       "--alpha", "a", "--beta", "b")
    assert code == 0
    assert out == (GOLDENS / "verify_lemma_p3.txt").read_text()


def test_golden_counterexample(capsys):
    code, out, _ = run(capsys, "counterexample", "-p", "2", "--precision", "6",
                       "--samples", "50", "--seed", "7")
    assert code == 0
    assert out == (GOLDENS / "counterexample_p2.txt").read_text()


# --- verbs ------------------------------------------------------------------------

def test_eval_normalizes(capsys):
    code, out, _ = run(capsys, "eval", "-p", "2", "--alpha", "a", "--beta", "b",
                       "--expr", "y*x")
    assert code == 0
    assert "normal_form = y + x*y" in out


def test_eval_with_let_binding(capsys):
    code, out, _ = run(capsys, "eval", "-p", "2", "--alpha", "a", "--beta", "b",
                       "--let", "l=a", "--expr", "x + l*y + x*y")
    assert code == 0
    assert "normal_form" in out


def test_identity_verb(capsys):
    code, out, _ = run(capsys, "identity", "-p", "3", "--alpha", "a", "--beta", "b")
    assert code == 0
    assert "[a + b, b)_3" in out
    assert "result: PASS" in out


def test_scale_verb(capsys):
    code, out, _ = run(capsys, "scale", "-p", "2", "--alpha", "a", "--beta", "b", "--u", "x")
    assert code == 0
    assert "[a, a*b)_2" in out


def test_decompose_verb(capsys):
    code, out, _ = run(capsys, "decompose", "-p", "3", "--alpha", "a", "--beta", "b",
                       "--t", "x + y + 2*x*y^2")
    assert code == 0
    assert "t_0 = x" in out
    assert "t_1 = y" in out
    assert "t_2 = 2*x*y^2" in out
    assert "result: PASS" in out


def test_eval_at_a_large_prime(capsys):
    # elements store only their nonzero coefficients, so p = 10007 does not
    # build a p x p grid
    code, out, _ = run(capsys, "eval", "-p", "10007", "--alpha", "a", "--beta", "b",
                       "--expr", "x*y")
    assert code == 0
    assert "normal_form = x*y" in out


def test_laurent_field_eval(capsys):
    code, out, _ = run(capsys, "eval", "-p", "2", "--field", "laurent", "--precision", "4",
                       "--alpha", "1", "--beta", "a", "--expr", "1/(1-b)")
    assert code == 0
    assert "1 + b + b^2 + b^3 + O(b^4)" in out


def test_laurent_let_inverts_a_scalar_with_an_exact_a_axis(capsys):
    # 1/(1+b) - 1 stores every a-term of its b-levels: its leading term -b
    # is certified, so the scalar inverse -(1+b)/b is decided
    code, out, _ = run(capsys, "eval", "-p", "3", "--field", "laurent", "--alpha", "a",
                       "--beta", "b", "--let", "u=1/(1/(1+b) - 1)", "--expr", "u*x")
    assert code == 0
    assert "normal_form = ((2 + 2*b)/b + O(b^6))*x" in out


@pytest.mark.parametrize("expr", ["1/(1/(1+a))", "1/(1/(1+b) - 1)"])
def test_laurent_element_inverse_of_a_scalar_matches_the_scalar_route(capsys, expr):
    # the outer / inverts the element A.scalar(c); it once left an
    # uncertified residue at its pivot and exhausted the window, while the
    # let-bound scalar inverse of the same value was decided
    common = ("eval", "-p", "3", "--field", "laurent", "--alpha", "a", "--beta", "b")
    code, out, _ = run(capsys, *common, "--expr", expr)
    code_let, out_let, _ = run(capsys, *common, "--let", f"u={expr}", "--expr", "u")
    assert code == code_let == 0
    assert out.replace(f"input expr = {expr}", "input expr = u") == out_let


# --- json output -----------------------------------------------------------------------

def test_json_output_matches_text_fields(capsys):
    code, out, _ = run(capsys, "link", "-p", "2", "--alpha", "a", "--gamma", "a+a*b",
                       "--beta", "b", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["results"]["lambda"] == "0"
    assert payload["results"]["common_left"] == "a*b + a"
    assert all(chk["pass"] for chk in payload["checks"])
    code2, text_out, _ = run(capsys, "link", "-p", "2", "--alpha", "a", "--gamma", "a+a*b",
                             "--beta", "b")
    assert "lambda = 0" in text_out
    assert "common_left = a*b + a" in text_out


def test_json_conjugation_checks_carry_computed_elements(capsys):
    # the conjugation checks compare the computed w z (computed) with the
    # computed (z + 1) w (expected); w^p, a nonzero scalar, makes w a unit
    code, out, _ = run(capsys, "link", "-p", "2", "--alpha", "a", "--gamma", "a+a*b",
                       "--beta", "b", "--json")
    assert code == 0
    checks = {chk["relation"]: chk for chk in json.loads(out)["checks"]}
    assert checks["w z w^-1 = z + 1 in A"]["expected"] == "a*b + a*y"
    assert checks["w z w^-1 = z + 1 in A"]["computed"] == "a*b + a*y"
    assert checks["y' z' y'^-1 = z' + 1 in A'"]["computed"] == "y + x*y"
    code, out, _ = run(capsys, "identity", "-p", "3", "--alpha", "a", "--beta", "b", "--json")
    chk = json.loads(out)["checks"][-1]
    assert (chk["expected"], chk["computed"], chk["pass"]) == (
        "y + y^2 + x*y", "y + y^2 + x*y", True)


def test_laurent_conjugation_check_is_certified_not_textual(capsys):
    # products that differ only beyond the window print differently and
    # pass; a difference in a certified term fails
    field = FieldDescriptor("laurent", 3, 5)
    A = make_algebra(3, field.one(), field.gen("a"), field)
    _, witness, _ = scale_slot_by_norm(A, A.one() + field.gen("a") * A.x())
    u = parse_scalar("1/(1+a)", field)
    remainder = u * (1 + field.gen("a")) - 1  # 0 + O(a^5)
    report = Report("scale", {})
    relation = "(u y) x (u y)^-1 = x + 1"
    for extra in (remainder, field.one()):
        z1w = witness.z1w + extra * A.x()
        report.compare(relation, z1w, witness.wz, brief=True)
    uncertified, certified = report.checks
    assert "O(a^5)" in uncertified.expected and uncertified.expected != uncertified.computed
    assert uncertified.ok
    assert not certified.ok
    code, out, _ = run(capsys, "scale", "-p", "3", "--alpha", "1", "--beta", "a", "--u",
                       "1 + a*x", "--field", "laurent", "--precision", "5")
    assert code == 0
    assert "check (u y) x (u y)^-1 = x + 1: PASS" in out


def test_laurent_decompose_checks_pass_on_certified_terms(capsys):
    # the sum and the t_0 eigen relation differ only by 0 + O(a^5) entries:
    # the sides print differently and the relations hold
    code, out, _ = run(capsys, "decompose", "-p", "3", "--alpha", "a", "--beta", "b",
                       "--t", "(1/(1+a))*y+x", "--field", "laurent", "--precision", "5", "--json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 4 and all(chk["pass"] for chk in checks)
    assert checks[0]["expected"] != checks[0]["computed"]


def test_laurent_lemma_hypothesis_is_decided_on_certified_terms(capsys):
    # y x - x y is t plus an x*y entry 0 + O(a^5), so k = 1 holds; the shift
    # check's inverse may still run out of window, which is not a failed hypothesis
    code, _, err = run(capsys, "verify-lemma", "-p", "3", "--x", "x", "--t", "(1/(1+a))*y",
                       "--alpha", "a", "--beta", "b", "--field", "laurent", "--precision", "5")
    assert code in (0, 1)
    assert "HypothesisFails" not in err


LEMMA_WITH_A_SERIES = ("verify-lemma", "--x", "x", "--t", "(1/(1+a) + x)*y", "--beta", "b")


@pytest.mark.parametrize("p, alpha, window", [
    (p, alpha, window) for p in (2, 3, 5) for alpha in ("a", "0") for window in (5, 8)
    if (p, alpha, window) != (2, "a", 5)
])
def test_laurent_lemma_with_a_series_coefficient_passes(capsys, p, alpha, window):
    # the shift check inverts scalars whose tracked lower bound la is loose;
    # the series inverse once gave up every a-bound on them, its check product
    # certified no term and the lemma was undecided where the rational field
    # passes
    argv = (*LEMMA_WITH_A_SERIES, "-p", str(p), "--alpha", alpha)
    assert run(capsys, *argv)[0] == 0
    code, out, _ = run(capsys, *argv, "--field", "laurent", "--precision", str(window))
    assert code == 0
    assert out.endswith("result: PASS\n")


def test_laurent_lemma_with_a_series_coefficient_stays_undecided_at_p2_window_5(capsys):
    code, out, err = run(capsys, *LEMMA_WITH_A_SERIES, "-p", "2", "--alpha", "a",
                         "--field", "laurent", "--precision", "5")
    assert (code, out) == (1, "")
    assert err == "palgebra: PrecisionExhausted: window too small to certify the inverse\n"


def test_scale_computes_the_norm_once(capsys, monkeypatch):
    calls = []
    norm_Fx = SymbolAlgebra.norm_Fx
    monkeypatch.setattr(SymbolAlgebra, "norm_Fx", lambda A, u: calls.append(1) or norm_Fx(A, u))
    code, _, _ = run(capsys, "scale", "-p", "5", "--alpha", "a", "--beta", "b",
                     "--u", "1 + a*x + x^3")
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv, built", [
    (["identity", "-p", "3", "--alpha", "a", "--beta", "b"], 1),
    (["scale", "-p", "3", "--alpha", "a", "--beta", "b", "--u", "1 + x"], 1),
    # right_to_left builds [alpha, beta) again, and [gamma, beta)
    (["link", "-p", "2", "--alpha", "a", "--gamma", "a+a*b", "--beta", "b"], 3),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_algebras_built_per_call(capsys, monkeypatch, argv, built):
    calls = []
    init = SymbolAlgebra.__init__

    def counting_init(A, *args):
        calls.append(1)
        init(A, *args)

    monkeypatch.setattr(SymbolAlgebra, "__init__", counting_init)
    assert run(capsys, *argv)[0] == 0
    assert len(calls) == built


def test_laurent_slot_with_a_non_monomial_denominator(capsys):
    code, out, _ = run(capsys, "identity", "-p", "7", "--alpha", "a", "--beta", "1/(a+b)",
                       "--field", "laurent")
    assert code == 0
    assert out.endswith("result: PASS\n")


@pytest.mark.parametrize("argv", [
    ("link", "-p", "2", "--alpha", "a", "--gamma", "1/(1+a)", "--beta", "b"),
    ("link", "-p", "3", "--alpha", "1/(1+a)", "--gamma", "a", "--beta", "b"),
    ("scale", "-p", "3", "--alpha", "1", "--beta", "a", "--u", "1/(1+a) + x",
     "--precision", "5"),
])
def test_undecided_laurent_witness_is_precision_exhausted(capsys, argv):
    # an off-diagonal coefficient with no certified term is not evidence that
    # w^p or a norm is not a scalar: the window is too small, not the maths wrong
    code, _, err = run(capsys, *argv, "--field", "laurent")
    assert code == 1
    assert err.startswith("palgebra: PrecisionExhausted:")


def test_laurent_slot_equal_to_one_up_to_its_window(capsys):
    # beta = (1+a)/(1+a) = 1 + O(a^5): inverting it once raised OverflowError
    code, out, err = run(capsys, "link", "-p", "3", "--alpha", "a", "--gamma", "a+b",
                         "--beta", "(1+a)/(1+a)", "--field", "laurent", "--precision", "5")
    assert (code, out) == (1, "")
    assert err.startswith("palgebra: PrecisionExhausted:")


def test_laurent_inverse_with_no_certified_check_exits_1(capsys):
    # at window 1 the check products certify no term at all, so the inverse
    # is undecided; it once printed a normal form and "result: PASS"
    code, out, err = run(capsys, "eval", "-p", "3", "--alpha", "1", "--beta", "a",
                         "--field", "laurent", "--precision", "1", "--expr",
                         "1/(a + a*y + b*x*y + a*x*y^2 + a*x^2 + b*x^2*y^2)")
    assert (code, out) == (1, "")
    assert err == "palgebra: PrecisionExhausted: window too small to certify the inverse\n"


def test_zero_divisor_generator_exits_1(capsys):
    # N(x) = x^2 + x = 0 in [0, b)_2, so w = x y is nilpotent
    code, _, err = run(capsys, "scale", "-p", "2", "--alpha", "0", "--beta", "b", "--u", "x")
    assert code == 1
    assert err == "palgebra: NotInvertible: element is a zero divisor\n"


@pytest.mark.parametrize("u", ["y", "x*y", "0", "x-x"])
def test_scale_u_outside_fx_or_zero_exit_2(capsys, u):
    # N(u) is defined only for a nonzero u in F[x]: any other u is bad input
    code, out, err = run(capsys, "scale", "-p", "3", "--alpha", "a", "--beta", "b", "--u", u)
    assert (code, out) == (2, "")
    assert err.startswith("palgebra: invalid input: --u must be a nonzero element of F[x]")


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(parser, *args, **kwargs):
        built.append(1)
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    counts = []
    for argv in (["identity", "-p", "3", "--alpha", "a", "--beta", "b"],
                 ["eval", "-p", "3", "--alpha", "a", "--beta", "b", "--let", "q=a+1",
                  "--expr", "q*x"],
                 ["scale", "-p", "2", "--alpha", "a", "--beta", "b", "--u", "x"]):
        assert run(capsys, *argv)[0] == 0
        counts.append(len(built))
    assert counts == [counts[0]] * 3
    # the cached parser must not carry one call's --let bindings into the next
    code, _, err = run(capsys, "eval", "-p", "3", "--alpha", "a", "--beta", "b", "--expr", "q*x")
    assert code == 2
    assert "unknown name 'q'" in err


SLOTS = ["--alpha", "--beta"]
ALGEBRA_FLAGS = ["--field", "--precision", "--let"]


@pytest.mark.parametrize("verb, flags", [
    ("link", ["--alpha", "--gamma", "--beta", *ALGEBRA_FLAGS]),
    ("verify-lemma", [*SLOTS, "--x", "--t", *ALGEBRA_FLAGS]),
    ("decompose", [*SLOTS, "--t", *ALGEBRA_FLAGS]),
    ("identity", [*SLOTS, *ALGEBRA_FLAGS]),
    ("scale", [*SLOTS, "--u", *ALGEBRA_FLAGS]),
    ("counterexample", ["--precision", "--samples", "--seed"]),
    ("eval", [*SLOTS, "--expr", *ALGEBRA_FLAGS]),
])
def test_verb_help_lists_its_flags(capsys, verb, flags):
    code, out, _ = run(capsys, verb, "--help")
    assert code == 0
    usage = out.split("\n\n")[0]
    assert usage.startswith(f"usage: palgebra {verb} ")
    assert set(re.findall(r"(?<![\w-])-{1,2}[a-z][\w-]*", usage)) == {"-h", "-p", *flags, "--json"}


def test_json_key_order_stable(capsys):
    _, out1, _ = run(capsys, "identity", "-p", "2", "--alpha", "a", "--beta", "b", "--json")
    _, out2, _ = run(capsys, "identity", "-p", "2", "--alpha", "a", "--beta", "b", "--json")
    assert out1 == out2
    assert list(json.loads(out1)) == ["command", "inputs", "results", "checks", "status"]


# --- exit codes -------------------------------------------------------------------------

def test_usage_error_exit_2(capsys):
    assert run(capsys, "link", "-p", "2")[0] == 2  # missing required flags
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2


def test_syntax_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "-p", "2", "--alpha", "a", "--beta", "b",
                       "--expr", "x^")
    assert code == 2
    assert "syntax error" in err
    # digits and letters of other scripts are no tokens
    for expr, offset in (("2²", 1), ("a^٣", 2)):
        code, out, err = run(capsys, "eval", "-p", "3", "--alpha", "a", "--beta", "b",
                             "--expr", expr)
        assert (code, out) == (2, "")
        assert err == (f"palgebra: syntax error: unexpected character {expr[offset]!r} "
                       f"(at offset {offset})\n")


def test_deep_nesting_exit_2(capsys):
    code, _, err = run(capsys, "eval", "-p", "3", "--alpha", "a", "--beta", "b",
                       "--expr=" + "-" * 3000 + "x")
    assert code == 2
    assert "nested deeper" in err
    proc = subprocess.run(
        [sys.executable, "-m", "palgebra.cli", "eval", "-p", "3",
         "--alpha", "(" * 3000 + "a" + ")" * 3000, "--beta", "b", "--expr", "x"],
        capture_output=True, text=True, cwd=SRC,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("palgebra: syntax error:")
    assert "Traceback" not in proc.stderr


def test_large_exponent_exit_2(capsys):
    # (1+a+b)^2186 took 8 s at p = 3 before exponents were bounded
    code, out, err = run(capsys, "eval", "-p", "3", "--alpha", "a", "--beta", "b",
                         "--expr", "x", "--let", "q=(1+a+b)^2186")
    assert (code, out) == (2, "")
    assert err.startswith("palgebra: syntax error: exponent 2186 is larger than")
    code, out, err = run(capsys, "eval", "-p", "7", "--alpha", "a", "--beta", "b",
                         "--expr", "(x+a)^500")
    assert (code, out) == (2, "")


@pytest.mark.parametrize("argv", [
    ["--expr", "((1+a+b)^20)^10"],
    ["--let", "q=(1+a+b)^20", "--expr", "q^10"],
], ids=["nested", "let"])
def test_power_of_a_power_exit_2(capsys, argv):
    # both are (1+a+b)^200, over 8 s at p = 10007 with each exponent
    # bounded on its own
    code, out, err = run(capsys, "eval", "-p", "10007", "--alpha", "a", "--beta", "b", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("palgebra: syntax error: power of degree 200 is larger than 100")


def test_power_at_the_degree_bound_is_accepted(capsys):
    code, _, _ = run(capsys, "eval", "-p", "10007", "--alpha", "a", "--beta", "b",
                     "--expr", "(1+a+b)^100")
    assert code == 0


@pytest.mark.parametrize("let, message", [
    # a, b, x, y already name the indeterminates and the generators
    ("a=b", "--let cannot rebind the built-in name 'a'"),
    ("b=a", "--let cannot rebind the built-in name 'b'"),
    ("x=a", "--let cannot rebind the built-in name 'x'"),
    (" y =a", "--let cannot rebind the built-in name 'y'"),
    # no expression can refer to a name that is not an identifier
    ("1q=a", "malformed --let binding '1q=a': expected NAME=EXPR"),
    ("q r=a", "malformed --let binding 'q r=a': expected NAME=EXPR"),
    ("=a", "malformed --let binding '=a': expected NAME=EXPR"),
    ("q", "malformed --let binding 'q': expected NAME=EXPR"),
    # the tokenizer reads only ASCII names, so expressions could not refer to it
    ("é=a", "malformed --let binding 'é=a': expected NAME=EXPR"),
], ids=["a", "b", "x", "y", "digit-first", "space", "no-name", "no-expr", "non-ascii"])
def test_let_binds_only_new_identifiers_exit_2(capsys, let, message):
    code, out, err = run(capsys, "eval", "-p", "3", "--alpha", "a", "--beta", "b",
                         "--let", let, "--expr", "a*x")
    assert (code, out) == (2, "")
    assert err == f"palgebra: invalid input: {message}\n"


def test_precision_over_a_rational_field_is_invalid_input(capsys):
    # a flag is not an expression, so the error carries no offset
    code, out, err = run(capsys, "eval", "-p", "3", "--alpha", "a", "--beta", "b",
                         "--expr", "x", "--precision", "5")
    assert (code, out) == (2, "")
    assert err == "palgebra: invalid input: --precision only applies to laurent fields\n"


def test_math_failure_exit_1(capsys):
    # beta = 0 names no algebra: the input is at fault, not the mathematics,
    # so it is a usage error (exit 2) that still names InvalidSlot
    code, _, err = run(capsys, "identity", "-p", "2", "--alpha", "a", "--beta", "a-a")
    assert code == 2
    assert "InvalidSlot" in err


@pytest.mark.parametrize("argv", [
    ["link", "-p", "3", "--alpha", "a", "--gamma", "a+b", "--beta", "0"],
    ["verify-lemma", "-p", "3", "--alpha", "a", "--beta", "0", "--x", "x", "--t", "y"],
    ["decompose", "-p", "3", "--alpha", "a", "--beta", "0", "--t", "x"],
    ["identity", "-p", "3", "--alpha", "a", "--beta", "0"],
    ["scale", "-p", "3", "--alpha", "a", "--beta", "0", "--u", "x"],
    ["eval", "-p", "3", "--alpha", "a", "--beta", "0", "--expr", "x"],
], ids=lambda argv: argv[0])
def test_zero_right_slot_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "palgebra: invalid input: InvalidSlot: the right slot must be nonzero\n"


@pytest.mark.parametrize("argv", [
    ["eval", "-p", "4", "--alpha", "a", "--beta", "b", "--expr", "x"],
    ["link", "-p", "1", "--alpha", "a", "--gamma", "a+b", "--beta", "b"],
    ["identity", "-p", "0", "--alpha", "a", "--beta", "b"],
    ["decompose", "-p", "9", "--alpha", "a", "--beta", "b", "--t", "x"],
    ["counterexample", "-p", "6"],
])
def test_non_prime_p_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"palgebra: invalid input: InvalidPrime: {argv[2]} is not prime\n"


@pytest.mark.parametrize("verb", ["eval", "counterexample"])
@pytest.mark.parametrize("p", [10**18 + 3, 65537])
def test_p_above_max_prime_exit_2_before_primality(capsys, monkeypatch, verb, p):
    # trial division up to sqrt(10**18 + 3) does not finish: the cap is read first
    def refuse(n):
        raise AssertionError(f"is_prime({n}) ran past the cap")

    monkeypatch.setattr(polys, "is_prime", refuse)
    argv = [verb, "-p", str(p)]
    if verb == "eval":
        argv += ["--alpha", "a", "--beta", "b", "--expr", "x*y"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"palgebra: invalid input: InvalidPrime: {p} exceeds "
                   f"the largest supported prime 65536\n")


@pytest.mark.parametrize("argv, cause", [
    (["identity", "-p", "3", "--alpha", "1/(a-a)", "--beta", "b"], "DivisionByZero"),
    (["eval", "-p", "3", "--alpha", "a", "--beta", "b", "--let", "q=b/(b-b)", "--expr", "x"],
     "DivisionByZero"),
    (["eval", "-p", "3", "--alpha", "a", "--beta", "b", "--expr", "1/(x-x)"], "NotInvertible"),
    # [0, 1)_2 is split: 1 + x is a zero divisor there
    (["eval", "-p", "2", "--alpha", "0", "--beta", "1", "--expr", "y/(1+x)"], "NotInvertible"),
])
def test_division_by_zero_in_input_exit_2(capsys, argv, cause):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"palgebra: invalid input: {cause}: ")


def test_degenerate_link_exit_1(capsys):
    code, _, err = run(capsys, "link", "-p", "2", "--alpha", "0", "--gamma", "0",
                       "--beta", "1")
    assert code == 1
    assert "InvalidSlot" in err


def test_argv_fuzzing_never_crashes(capsys):
    rng = random.Random(4)
    verbs = ["link", "eval", "identity", "scale", "counterexample", "bogus", "--json", "-p"]
    for _ in range(60):
        n = rng.randint(0, 5)
        argv = [rng.choice(verbs)] + [
            "".join(rng.choice(string.printable[:70]) for _ in range(rng.randint(1, 8)))
            for _ in range(n)
        ]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse paths are converted, but be safe
            code = exc.code
        capsys.readouterr()
        assert code in (0, 1, 2)
