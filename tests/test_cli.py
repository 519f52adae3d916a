"""CLI behavior: verbs, exit codes, JSON output, golden transcripts."""

import json
import random
import string
import subprocess
import sys
from pathlib import Path

import pytest

from palgebra.cli import main

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
    code, out, _ = run(capsys, "link", "-p", "2", "--alpha", "a", "--gamma", "a+a*b",
                       "--beta", "b", "--json")
    assert code == 0
    checks = {chk["relation"]: chk for chk in json.loads(out)["checks"]}
    assert checks["w z w^-1 = z + 1 in A"]["expected"] == "1 + x + x*y"
    assert checks["w z w^-1 = z + 1 in A"]["computed"] == "1 + x + x*y"
    assert checks["y' z' y'^-1 = z' + 1 in A'"]["computed"] == "1 + x"
    code, out, _ = run(capsys, "identity", "-p", "3", "--alpha", "a", "--beta", "b", "--json")
    chk = json.loads(out)["checks"][-1]
    assert (chk["expected"], chk["computed"], chk["pass"]) == ("1 + y + x", "1 + y + x", True)


def test_laurent_conjugation_check_is_certified_not_textual(capsys):
    # the computed conjugate carries window remainders, so its text differs
    # from x + 1; the check passes because every certified term agrees
    argv = ["scale", "-p", "3", "--alpha", "1", "--beta", "a", "--u", "1 + a*x",
            "--field", "laurent", "--precision", "5"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    chk = json.loads(out)["checks"][-1]
    assert chk["relation"] == "(u y) x (u y)^-1 = x + 1"
    assert chk["expected"] == "1 + x"
    assert "O(a^5)" in chk["computed"]
    assert chk["pass"]
    code, out, _ = run(capsys, *argv)
    assert "check (u y) x (u y)^-1 = x + 1: PASS" in out


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


def test_math_failure_exit_1(capsys):
    # beta = 0 names no algebra: the input is at fault, not the mathematics,
    # so it is a usage error (exit 2) that still names InvalidSlot
    code, _, err = run(capsys, "identity", "-p", "2", "--alpha", "a", "--beta", "a-a")
    assert code == 2
    assert "InvalidSlot" in err


def test_zero_right_slot_on_link_exit_2(capsys):
    code, out, err = run(capsys, "link", "-p", "3", "--alpha", "a", "--gamma", "a+b",
                         "--beta", "0")
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
