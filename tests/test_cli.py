"""CLI behavior: verbs, exit codes, JSON output, golden transcripts and the
table of command-line contracts."""

import argparse
import json
import random
import re
import shlex
import string
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from palgebra import (
    FieldDescriptor,
    SymbolAlgebra,
    Value,
    ValuedAlgebra,
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


def test_counterexample_lists_as_verified_only_the_checks_that_passed(capsys, monkeypatch):
    # every Gauss value (0, 0): the residue checks and the distinct-lattice
    # check fail, and their facts must not print as verified
    monkeypatch.setattr(ValuedAlgebra, "gauss_value", lambda self, t: Value.of(0, 0))
    code, out, _ = run(capsys, "counterexample", "-p", "2", "--samples", "3", "--seed", "7")
    assert code == 1
    assert "check a-coordinate of v((u y)^p) = 1 mod p in [1,a): expected 3 pass, " \
        "computed 0 pass: FAIL" in out.splitlines()
    assert "check subfield value groups distinct across the two algebras: FAIL" in out
    verified = [line for line in out.splitlines() if line.startswith("verified: ")]
    assert verified == [
        "verified: for each sampled u, (u*y)^p equals N(u) times the right slot (engine identity)",
        "verified: value groups: [1,a) gives (1/2)Z x Z, [1,b) gives Z x (1/2)Z",
    ]


def test_golden_eval_laurent(capsys):
    # a series (1/(1+a)), a Laurent polynomial (a/b) and a non-monomial
    # denominator that is not a unit (1/(a+b)), each in its printed box
    code, out, _ = run(capsys, "eval", "-p", "3", "--field", "laurent", "--alpha", "a",
                       "--beta", "b", "--expr", "(1/(1+a))*x + (a/b)*y + 1/(a+b)")
    assert code == 0
    assert out == (GOLDENS / "eval_laurent_p3.txt").read_text()


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
    # 1/(1/(1+b) - 1) = -(1+b)/b, a Laurent polynomial: it prints exactly,
    # where the series inverse certified it only below b^6
    code, out, _ = run(capsys, "eval", "-p", "3", "--field", "laurent", "--alpha", "a",
                       "--beta", "b", "--let", "u=1/(1/(1+b) - 1)", "--expr", "u*x")
    assert code == 0
    assert "normal_form = ((2 + 2*b)/b)*x" in out


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
    # the check compares values, not text.  u * (1 + a) - 1 was 0 + O(a^5),
    # and adding it once made the sides print differently; it is exactly
    # zero, so the sides agree, and a nonzero difference fails
    field = FieldDescriptor("laurent", 3, 5)
    A = make_algebra(3, field.one(), field.gen("a"), field)
    _, witness, _ = scale_slot_by_norm(A, A.one() + field.gen("a") * A.x())
    u = parse_scalar("1/(1+a)", field)
    remainder = u * (1 + field.gen("a")) - 1
    assert remainder.is_zero()
    report = Report("scale", {})
    relation = "(u y) x (u y)^-1 = x + 1"
    for extra in (remainder, field.one()):
        z1w = witness.z1w + extra * A.x()
        report.compare(relation, z1w, witness.wz, brief=True)
    same, different = report.checks
    assert same.ok and same.expected == same.computed
    assert not different.ok
    code, out, _ = run(capsys, "scale", "-p", "3", "--alpha", "1", "--beta", "a", "--u",
                       "1 + a*x", "--field", "laurent", "--precision", "5")
    assert code == 0
    assert "check (u y) x (u y)^-1 = x + 1: PASS" in out


def test_laurent_decompose_checks_pass_on_certified_terms(capsys):
    # the sum and the t_0 eigen relation once differed by 0 + O(a^5)
    # entries and printed differently; both sides are now the same values
    code, out, _ = run(capsys, "decompose", "-p", "3", "--alpha", "a", "--beta", "b",
                       "--t", "(1/(1+a))*y+x", "--field", "laurent", "--precision", "5", "--json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 4 and all(chk["pass"] for chk in checks)
    assert all(chk["expected"] == chk["computed"] for chk in checks)


def test_laurent_lemma_hypothesis_is_decided_on_certified_terms(capsys):
    # y x - x y was t plus an x*y entry 0 + O(a^5), and the shift check's
    # inverse could run out of window; y x - x y = t exactly, and the
    # lemma passes
    code, out, err = run(capsys, "verify-lemma", "-p", "3", "--x", "x", "--t", "(1/(1+a))*y",
                         "--alpha", "a", "--beta", "b", "--field", "laurent", "--precision", "5")
    assert (code, err) == (0, "")
    assert "k = 1" in out and out.endswith("result: PASS\n")


LEMMA_WITH_A_SERIES = ("verify-lemma", "--x", "x", "--t", "(1/(1+a) + x)*y", "--beta", "b")


@pytest.mark.parametrize("p, alpha, window", [
    (p, alpha, window) for p in (2, 3, 5) for alpha in ("a", "0") for window in (5, 8)
])
def test_laurent_lemma_with_a_series_coefficient_passes(capsys, p, alpha, window):
    # the shift check inverts scalars whose tracked lower bound la was loose;
    # the series inverse once gave up every a-bound on them, its check product
    # certified no term and the lemma was undecided where the rational field
    # passes, at p = 2 and window 5 until the scalars were made exact
    argv = (*LEMMA_WITH_A_SERIES, "-p", str(p), "--alpha", alpha)
    assert run(capsys, *argv)[0] == 0
    code, out, _ = run(capsys, *argv, "--field", "laurent", "--precision", str(window))
    assert code == 0
    assert out.endswith("result: PASS\n")


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
# These two run in-process because they patch the library; every other
# exit-code case is a row of CONTRACTS below.

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


# --- command-line contracts ---------------------------------------------------------------
# Each row is a command line, split as a POSIX shell splits it and run as
# ``python -m palgebra.cli`` in a subprocess.  It must finish within the
# row's budget in seconds, print no traceback, exit with the row's code and
# print what the row expects on stdout and stderr: a string is the exact
# text, a compiled pattern is searched for in it, None checks nothing.  A
# list of rows is one test and a dict one test per row, named by its key;
# names and keys are those of the tests that the rows replaced.


class Contract(NamedTuple):
    command: str
    code: int
    out: str | re.Pattern | None = None
    err: str | re.Pattern | None = None
    budget: float = 10


def run_contract(contract):
    command, code, out, err, budget = contract
    proc = subprocess.run([sys.executable, "-m", "palgebra.cli", *shlex.split(command)],
                          capture_output=True, text=True, cwd=SRC, timeout=budget)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == code, (command, proc.stderr)
    for expected, text in ((out, proc.stdout), (err, proc.stderr)):
        if isinstance(expected, re.Pattern):
            assert expected.search(text), (command, text)
        elif expected is not None:
            assert text == expected, (command, text)


INVALID = "palgebra: invalid input: "
SYNTAX = "palgebra: syntax error: "
PASSES = re.compile(r"result: PASS\n\Z")

CONTRACTS = {
    # the cap is read before any primality test, which would not finish
    "capped_p_exits_2_at_once": {
        p: Contract(f'eval -p {p} --alpha a --beta b --expr "x*y"', 2, "",
                    f"{INVALID}InvalidPrime: {p} exceeds the largest supported prime 65536\n")
        for p in ("1000000000000000003", "65537")
    },
    # dense in p: 0.2 s, 1.3 s and 1.5 s on a 2-core machine
    "dense_in_p_inverses_finish": {
        "p53": Contract('eval -p 53 --alpha a --beta b --expr "1/(x+y)"', 0, budget=120),
        "p101": Contract('eval -p 101 --alpha a --beta b --expr "1/(x+y)"', 0, budget=60),
        "p53-dense": Contract('eval -p 53 --alpha a --beta b --expr "1/(x*y+b*x+1)"', 0,
                              budget=60),
    },
    # N(u) and the check (u y)^p, dense in p: 6.2 s on a 2-core machine, and
    # 101 s there with every product on the dict kernel
    "dense_in_p_scale_finishes": [
        Contract('scale -p 53 --alpha a --beta b --u "1 + a*x + b*x^2 + x^3"', 0, budget=30),
    ],
    # the shift check inverts Laurent scalars whose tracked lower bound is loose
    "laurent_lemma_inverse_finishes": [
        Contract('verify-lemma -p 3 --x x --t "(1/(1+a) + x)*y" --alpha a --beta b '
                 '--field laurent --precision 8', 0, budget=60),
    ],
    # over slots with denominators (x+y)^5 takes power's undivided chain and
    # (x+y)^8 divides at every product; (x+y)^100 takes 1.9 s
    "rational_slot_powers_finish": {
        f"p{p}-{n}": Contract(f'eval -p {p} --alpha a/b --beta "1/(a+b)" --expr "(x+y)^{n}"', 0,
                              budget=60)
        for p, n in ((3, 100), (5, 5), (5, 8))
    },
    # no other test runs the family check above p = 5
    "family_check_at_p7_finishes": {
        key: Contract("counterexample -p 7 --precision 8 --samples 10 --seed 1" + flags, 0,
                      budget=60)
        for key, flags in (("text", ""), ("json", " --json"))
    },
    # the family check dense in p: 0.8 s at p = 17 on a 2-core machine
    "family_check_at_p17_finishes": [
        Contract("counterexample -p 17 --samples 1", 0, PASSES),
    ],
    # the shift check conjugates by t^4 at p = 11 and divides each
    # coefficient once by Nrd(t^4): 0.4 s on a 2-core machine, 1.0 s when
    # the inverse was built first
    "lemma_shift_at_p11_finishes": [
        Contract('verify-lemma -p 11 --x x --t "(1+a*x+b*x^2)*y^3" --alpha a --beta b', 0,
                 PASSES),
    ],
    "laurent_slot_with_a_non_monomial_denominator": [
        Contract('identity -p 7 --alpha a --beta "1/(a+b)" --field laurent', 0, PASSES),
    ],
    # the series inverse could not bound the support of a lambda with a
    # non-monomial denominator and exited 1 (PrecisionExhausted)
    "laurent_link_with_a_non_monomial_denominator": [
        Contract('link -p 7 --alpha a/b --gamma a/b+a --beta "1/(a+b)" --field laurent', 0,
                 PASSES, ""),
    ],
    # w^p and N(u) once kept off-diagonal coefficients 0 + O(a^k) and exited
    # 1 (PrecisionExhausted); Laurent scalars are exact, and these pass as
    # they do over F_p(a, b)
    "laurent_witness_with_a_series_coefficient_is_decided": {
        f"argv{i}": Contract(command + " --field laurent", 0, PASSES, "")
        for i, command in enumerate([
            'link -p 2 --alpha a --gamma "1/(1+a)" --beta b',
            'link -p 3 --alpha "1/(1+a)" --gamma a --beta b',
            'scale -p 3 --alpha 1 --beta a --u "1/(1+a) + x" --precision 5',
        ])
    },
    # beta = (1+a)/(1+a) was 1 + O(a^5): inverting it once raised
    # OverflowError, and later exited 1 (PrecisionExhausted); it is 1
    "laurent_slot_equal_to_one_is_exactly_one": [
        Contract('link -p 3 --alpha a --gamma a+b --beta "(1+a)/(1+a)" --field laurent '
                 '--precision 5', 0, re.compile(r"^input beta = 1$.*result: PASS\n\Z",
                                                re.M | re.S), ""),
    ],
    # at window 1 the check products once certified no term at all, and the
    # inverse was undecided (exit 1); now it is exact and checked exactly,
    # and only its print is cut to window 1.  The box starts at each value's
    # leading term, so no nonzero coefficient prints as 0 + O(...); a box
    # measured from the numerator's least exponents printed seven of these
    # nine values, and the value of the next row, as 0 + O(...)
    "laurent_inverse_at_precision_1_is_checked_exactly": [
        Contract('eval -p 3 --alpha 1 --beta a --field laurent --precision 1 '
                 '--expr "1/(a + a*y + b*x*y + a*x*y^2 + a*x^2 + b*x^2*y^2)"', 0,
                 re.compile("^" + re.escape(
                     "normal_form = (2/a + O(a^0, b^1)) + (2/a + O(a^0, b^1))*y"
                     " + (b/a^2 + O(a^-1, b^2))*y^2 + (2/a + O(a^0, b^1))*x"
                     " + (1/a + O(a^0, b^1))*x*y + (b/a^2 + O(a^-1, b^2))*x*y^2"
                     " + (2/a + O(a^0, b^1))*x^2 + (1/a + O(a^0, b^1))*x^2*y"
                     " + (2/a + O(a^0, b^1))*x^2*y^2") + "$", re.M), ""),
        Contract('eval -p 2 --alpha a --beta b --field laurent --precision 1 '
                 '--expr "(a^2 + b^3)/(a^2*b^3 + a*b + b)"', 0,
                 re.compile(r"^normal_form = \(a\^2/b \+ O\(a\^3, b\^0\)\)$", re.M), ""),
    ],
    # a printed series has about precision^2 / 2 terms: 1,000 took 0.8 s and
    # printed 1.6 MB, 100,000 ran on past 60 s
    "precision_above_the_cap_exits_2_at_once": [
        Contract('eval -p 3 --field laurent --precision 100000 --alpha a --beta b '
                 '--expr "1/(1+a+b)"', 2, "",
                 f"{INVALID}precision 100000 exceeds the largest supported precision 128\n",
                 budget=5),
        Contract("counterexample -p 3 --precision 129", 2, "",
                 f"{INVALID}precision 129 exceeds the largest supported precision 128\n",
                 budget=5),
    ],
    # 0.06 s in-process on a 2-core machine
    "precision_at_the_cap_is_accepted": [
        Contract('eval -p 3 --field laurent --precision 128 --alpha a --beta b '
                 '--expr "1/(1+a+b)"', 0, re.compile(r" \+ O\(a\^128, b\^128\)\)\n"),
                 budget=5),
    ],
    # N(x) = x^2 + x = 0 in [0, b)_2, so w = x y is nilpotent
    "zero_divisor_generator_exits_1": [
        Contract("scale -p 2 --alpha 0 --beta b --u x", 1,
                 err="palgebra: NotInvertible: element is a zero divisor\n"),
    ],
    # N(u) is defined only for a nonzero u in F[x]: any other u is bad input
    "scale_u_outside_fx_or_zero_exit_2": {
        u: Contract(f'scale -p 3 --alpha a --beta b --u "{u}"', 2, "",
                    re.compile(rf"^{INVALID}--u must be a nonzero element of F\[x\]"))
        for u in ("y", "x*y", "0", "x-x")
    },
    "usage_error_exit_2": [
        Contract("link -p 2", 2),  # missing required flags
        Contract("nonsense", 2),
        Contract("", 2),
    ],
    "syntax_error_exit_2": [
        Contract("eval -p 2 --alpha a --beta b --expr x^", 2, err=re.compile("syntax error")),
        # digits and letters of other scripts are no tokens
        *(Contract(f"eval -p 3 --alpha a --beta b --expr {expr}", 2, "",
                   f"{SYNTAX}unexpected character {expr[offset]!r} "
                   f"(at offset {offset})\n")
          for expr, offset in (("2²", 1), ("a^٣", 2))),
    ],
    "deep_nesting_exit_2": [
        Contract("eval -p 3 --alpha a --beta b --expr=" + "-" * 3000 + "x", 2,
                 err=re.compile("nested deeper")),
        Contract("eval -p 3 --alpha '" + "(" * 3000 + "a" + ")" * 3000 + "' --beta b --expr x",
                 2, "", re.compile(f"^{SYNTAX}")),
    ],
    # (1+a+b)^2186 took 8 s at p = 3 before exponents were bounded
    "large_exponent_exit_2": [
        Contract('eval -p 3 --alpha a --beta b --expr x --let "q=(1+a+b)^2186"', 2, "",
                 re.compile(f"^{SYNTAX}exponent 2186 is larger than")),
        Contract('eval -p 7 --alpha a --beta b --expr "(x+a)^500"', 2, ""),
    ],
    # both are (1+a+b)^200, over 8 s at p = 10007 with each exponent bounded
    # on its own
    "power_of_a_power_exit_2": {
        key: Contract("eval -p 10007 --alpha a --beta b " + flags, 2, "",
                      re.compile(f"^{SYNTAX}power of degree 200 is larger than 100"))
        for key, flags in (("nested", '--expr "((1+a+b)^20)^10"'),
                           ("let", '--let "q=(1+a+b)^20" --expr q^10'))
    },
    "power_at_the_degree_bound_is_accepted": [
        Contract('eval -p 10007 --alpha a --beta b --expr "(1+a+b)^100"', 0),
    ],
    "let_binds_only_new_identifiers_exit_2": {
        key: Contract(f"eval -p 3 --alpha a --beta b --let '{let}' --expr a*x", 2, "",
                      f"{INVALID}{message}\n")
        for key, let, message in [
            # a, b, x, y already name the indeterminates and the generators
            ("a", "a=b", "--let cannot rebind the built-in name 'a'"),
            ("b", "b=a", "--let cannot rebind the built-in name 'b'"),
            ("x", "x=a", "--let cannot rebind the built-in name 'x'"),
            ("y", " y =a", "--let cannot rebind the built-in name 'y'"),
            # no expression can refer to a name that is not an identifier
            ("digit-first", "1q=a", "malformed --let binding '1q=a': expected NAME=EXPR"),
            ("space", "q r=a", "malformed --let binding 'q r=a': expected NAME=EXPR"),
            ("no-name", "=a", "malformed --let binding '=a': expected NAME=EXPR"),
            ("no-expr", "q", "malformed --let binding 'q': expected NAME=EXPR"),
            # the tokenizer reads only ASCII names, so expressions could not refer to it
            ("non-ascii", "é=a", "malformed --let binding 'é=a': expected NAME=EXPR"),
        ]
    },
    # a flag is not an expression, so the error carries no offset
    "precision_over_a_rational_field_is_invalid_input": [
        Contract("eval -p 3 --alpha a --beta b --expr x --precision 5", 2, "",
                 f"{INVALID}--precision only applies to laurent fields\n"),
    ],
    # beta = 0 names no algebra: the input is at fault, not the mathematics,
    # so it is a usage error (exit 2) that still names InvalidSlot
    "math_failure_exit_1": [
        Contract("identity -p 2 --alpha a --beta a-a", 2, err=re.compile("InvalidSlot")),
    ],
    "zero_right_slot_exit_2": {
        command.split()[0]: Contract(command, 2, "",
                                     f"{INVALID}InvalidSlot: the right slot must be nonzero\n")
        for command in [
            "link -p 3 --alpha a --gamma a+b --beta 0",
            "verify-lemma -p 3 --alpha a --beta 0 --x x --t y",
            "decompose -p 3 --alpha a --beta 0 --t x",
            "identity -p 3 --alpha a --beta 0",
            "scale -p 3 --alpha a --beta 0 --u x",
            "eval -p 3 --alpha a --beta 0 --expr x",
        ]
    },
    "non_prime_p_exit_2": {
        f"argv{i}": Contract(command, 2, "",
                             f"{INVALID}InvalidPrime: {command.split()[2]} is not prime\n")
        for i, command in enumerate([
            "eval -p 4 --alpha a --beta b --expr x",
            "link -p 1 --alpha a --gamma a+b --beta b",
            "identity -p 0 --alpha a --beta b",
            "decompose -p 9 --alpha a --beta b --t x",
            "counterexample -p 6",
        ])
    },
    "division_by_zero_in_input_exit_2": {
        f"argv{i}-{cause}": Contract(command, 2, "", re.compile(f"^{INVALID}{cause}: "))
        for i, (command, cause) in enumerate([
            ('identity -p 3 --alpha "1/(a-a)" --beta b', "DivisionByZero"),
            ('eval -p 3 --alpha a --beta b --let "q=b/(b-b)" --expr x', "DivisionByZero"),
            ('eval -p 3 --alpha a --beta b --expr "1/(x-x)"', "NotInvertible"),
            # [0, 1)_2 is split: 1 + x is a zero divisor there
            ('eval -p 2 --alpha 0 --beta 1 --expr "y/(1+x)"', "NotInvertible"),
        ])
    },
    "degenerate_link_exit_1": [
        Contract("link -p 2 --alpha 0 --gamma 0 --beta 1", 1, err=re.compile("InvalidSlot")),
    ],
    # the input errors named in the module docstring and the README that no
    # row above gives to decompose, verify-lemma, link, scale or counterexample
    "every_verb_rejects_bad_input_exit_2": {
        key: Contract(command, 2, "", err)
        for key, command, err in [
            ("decompose-syntax", "decompose -p 3 --alpha a --beta b --t x^",
             f"{SYNTAX}expected a nonnegative integer exponent (at offset 2)\n"),
            ("decompose-zero-divisor", 'decompose -p 3 --alpha a --beta b --t "1/(x-x)"',
             f"{INVALID}NotInvertible: element is a zero divisor\n"),
            ("verify-lemma-division", 'verify-lemma -p 3 --alpha "1/(a-a)" --beta b --x x --t y',
             f"{INVALID}DivisionByZero: division by zero rational function\n"),
            ("verify-lemma-let", "verify-lemma -p 3 --alpha a --beta b --x x --t y --let b=a",
             f"{INVALID}--let cannot rebind the built-in name 'b'\n"),
            ("verify-lemma-non-prime", "verify-lemma -p 4 --alpha a --beta b --x x --t y",
             f"{INVALID}InvalidPrime: 4 is not prime\n"),
            ("link-syntax", "link -p 3 --alpha a+ --gamma a --beta b",
             f"{SYNTAX}expected a value (at offset 2)\n"),
            ("scale-precision", "scale -p 3 --alpha a --beta b --u x --precision 5",
             f"{INVALID}--precision only applies to laurent fields\n"),
            # a product is bounded by the sum of its operands' degrees
            ("product-degree",
             'eval -p 10007 --alpha a --beta b --let "q=(1+a+b)^20" --expr "q*q*q*q*q*q"',
             f"{SYNTAX}product of degree 120 is larger than 100 (at offset 9)\n"),
            ("counterexample-precision", "counterexample -p 3 --precision 0",
             f"{INVALID}precision must be positive\n"),
            ("counterexample-samples", "counterexample -p 3 --samples 0",
             f"{INVALID}need at least one sample\n"),
        ]
    },
}


def contract_test(group):
    if isinstance(group, dict):
        @pytest.mark.parametrize("contract", list(group.values()), ids=list(group))
        def test(contract):
            run_contract(contract)
    else:
        def test():
            for contract in group:
                run_contract(contract)
    return test


globals().update({f"test_{name}": contract_test(group) for name, group in CONTRACTS.items()})
