"""Smoke runs of the experiment scripts as a user starts them."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_linkage_survey_smoke():
    lines = run_script("linkage_survey.py", "--pairs", "2", "--seed", "7")
    rows = [line for line in lines if line.startswith("p=")]
    assert [row.split(":")[0] for row in rows] == ["p=2", "p=3", "p=5"]
    for row in rows:
        m = re.search(r"2 pairs re-verified .* zero (\d+), polynomial (\d+), fractional (\d+)$", row)
        assert m and sum(int(g) for g in m.groups()) == 2


def test_run_counterexample_smoke():
    lines = run_script("run_counterexample.py", "--samples", "2", "--precision", "8", "--seed", "2026")
    rows = [line.split() for line in lines if re.match(r"\s*[235] ", line)]
    assert [row[0] for row in rows] == ["2", "3", "5"]
    for row in rows:
        # two samples in each of the two algebras, all checks passing
        assert row[-3:-1] == ["4/4", "True"]
