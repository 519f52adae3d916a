"""The benchmark's bindings to the library.

The tracer wraps each target where it looks it up, in ``vars(owner)``: a
method inherited from a base class, or a function moved to another module,
would break only the traced benchmark run.  The workloads import public
names of the library: a name deleted from ``src`` would break only the
benchmark steps, and so would a deleted field of a report that an
operation's check reads.  These checks load both modules without
installing the tracer.  The first round of every workload, and the
counterexample operations, which read report fields and transcripts, run
once each through their own checks."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name, path, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclass looks its module up in sys.modules while the module runs
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_defined_on_its_owner(monkeypatch):
    tracer = _load("perfbench_tracer", PERFBENCH / "tracer.py", monkeypatch)
    missing = [f"{owner.__name__}.{attr}" for _, owner, attr, _ in tracer.TARGETS
               if attr not in vars(owner)]
    assert not missing


def test_workloads_import_against_the_library(monkeypatch):
    workloads = _load("perfbench_workloads", PERFBENCH / "workloads.py", monkeypatch)
    assert callable(workloads.rounds)


def test_counterexample_ops_pass_their_own_checks(monkeypatch):
    """The laurent-valuation family-check op and the cli-mixed
    counterexample ops, text and --json, run once and judged by the
    workload's own checks, which read the report's fields and the
    printed transcript."""
    workloads = _load("perfbench_workloads", PERFBENCH / "workloads.py", monkeypatch)
    argv = ["counterexample", "-p", "2", "--precision", "6", "--samples", "2", "--seed", "1"]
    ops = [
        workloads._op_counterexample(3, 1),
        workloads._op_cli(argv, workloads._verb_judge(False)),
        workloads._op_cli(argv + ["--json"], workloads._verb_judge(True)),
    ]
    for op in ops:
        assert op.check(op.run(), None) == workloads.OK, op.kind


def test_first_rounds_pass_their_own_checks(monkeypatch):
    """Every operation of the first round of each workload at seed 1, run
    and judged as the harness judges it: the draws rebuild scalars through
    the field's constructors and the checks compare values, so a change to
    either fails here before it fails the benchmark."""
    workloads = _load("perfbench_workloads", PERFBENCH / "workloads.py", monkeypatch)
    for name in ("verify-rational", "engine-poly", "laurent-valuation", "cli-mixed"):
        ops = next(iter(workloads.rounds(name, 1, ROOT)))
        assert ops
        for op in ops:
            out = err = None
            try:
                out = op.run()
            except Exception as exc:  # judged by the check, as the harness does
                err = exc
            assert op.check(out, err) == workloads.OK, (name, op.kind, op.p, err)
