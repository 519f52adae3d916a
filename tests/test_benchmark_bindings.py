"""The benchmark's tracer wraps each target where it looks it up, in
``vars(owner)``: a method inherited from a base class, or a function moved
to another module, would break only the traced benchmark run.  This check
loads the tracer without installing it."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_target_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{owner.__name__}.{attr}" for _, owner, attr, _ in tracer.TARGETS
               if attr not in vars(owner)]
    assert not missing
