#!/usr/bin/env python3
"""Benchmark for palgebra: one process, one thread, a closed loop of one caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-rational --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload verify-rational --trace 1
    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics and the tracing overhead, ``--workload all`` runs every workload in
its own process and prints one table.  The last line of standard output is
one JSON object; the lines before it name every metric with its unit.
perfbench/README.md describes the workloads and the metrics.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main():
    if not (SRC / "palgebra" / "__init__.py").is_file():
        sys.exit(f"perfbench: no palgebra sources under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import palgebra

    if Path(palgebra.__file__).resolve().parent != SRC / "palgebra":
        sys.exit(f"perfbench: imported palgebra from {palgebra.__file__}, not from {SRC}")
    import harness

    return harness.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
