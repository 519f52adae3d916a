#!/usr/bin/env python3
"""Survey the common-left-slot construction on random right-linked pairs.

For each prime p the script draws random pairs [alpha, beta), [gamma, beta),
runs the construction, re-verifies every witness relation, and reports how
often lambda degenerates to 0 or to a polynomial (rather than a genuine
rational function), plus timing.

Usage:
    python scripts/linkage_survey.py [--pairs N] [--seed S]
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from palgebra import (  # noqa: E402
    FieldDescriptor,
    make_algebra,
    right_to_left,
    verify_presentation,
)
from palgebra.sampling import draw_right_linked  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    for p in (2, 3, 5):
        field = FieldDescriptor("rational", p)
        rng = random.Random(args.seed + p)
        lam_zero = lam_poly = lam_frac = 0
        t0 = time.time()
        for i in range(args.pairs):
            alpha, gamma, beta = draw_right_linked(rng, field, monomial_beta=(i % 2 == 0))
            res = right_to_left(alpha, gamma, beta, p, field)
            if res.lam.is_zero():
                lam_zero += 1
            elif res.lam.is_poly():
                lam_poly += 1
            else:
                lam_frac += 1
            A = make_algebra(p, alpha, beta, field)
            wit = verify_presentation(A, res.witness_A.z, res.witness_A.w)
            assert wit.claimed_left == res.common_left
        dt = time.time() - t0
        print(
            f"p={p}: {args.pairs} pairs re-verified in {dt:.2f}s | "
            f"lambda zero {lam_zero}, polynomial {lam_poly}, fractional {lam_frac}"
        )


if __name__ == "__main__":
    main()
