#!/usr/bin/env python3
"""Tabulate ratio-orbit convergence and the measured geometric decay rate.

For each (t, d) pair the orbit a(n+1) = t - d/a(n) is run exactly; the
error column is the distance to the larger fixed point and the final column
the worst per-step error ratio after the first step (< 1 means geometric).

Usage: python scripts/ratio_convergence.py --steps 32
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from unicipher.cli import MAX_ORBIT_STEPS
from unicipher.ratios import RatioParams, convergence_profile, exponential_rate

SAMPLES = (
    (1, -1, Fraction(3)),       # Fibonacci ratios from above
    (1, -1, Fraction(1, 2)),    # Fibonacci ratios from below
    (3, 1, Fraction(10)),       # cat-matrix ratios, decreasing
    (3, 1, Fraction(1)),        # cat-matrix ratios, increasing
    (5, 1, Fraction(7, 2)),
    (4, -1, Fraction(2)),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=32)
    args = parser.parse_args()
    # three steps give the classifier two even and two odd terms
    if not 3 <= args.steps <= MAX_ORBIT_STEPS:
        parser.error(f"--steps must be in 3..{MAX_ORBIT_STEPS}, got {args.steps}")

    print(f"{'t':>3} {'d':>3} {'a0':>8} {'mode':24} {'fixed point':>16} "
          f"{'final error':>12} {'rate':>8}")
    for t, d, a0 in SAMPLES:
        params = RatioParams(t, d, a0)
        profile = convergence_profile(params, args.steps)
        rate = exponential_rate(profile.errors[1:])
        phi = params.fixed.phi_plus_decimal(12)
        print(f"{t:>3} {d:>3} {str(a0):>8} {profile.mode.value:24} "
              f"{phi:>16} {profile.errors[-1]:>12.3e} {rate:>8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
