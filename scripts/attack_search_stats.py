#!/usr/bin/env python3
"""Brute-force key-search statistics against chosen-plaintext queries.

Counts how many candidate keys inside axis-aligned parameter boxes stay
consistent with 1..q chosen plaintexts.  One free parameter collapses to a
single candidate after one query; six free parameters leave a crowd, which
is the whole point of seeding the coding matrices.

Usage: python scripts/attack_search_stats.py --side 3 --n-max 8
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from unicipher.attacks import (
    UNIT_PROBE,
    EncryptionOracle,
    ParamBox,
    measure_unimodular_resistance,
)
from unicipher.cipher import CipherKey
from unicipher.matrix import DEFAULT_MAX_EXPONENT, Mat2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", type=int, default=3,
                        help="range 0..side-1 for each matrix entry")
    parser.add_argument("--seed-side", type=int, default=3)
    parser.add_argument("--n-max", type=int, default=8)
    parser.add_argument("--cap", type=int, default=10_000_000)
    args = parser.parse_args()
    for flag, value in (("--side", args.side), ("--seed-side", args.seed_side),
                        ("--cap", args.cap)):
        if value < 1:
            parser.error(f"{flag} must be at least 1, got {value}")
    if not 1 <= args.n_max <= DEFAULT_MAX_EXPONENT:
        parser.error(f"--n-max must be in 1..{DEFAULT_MAX_EXPONENT}, got {args.n_max}")

    hidden = CipherKey.arnolds_cat(4)
    oracle = EncryptionOracle.from_key(hidden)
    probes = (UNIT_PROBE, Mat2(0, 0, 1, 0), Mat2(1, 1, 0, 0))

    golden_box = ParamBox((1,), (1,), (1,), (0,), (0,), (1,),
                          range(0, args.n_max + 1))
    wide_box = ParamBox(
        range(args.side), range(args.side), range(args.side), range(args.side),
        range(args.seed_side), range(args.seed_side), range(1, args.n_max + 1),
    )
    for name, box in (("1 free parameter (exponent only)", golden_box),
                      ("6 free parameters + exponent", wide_box)):
        start = time.perf_counter()
        stats = measure_unimodular_resistance(
            EncryptionOracle.from_key(CipherKey.golden(6)) if "1 free" in name else oracle,
            box, queries=probes, cap=args.cap,
        )
        elapsed = time.perf_counter() - start
        print(f"\n{name}")
        print(f"  candidates weighed: {stats.enumerated}"
              + (" (truncated)" if stats.truncated else ""))
        for q, count in enumerate(stats.consistent_counts, start=1):
            print(f"  consistent after {q} quer{'y' if q == 1 else 'ies'}: {count}")
        print(f"  elapsed: {elapsed:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
