#!/usr/bin/env python3
"""Measure repair rates per error class over seeded random trials.

The interesting contrasts: every class except row errors is repaired from
the determinant check alone, and row errors go from mostly ties to routine
once the rounded column ratio is transmitted.

Two columns split out the wrong repairs, by Hamming distance alone:
`undetected` counts received blocks that are intact yet differ from the
sent block, and `beyond-radius` the other wrong repairs that are closer to
the received block than the sent block is, so no minimum-weight decoder
could return the sent one.  The last column, `candidates`, is the mean
`candidates_examined` per block: the solves and det-line points `correct`
made.

Exits 1 when any class repaired with the transmitted ratio shows a wrong
repair: a tie must be reported as ambiguity, never guessed.

Usage: python scripts/correction_rates.py --trials 500 --seed 1
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from unicipher.channel import ENTRY_MODES, CorruptionSpec, corrupt_package
from unicipher.cipher import MAX_RATIO_DIGITS, encrypt
from unicipher.correction import correct
from unicipher.matrix import DEFAULT_MAX_EXPONENT
from unicipher.sampling import random_cipher_key, random_plaintext


def distance(a, b):
    return sum(x != y for x, y in zip(a.entries(), b.entries()))


def run_trials(mode, trials, seed, with_ratio, digits, n_lo, n_hi, bound):
    """Counts of exact, wrong, undetected, beyond-radius and reported blocks,
    and the candidates examined over all of them."""
    rng = random.Random(seed)
    exact = wrong = undetected = beyond = reported = examined = 0
    for _ in range(trials):
        key = random_cipher_key(rng, n_lo=n_lo, n_hi=n_hi)
        p = random_plaintext(rng, alphabet_size=bound)
        pkg = encrypt(p, key, emit_column_ratio=with_ratio, ratio_digits=digits)
        bad, _ = corrupt_package(pkg, CorruptionSpec(mode, seed=rng.randrange(2**30)))
        report = correct(bad, key, plaintext_bound=bound)
        examined += report.candidates_examined
        if not report.success:
            reported += 1
        elif report.repaired == pkg.c:
            exact += 1
        else:
            wrong += 1
            moved = distance(report.repaired, bad.c)
            undetected += moved == 0
            beyond += 0 < moved < distance(pkg.c, bad.c)
    return exact, wrong, undetected, beyond, reported, examined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ratio-digits", type=int, default=2)
    parser.add_argument("--n-lo", type=int, default=4)
    parser.add_argument("--n-hi", type=int, default=24)
    parser.add_argument("--bound", type=int, default=26,
                        help="alphabet size: plaintext entries are drawn below it, "
                             "and repair candidates are bounded by it")
    args = parser.parse_args()
    if args.trials < 1:
        parser.error(f"--trials must be at least 1, got {args.trials}")
    if args.bound < 1:
        parser.error(f"--bound must be at least 1, got {args.bound}")
    if not 0 <= args.n_lo <= args.n_hi <= DEFAULT_MAX_EXPONENT:
        parser.error(f"exponents need 0 <= --n-lo <= --n-hi <= {DEFAULT_MAX_EXPONENT}, "
                     f"got --n-lo {args.n_lo} --n-hi {args.n_hi}")
    if not 0 <= args.ratio_digits <= MAX_RATIO_DIGITS:
        parser.error(f"--ratio-digits must be in 0..{MAX_RATIO_DIGITS}, got {args.ratio_digits}")

    print(f"{args.trials} trials per class, exponents {args.n_lo}..{args.n_hi}, "
          f"ratio digits {args.ratio_digits}")
    wrong_with_ratio = []
    for with_ratio in (True, False):
        label = "with transmitted ratio" if with_ratio else "determinant check only"
        print(f"\n--- {label} ---")
        print(f"{'class':14s} {'exact':>7s} {'wrong':>7s} {'undetected':>11s} "
              f"{'beyond-radius':>14s} {'reported':>9s} {'rate':>8s} {'candidates':>11s}")
        for mode in ENTRY_MODES:
            exact, wrong, undetected, beyond, reported, examined = run_trials(
                mode, args.trials, args.seed, with_ratio,
                args.ratio_digits, args.n_lo, args.n_hi, args.bound,
            )
            rate = exact / args.trials
            print(f"{mode:14s} {exact:>7d} {wrong:>7d} {undetected:>11d} "
                  f"{beyond:>14d} {reported:>9d} {rate:>8.1%} {examined / args.trials:>11.2f}")
            if with_ratio and wrong:
                wrong_with_ratio.append(mode)
    if wrong_with_ratio:
        print(f"\nwrong repairs with the transmitted ratio: {', '.join(wrong_with_ratio)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
