"""Command-line surface: keygen | encrypt | decrypt | verify | corrupt | correct | attack | ratios.

Exit codes: 0 success; 1 on any structured error (category printed to
stderr), and from `verify` when any package is not clean; `correct`
additionally uses 2 when a package is uncorrectable and 3 when only
ambiguous repairs were found; its JSON report gives each block the status
clean, repaired, ambiguous or uncorrectable.  `correct` bounds repair
candidates by the key file's alphabet.  Every command that reads a package
file refuses one that is not a whole message (channel.loads_packages), and
`ratios --steps` is at most MAX_ORBIT_STEPS.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from fractions import Fraction

from . import channel
from .attacks import EncryptionOracle, attack_golden, attack_k_golden
from .cipher import _MAX_DECIMAL_DIGITS, MAX_RATIO_DIGITS, Alphabet, CipherKey, SeedPair
from .cipher import decrypt_message, encrypt_message, verify_package
from .correction import ErrorClass, correct
from .errors import CipherError, NoMatchInBounds, NotGoldenOracle
from .matrix import DEFAULT_MAX_EXPONENT, KeyMatrix, Mat2
from .ratios import RatioParams, ratio_orbit

# Most orbit steps `ratios` prints.  The exact terms grow by a fixed number of
# digits per step, so the work grows faster than the steps; each term is
# printed as it is computed, so the digit limit also ends the work.
MAX_ORBIT_STEPS = 2000
# `correct`'s status for a block, and the exit code it asks for; the run exits
# with the largest.
_CORRECT_EXIT_CODES = {"clean": 0, "repaired": 0, "uncorrectable": 2, "ambiguous": 3}


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CipherError(f"cannot read {path!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise CipherError(f"cannot read {path!r}: {exc}") from None


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CipherError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _alphabet_from_flag(value: str) -> Alphabet:
    if value == "latin":
        return Alphabet()
    if value == "bytes":
        return Alphabet.bytes_mode()
    try:
        return Alphabet(value)
    except ValueError as exc:
        raise CipherError(f"--alphabet {value!r}: {exc}") from None


def _cmd_keygen(args) -> int:
    preset = args.k_golden is not None or args.arnolds_cat
    if args.k_golden is not None:
        u = KeyMatrix(Mat2(args.k_golden, 1, 1, 0))
    elif args.arnolds_cat:
        u = KeyMatrix(Mat2(2, 1, 1, 1))
    else:
        required = (args.alpha, args.beta, args.gamma, args.delta)
        if any(v is None for v in required):
            raise CipherError("provide --alpha/--beta/--gamma/--delta or a preset")
        u = KeyMatrix(Mat2(args.alpha, args.beta, args.gamma, args.delta))
    # presets default to the classical (0, 1) seed, explicit keys to (1, 1)
    a0 = args.seed_a if args.seed_a is not None else (0 if preset else 1)
    b0 = args.seed_b if args.seed_b is not None else 1
    key = CipherKey(u, SeedPair(a0, b0), args.n, _parse_perm(args.perm))
    _write(args.out, channel.dumps_key(key, _alphabet_from_flag(args.alphabet)))
    return 0


def _parse_perm(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise CipherError(f"perm must be four comma-separated integers, got {text!r}") from None


def _load_key(path: str):
    return channel.loads_key(_read(path))


def _stdin_message(alphabet: Alphabet) -> str:
    """stdin's text less one trailing line ending (CR LF or LF) that the
    alphabet has no symbol for, so a text message `decrypt` prints reads back in."""
    text = _read("-")
    if alphabet.symbols is not None:
        for newline in ("\r\n", "\n"):
            if text.endswith(newline) and not any(ch in alphabet.symbols for ch in newline):
                return text[: -len(newline)]
    return text


def _cmd_encrypt(args) -> int:
    key, alphabet = _load_key(args.key)
    message = _stdin_message(alphabet) if args.infile == "-" else args.infile
    emit = args.emit_column_ratio or args.ratio_digits is not None  # --ratio-digits implies it
    digits = 2 if args.ratio_digits is None else args.ratio_digits
    if not 0 <= digits <= MAX_RATIO_DIGITS:
        raise CipherError(f"--ratio-digits must be in 0..{MAX_RATIO_DIGITS}, got {digits}")
    packages = encrypt_message(message, key, alphabet, emit_column_ratio=emit, ratio_digits=digits)
    _write(args.out, channel.dumps_packages(packages))
    return 0


def _cmd_decrypt(args) -> int:
    key, alphabet = _load_key(args.key)
    message = decrypt_message(channel.loads_packages(_read(args.infile)), key, alphabet)
    if isinstance(message, bytes):
        sys.stdout.buffer.write(message)
    else:
        sys.stdout.write(message + "\n")
    return 0


def _cmd_verify(args) -> int:
    key, _ = _load_key(args.key)
    packages = channel.loads_packages(_read(args.infile))
    all_clean = True
    for pkg in packages:
        result = verify_package(pkg, key)
        rows = ",".join("top" if r == 0 else "bottom" for r in sorted(result.bad_rows))
        detail = f" rows={rows}" if rows else ""
        print(f"block {pkg.block_index}: {result.status.value}{detail}")
        all_clean = all_clean and result.clean
    return 0 if all_clean else 1


def _cmd_corrupt(args) -> int:
    packages = channel.loads_packages(_read(args.infile))
    try:
        spec = channel.CorruptionSpec(args.spec, args.seed, args.max_delta)
    except ValueError as exc:
        raise CipherError(str(exc)) from None
    corrupted, diffs = channel.corrupt_packages(packages, spec)
    _write(args.out, channel.dumps_packages(corrupted))
    if args.diff:
        _write(args.diff, channel.dumps_diffs(diffs))
    return 0


def _cmd_correct(args) -> int:
    key, alphabet = _load_key(args.key)
    packages = channel.loads_packages(_read(args.infile))
    repaired_packages = []
    worst = 0
    reports = []
    for pkg in packages:
        report = correct(pkg, key, plaintext_bound=alphabet.size)
        if report.success:
            status = "clean" if report.assumed_class is ErrorClass.NONE else "repaired"
        else:
            status = "ambiguous" if report.ambiguous else "uncorrectable"
        reports.append(
            {
                "block_index": pkg.block_index,
                "status": status,
                "assumed_class": report.assumed_class.value,
                "position": list(report.position) if report.position else None,
                "candidates_examined": report.candidates_examined,
                "repaired": [channel._hex(e) for e in report.repaired.entries()]
                if report.repaired
                else None,
                "residual_failure": report.residual_failure,
                "attempts": [list(a) for a in report.attempts],
            }
        )
        if report.success:
            repaired_packages.append(dataclasses.replace(pkg, c=report.repaired))
        worst = max(worst, _CORRECT_EXIT_CODES[status])
    print(json.dumps({"reports": reports}, indent=2))
    if args.out and worst == 0:
        _write(args.out, channel.dumps_packages(repaired_packages))
    return worst


def _cmd_attack(args) -> int:
    key, _ = _load_key(args.oracle_key)
    oracle = EncryptionOracle.from_key(key)
    try:
        if args.family == "golden":
            result = attack_golden(oracle, n_max=args.n_max)
        else:
            result = attack_k_golden(oracle, k_max=args.k_max, n_max=args.n_max)
    except (NotGoldenOracle, NoMatchInBounds) as exc:
        print(json.dumps({"family": args.family, "recovered": None,
                          "failure": type(exc).__name__, "detail": str(exc)}))
        return 1
    k = {"k": result.k} if args.family == "kgolden" else {}
    print(json.dumps({"family": args.family, **k, "n": result.n,
                      "matched_pair": list(result.matched_pair)}))
    return 0


def _cmd_ratios(args) -> int:
    if not 0 <= args.steps <= MAX_ORBIT_STEPS:
        raise CipherError(f"--steps must be in 0..{MAX_ORBIT_STEPS}, got {args.steps}")
    try:  # Fraction builds 10**exponent first, and no such term could be printed
        exponent = int(args.a0.lower().partition("e")[2] or 0)
    except ValueError:  # no exponent that Fraction takes
        exponent = 0
    if abs(exponent) > _MAX_DECIMAL_DIGITS:
        raise CipherError(f"--a0 exponent must be at most {_MAX_DECIMAL_DIGITS} in magnitude, "
                          f"got {args.a0!r}")
    try:
        params = RatioParams(args.t, args.d, Fraction(args.a0))
    except (ValueError, ZeroDivisionError) as exc:
        raise CipherError(f"--a0 must be a nonzero rational, got {args.a0!r}: {exc}") from None
    try:
        lines = [
            f"fixed point: {params.fixed.phi_plus_decimal(12)}",
            f"{'step':>4}  {'ratio':>24}  {'decimal':>18}",
        ]
        for i, a in enumerate(itertools.islice(ratio_orbit(params), args.steps + 1)):
            lines.append(f"{i:>4}  {str(a):>24}  {float(a):>18.12f}")
    except (ValueError, OverflowError):  # past the int-str digit limit or the float range
        raise CipherError("the orbit holds a number too large to print") from None
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unicipher",
        description="Unimodular matrix cipher with error detection and correction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="emit a key file")
    p.add_argument("--alpha", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--gamma", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--seed-a", type=int, default=None)
    p.add_argument("--seed-b", type=int, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--perm", default="0,1,2,3")
    p.add_argument("--alphabet", default="latin",
                   help="latin, bytes, or an explicit symbol string")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--golden", action="store_const", dest="k_golden", const=1,
                       help="the k = 1 case of --k-golden")
    group.add_argument("--k-golden", type=int, default=None, metavar="K")
    group.add_argument("--arnolds-cat", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt text into a packages file")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="infile", required=True,
                   help="literal message text, or - for stdin")
    p.add_argument("--out", default="-")
    p.add_argument("--emit-column-ratio", action="store_true")
    p.add_argument("--ratio-digits", type=int, default=None,
                   help="digits of the column ratio; implies --emit-column-ratio")
    p.set_defaults(func=_cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a packages file")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_decrypt)

    p = sub.add_parser("verify", help="run the check numbers against each package")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("corrupt", help="inject seeded errors into a packages file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--spec", required=True, choices=channel.CORRUPTION_MODES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-delta", type=int, default=None)
    p.add_argument("--diff", default=None, help="sidecar file recording the ground truth")
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("correct", help="repair corrupted packages")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None, help="write repaired packages here")
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("attack", help="chosen-plaintext attack against a key file")
    p.add_argument("--oracle-key", required=True)
    p.add_argument("--family", required=True, choices=("golden", "kgolden"))
    p.add_argument("--n-max", type=int, default=DEFAULT_MAX_EXPONENT)
    p.add_argument("--k-max", type=int, default=10)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("ratios", help="print the exact ratio orbit a(n+1) = t - d/a(n)")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--a0", required=True, help="rational, e.g. 3/2 or 1.5")
    p.add_argument("--steps", type=int, default=10, help=f"0..{MAX_ORBIT_STEPS}")
    p.set_defaults(func=_cmd_ratios)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CipherError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
