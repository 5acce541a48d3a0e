"""On-disk formats and the seeded noisy-channel corrupter.

Key and package files are canonical JSON: fixed field order, two-space
indent, trailing newline, and every payload integer (matrix entries, seeds,
check numbers) written as a decimal string so values of any magnitude
survive untouched.  parse -> serialize is byte-identical.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .cipher import _MAX_DECIMAL_DIGITS, Alphabet, CipherKey, CipherPackage, _ratio_check
from .errors import FormatError
from .matrix import KeyMatrix, Mat2, SeedPair

KEY_FORMAT_VERSION = 1
PACKAGE_FORMAT_VERSION = 1

CORRUPTION_MODES = (
    "single",
    "diagonal",
    "antidiagonal",
    "column_left",
    "column_right",
    "row_top",
    "row_bottom",
    "random",
)

_MODE_POSITIONS = {
    "diagonal": ((0, 0), (1, 1)),
    "antidiagonal": ((0, 1), (1, 0)),
    "column_left": ((0, 0), (1, 0)),
    "column_right": ((0, 1), (1, 1)),
    "row_top": ((0, 0), (0, 1)),
    "row_bottom": ((1, 0), (1, 1)),
}


def _dump(document: dict) -> str:
    return json.dumps(document, indent=2) + "\n"


def _need(document: dict, field: str):
    try:
        return document[field]
    except (KeyError, TypeError):
        raise FormatError(f"missing field {field!r}") from None


def _parse_int(value) -> int:
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            if len(value) > _MAX_DECIMAL_DIGITS:
                raise FormatError(f"integer past the {_MAX_DECIMAL_DIGITS}-digit limit") from None
            raise FormatError(f"not a decimal integer: {value!r}") from None
    raise FormatError(f"expected a decimal string, got {type(value).__name__}")


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None


def _check_version(document: dict, expected: int) -> None:
    version = _need(document, "version")
    if version != expected:
        raise FormatError(f"unsupported format version {version!r}")


# --- keys -------------------------------------------------------------------


def _alphabet_to_dict(alphabet: Alphabet) -> dict:
    if alphabet.symbols is None:
        return {"kind": "bytes"}
    if alphabet == Alphabet.latin():
        return {"kind": "latin"}
    return {"kind": "custom", "symbols": alphabet.symbols}


def _alphabet_from_dict(document: dict) -> Alphabet:
    kind = _need(document, "kind")
    if kind == "latin":
        return Alphabet.latin()
    if kind == "bytes":
        return Alphabet.bytes_mode()
    if kind == "custom":
        symbols = _need(document, "symbols")
        if not isinstance(symbols, str):
            raise FormatError(f"alphabet symbols must be a string, got {type(symbols).__name__}")
        try:
            return Alphabet.custom(symbols)
        except ValueError as exc:
            raise FormatError(f"malformed alphabet: {exc}") from None
    raise FormatError(f"unknown alphabet kind {kind!r}")


def dumps_key(key: CipherKey, alphabet: Alphabet | None = None) -> str:
    alphabet = alphabet if alphabet is not None else Alphabet.latin()
    return _dump({
        "version": KEY_FORMAT_VERSION,
        "u": {
            "alpha": str(key.u.alpha),
            "beta": str(key.u.beta),
            "gamma": str(key.u.gamma),
            "delta": str(key.u.delta),
        },
        "seed": {"a0": str(key.seed.a0), "b0": str(key.seed.b0)},
        "n": key.n,
        "perm": list(key.perm),
        "alphabet": _alphabet_to_dict(alphabet),
    })


def loads_key(text: str) -> tuple[CipherKey, Alphabet]:
    document = _parse_json(text)
    _check_version(document, KEY_FORMAT_VERSION)
    u = _need(document, "u")
    seed = _need(document, "seed")
    matrix = Mat2(
        _parse_int(_need(u, "alpha")),
        _parse_int(_need(u, "beta")),
        _parse_int(_need(u, "gamma")),
        _parse_int(_need(u, "delta")),
    )
    n = _need(document, "n")
    if type(n) is not int:
        raise FormatError("n must be a plain integer")
    perm = _need(document, "perm")
    if not isinstance(perm, list) or any(type(p) is not int for p in perm):
        raise FormatError("perm must be a list of integers")
    key = CipherKey(
        KeyMatrix(matrix),
        SeedPair(_parse_int(_need(seed, "a0")), _parse_int(_need(seed, "b0"))),
        n,
        tuple(perm),
    )
    return key, _alphabet_from_dict(_need(document, "alphabet"))


# --- packages ---------------------------------------------------------------


def _package_text(pkg: CipherPackage) -> str:
    """One package's document as json.dumps(..., indent=2) prints it, nested two deep.

    The document holds c as four decimal strings, det_p as a decimal
    string, column_ratio as {orientation, value, digits} or null, and the
    block_index and pad_len ints.  Nothing is escaped: the entries and
    det_p are ints, and a ColumnRatioCheck holds BOTTOM_OVER_TOP and a
    decimal value.
    """
    c, check = pkg.c, pkg.column_ratio
    if check is None:
        ratio = "null"
    else:
        ratio = (
            "{\n"
            f'        "orientation": "{check.orientation}",\n'
            f'        "value": "{check.value}",\n'
            f'        "digits": {check.digits}\n'
            "      }"
        )
    try:
        return (
            "    {\n"
            '      "c": [\n'
            f'        "{c.a11}",\n'
            f'        "{c.a12}",\n'
            f'        "{c.a21}",\n'
            f'        "{c.a22}"\n'
            "      ],\n"
            f'      "det_p": "{pkg.det_p}",\n'
            f'      "column_ratio": {ratio},\n'
            f'      "block_index": {pkg.block_index},\n'
            f'      "pad_len": {pkg.pad_len}\n'
            "    }"
        )
    except ValueError:  # str() of an int past Python's int-str digit limit
        raise FormatError(
            f"block {pkg.block_index}: an integer has more than {_MAX_DECIMAL_DIGITS} digits"
        ) from None


def dumps_packages(packages) -> str:
    """Canonical package file, written directly.

    Byte-identical to json.dumps(document, indent=2) + "\\n" of the document
    _package_text describes; CipherPackage's field types make that safe.
    An integer past Python's int-str digit limit is a FormatError naming
    its block.
    """
    body = ",\n".join(_package_text(pkg) for pkg in packages)
    packages_text = f"[\n{body}\n  ]" if body else "[]"
    return f'{{\n  "version": {PACKAGE_FORMAT_VERSION},\n  "packages": {packages_text}\n}}\n'


def loads_packages(text: str) -> tuple[CipherPackage, ...]:
    """Parse a package file; block indices must be unique, and only the
    block with the highest index may carry padding."""
    document = _parse_json(text)
    _check_version(document, PACKAGE_FORMAT_VERSION)
    packages = _need(document, "packages")
    if not isinstance(packages, list):
        raise FormatError("packages must be a list")
    parsed = []
    for item in packages:
        entries = _need(item, "c")
        if not isinstance(entries, list) or len(entries) != 4:
            raise FormatError("c must be a list of four decimal strings")
        a11, a12, a21, a22 = entries
        c = Mat2(_parse_int(a11), _parse_int(a12), _parse_int(a21), _parse_int(a22))
        det_p = _parse_int(_need(item, "det_p"))
        block_index, pad_len = _need(item, "block_index"), _need(item, "pad_len")
        ratio = item.get("column_ratio")
        try:
            check = None
            if ratio is not None:
                check = _ratio_check(
                    _need(ratio, "orientation"), _need(ratio, "value"), _need(ratio, "digits")
                )
            parsed.append(CipherPackage(c, det_p, check, block_index, pad_len))
        except (ValueError, TypeError) as exc:
            raise FormatError(f"malformed package: {exc}") from None
    indices = {pkg.block_index for pkg in parsed}
    if len(indices) != len(parsed):
        raise FormatError("duplicate block_index")
    if parsed:
        last = max(indices)
        for pkg in parsed:
            if pkg.pad_len and pkg.block_index != last:
                raise FormatError(
                    f"pad_len {pkg.pad_len} on block {pkg.block_index}, "
                    "but only the last block is padded"
                )
    return tuple(parsed)


# --- corruption -------------------------------------------------------------


@dataclass(frozen=True)
class CorruptionSpec:
    """Deterministic fault model: same seed, spec, and input => same output."""

    mode: str
    seed: int
    model: str = "additive"
    max_delta: int | None = None

    def __post_init__(self):
        if self.mode not in CORRUPTION_MODES:
            raise ValueError(f"unknown corruption mode {self.mode!r}")
        if self.model not in ("additive", "digit-flip"):
            raise ValueError(f"unknown magnitude model {self.model!r}")
        if self.max_delta is not None and self.max_delta < 1:
            raise ValueError(f"max_delta must be at least 1, got {self.max_delta}")


@dataclass(frozen=True)
class CorruptionDiff:
    """Ground truth for test oracles: what changed where."""

    block_index: int
    mode: str
    entries: tuple[tuple[tuple[int, int], int, int], ...]  # (pos, old, new)


def _mutate(value: int, spec: CorruptionSpec, rng: random.Random) -> int:
    if spec.model == "digit-flip":
        digits = list(str(value))
        i = rng.randrange(len(digits))
        choices = [d for d in "0123456789" if d != digits[i]]
        digits[i] = rng.choice(choices)
        return int("".join(digits))
    bound = spec.max_delta if spec.max_delta is not None else max(1, value // 2)
    delta = rng.randint(1, max(1, bound)) * rng.choice((1, -1))
    mutated = value + delta
    if mutated < 0:
        mutated = value + abs(delta)  # keep entries non-negative, still != value
    return mutated


def corrupt_package(
    pkg: CipherPackage, spec: CorruptionSpec
) -> tuple[CipherPackage, CorruptionDiff]:
    """Mutate exactly the entries the mode dictates; checks stay untouched.

    Every mutated entry is guaranteed to differ from the original.  The
    draws come from random.Random(spec.seed * 1_000_003 + block_index), so a
    block's corruption depends only on the spec and the block itself.
    """
    rng = random.Random(spec.seed * 1_000_003 + pkg.block_index)
    mode = spec.mode
    if mode == "random":
        mode = rng.choice(CORRUPTION_MODES[:-1])
    if mode == "single":
        positions = (rng.choice(((0, 0), (0, 1), (1, 0), (1, 1))),)
    else:
        positions = _MODE_POSITIONS[mode]
    rows = [list(r) for r in pkg.c.rows()]
    changes = []
    for pos in positions:
        old = rows[pos[0]][pos[1]]
        new = _mutate(old, spec, rng)
        rows[pos[0]][pos[1]] = new
        changes.append((pos, old, new))
    corrupted = CipherPackage(
        Mat2.from_rows(rows), pkg.det_p, pkg.column_ratio, pkg.block_index, pkg.pad_len
    )
    return corrupted, CorruptionDiff(pkg.block_index, mode, tuple(changes))


def corrupt_packages(
    packages, spec: CorruptionSpec
) -> tuple[tuple[CipherPackage, ...], tuple[CorruptionDiff, ...]]:
    out, diffs = [], []
    for pkg in packages:
        corrupted, diff = corrupt_package(pkg, spec)
        out.append(corrupted)
        diffs.append(diff)
    return tuple(out), tuple(diffs)


def dumps_diffs(diffs) -> str:
    return _dump({
        "version": PACKAGE_FORMAT_VERSION,
        "diffs": [
            {
                "block_index": d.block_index,
                "mode": d.mode,
                "entries": [
                    {"pos": list(pos), "old": str(old), "new": str(new)}
                    for pos, old, new in d.entries
                ],
            }
            for d in diffs
        ],
    })
