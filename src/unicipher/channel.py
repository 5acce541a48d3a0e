"""On-disk formats and the seeded noisy-channel corrupter.

Key and package files are canonical JSON: fixed field order, two-space
indent, trailing newline.  Every payload integer is a string, so values of
any magnitude survive any JSON reader.  Key files (version 1) write the
matrix entries and seeds in decimal.  A package file (version 3) holds one
whole message: its header gives the block count k and the pad length, its
packages carry block indices exactly 0..k-1 in any order, and only block
k-1 is padded.  Package files and the corruption diff (which shares their
version) write ciphertext entries and det_p in lowercase hex, with a
leading "-" for negatives: CPython converts hex to and from int in linear
time, decimal in quadratic time.  A big integer's hex is made by _hex,
through bytes.hex(), since "%x" formats a long one nibble at a time: over
2,000 random 2,048-bit ints %x takes 2,587 ns per int and _hex 736 ns.  A
package whose c11 and c12 lie below 2**HEX_MIN_BITS keeps one %-format
with %x, which costs less for small ints (142 against 186 ns at 48 bits);
both write the same bytes.  A package integer's hex string is at most
MAX_HEX_CHARS characters long: the writer refuses a longer one naming its
block, the reader naming the package and field.  serialize -> parse ->
serialize is byte-identical.  The reader accepts whatever int(s, 16) accepts
("0xff", "F_F", " ff"), so a hand-edited file need not write back as it was
read.  The corrupter adds a seeded nonzero delta to each entry its mode
picks, keeps a non-negative entry non-negative, and leaves the checks as
they are.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .cipher import _MAX_DECIMAL_DIGITS, Alphabet, CipherKey, CipherPackage, _package
from .cipher import _ratio_check
from .errors import FormatError
from .matrix import MAX_HEX_CHARS, KeyMatrix, Mat2, SeedPair, _require_int

KEY_FORMAT_VERSION = 1
PACKAGE_FORMAT_VERSION = 3
_PAST_THE_LIMIT = f"an integer's hex string is longer than the {MAX_HEX_CHARS}-character limit"

_MODE_POSITIONS = {
    "diagonal": ((0, 0), (1, 1)),
    "antidiagonal": ((0, 1), (1, 0)),
    "column_left": ((0, 0), (1, 0)),
    "column_right": ((0, 1), (1, 1)),
    "row_top": ((0, 0), (0, 1)),
    "row_bottom": ((1, 0), (1, 1)),
}
# The modes that change entries of C, which "random" draws over.
ENTRY_MODES = ("single", *_MODE_POSITIONS)
CORRUPTION_MODES = (*ENTRY_MODES, "random")


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
    except ValueError as exc:  # JSONDecodeError, or a number past Python's int-str limit
        raise FormatError(f"invalid JSON: {exc}") from None


def _check_version(document: dict, expected: int) -> None:
    version = _need(document, "version")
    if type(version) is not int or version != expected:
        raise FormatError(f"unsupported format version {version!r}; this reader reads {expected}")


# --- keys -------------------------------------------------------------------


def _alphabet_to_dict(alphabet: Alphabet) -> dict:
    if alphabet.symbols is None:
        return {"kind": "bytes"}
    if alphabet == Alphabet():
        return {"kind": "latin"}
    return {"kind": "custom", "symbols": alphabet.symbols}


def _alphabet_from_dict(document: dict) -> Alphabet:
    kind = _need(document, "kind")
    if kind == "latin":
        return Alphabet()
    if kind == "bytes":
        return Alphabet.bytes_mode()
    if kind == "custom":
        symbols = _need(document, "symbols")
        if not isinstance(symbols, str):
            raise FormatError(f"alphabet symbols must be a string, got {type(symbols).__name__}")
        try:
            return Alphabet(symbols)
        except ValueError as exc:
            raise FormatError(f"malformed alphabet: {exc}") from None
    raise FormatError(f"unknown alphabet kind {kind!r}")


def dumps_key(key: CipherKey, alphabet: Alphabet = Alphabet()) -> str:
    alpha, beta, gamma, delta = key.u.m.entries()
    return _dump({
        "version": KEY_FORMAT_VERSION,
        "u": {"alpha": str(alpha), "beta": str(beta), "gamma": str(gamma), "delta": str(delta)},
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


# One package's document as json.dumps(..., indent=2) prints it, nested two
# deep: c as four hex strings, det_p as a hex string, column_ratio as a
# decimal string or null, and the block_index int.  Nothing is escaped: the
# entries and det_p are ints, and a ColumnRatioCheck holds a decimal value.
# One %-format is as fast for small ints as printing them in decimal.
_PACKAGE_TEXT = (
    "    {\n"
    '      "c": [\n'
    '        "%x",\n'
    '        "%x",\n'
    '        "%x",\n'
    '        "%x"\n'
    "      ],\n"
    '      "det_p": "%x",\n'
    '      "column_ratio": %s,\n'
    '      "block_index": %d\n'
    "    }"
)
# The same document with its five hex strings made beforehand, by _hex.
_BIG_PACKAGE_TEXT = _PACKAGE_TEXT.replace('"%x"', '"%s"')
# A package whose c11 and c12 lie below 2**HEX_MIN_BITS is written by the
# one %-format above, and a bigger one through _hex.  "%x" % x formats a long
# one nibble at a time; to_bytes().hex() converts it a byte at a time but
# costs more to set up.  Per int (2,000 random ints, best of 7) %x takes
# 142 ns at 48 bits against 186 ns for _hex, the two meet near 100-128 bits,
# and _hex wins at 512 bits (359 against 801 ns) and at 2,048 (736 against
# 2,587 ns).  Per package (500 random packages with a column ratio, best of
# 7) five %x in one template carry less overhead than five calls: at 48 bits
# the template takes 1.5 us against 2.4 us, the two meet near 288 bits, and
# at 1,860 bits (n = 500) the template takes 11.0 us against 5.4 us.
HEX_MIN_BITS = 288
# Two comparisons with it cost the small path about 90 ns a package, where
# max() and bit_length() cost about 250 ns.
_HEX_MIN = 1 << HEX_MIN_BITS


def _hex(x: int) -> str:
    """Return "%x" % x, made by bytes.hex(): lowercase, "-" for a negative."""
    if x < 0:
        return "-" + _hex(-x)
    return x.to_bytes((x.bit_length() + 7) // 8, "big").hex().lstrip("0") or "0"


def _package_text(pkg: CipherPackage) -> str:
    c, check = pkg.c, pkg.column_ratio
    ratio = "null" if check is None else f'"{check.value}"'
    if c.a11 < _HEX_MIN and c.a12 < _HEX_MIN:
        text = _PACKAGE_TEXT % (c.a11, c.a12, c.a21, c.a22, pkg.det_p, ratio, pkg.block_index)
        # a text within the limit holds no integer past it
        if len(text) <= MAX_HEX_CHARS:
            return text
    strings = (_hex(c.a11), _hex(c.a12), _hex(c.a21), _hex(c.a22), _hex(pkg.det_p))
    text = _BIG_PACKAGE_TEXT % (*strings, ratio, pkg.block_index)
    if len(text) > MAX_HEX_CHARS and max(map(len, strings)) > MAX_HEX_CHARS:
        raise FormatError(f"block {pkg.block_index}: {_PAST_THE_LIMIT}")
    return text


def _check_whole(indices, blocks: int) -> None:
    """FormatError, field "framing", unless indices are exactly 0..blocks-1 in any order.

    The first missing or repeated block is read off the sorted indices, so
    the work grows with the packages present, never with blocks.
    """
    n = len(indices)
    if n > blocks:
        raise FormatError(f"framing: a {blocks}-block message in {n} packages")
    for i, index in enumerate(sorted(indices)):
        if index != i:
            block, what = (i, "missing") if index > i else (index, "repeated")
            raise FormatError(f"framing: block {block} of a {blocks}-block message is {what}")
    if n < blocks:
        raise FormatError(f"framing: block {n} of a {blocks}-block message is missing")


def dumps_packages(packages) -> str:
    """Canonical package file of one whole message, written directly.

    The block indices must be exactly 0..k-1, in any order, and only block
    k-1 may carry padding; otherwise FormatError, field "framing".  The
    packages are written in the order given.  Byte-identical to
    json.dumps(document, indent=2) + "\\n" of the document _PACKAGE_TEXT
    describes; CipherPackage's field types make that safe.  An integer whose
    hex string is longer than MAX_HEX_CHARS is a FormatError naming its block.
    """
    packages = tuple(packages)
    blocks = len(packages)
    _check_whole([pkg.block_index for pkg in packages], blocks)
    padded = {pkg.block_index: pkg.pad_len for pkg in packages if pkg.pad_len}
    pad = padded.pop(blocks - 1, 0)
    if padded:
        raise FormatError(f"framing: block {min(padded)} is padded, not the last block")
    body = ",\n".join(_package_text(pkg) for pkg in packages)
    packages_text = f"[\n{body}\n  ]" if body else "[]"
    return (
        f'{{\n  "version": {PACKAGE_FORMAT_VERSION},\n  "blocks": {blocks},\n'
        f'  "pad_len": {pad},\n  "packages": {packages_text}\n}}\n'
    )


def loads_packages(text: str) -> tuple[CipherPackage, ...]:
    """Parse a package file of one whole message, in the file's package order.

    Every field is required.  The header's blocks and pad_len are plain ints,
    pad_len in 0..3 and 0 when there are no blocks, and the block indices are
    exactly 0..blocks-1 (_check_whole); pad_len goes on block blocks-1.  A
    missing or malformed field is a FormatError naming the field ("framing"
    for the header and block_index), and the package's position when it is a
    package's; so is an integer whose hex string is longer than MAX_HEX_CHARS.
    """
    document = _parse_json(text)
    _check_version(document, PACKAGE_FORMAT_VERSION)
    blocks, pad = _need(document, "blocks"), _need(document, "pad_len")
    if type(blocks) is not int or type(pad) is not int:
        raise FormatError("framing: blocks and pad_len must be plain integers")
    if not 0 <= pad <= (3 if blocks else 0):
        raise FormatError(f"framing: pad_len {pad} is not in 0..{3 if blocks else 0}")
    packages = _need(document, "packages")
    if not isinstance(packages, list):
        raise FormatError("packages must be a list")
    last = blocks - 1
    parsed = []
    for item in packages:
        # len() raises TypeError on JSON numbers, booleans and null, and
        # int(x, 16) on lists and objects, so no isinstance check is needed.
        field = "c"
        try:
            a11, a12, a21, a22 = c = item["c"]  # ValueError unless four values
            if type(c) is not list:
                raise TypeError(f"expected a list of four hex strings, got {type(c).__name__}")
            if (
                len(a11) > MAX_HEX_CHARS or len(a12) > MAX_HEX_CHARS
                or len(a21) > MAX_HEX_CHARS or len(a22) > MAX_HEX_CHARS
            ):
                raise ValueError(_PAST_THE_LIMIT)
            c11, c12, c21, c22 = int(a11, 16), int(a12, 16), int(a21, 16), int(a22, 16)
            field = "det_p"
            det_p = item["det_p"]
            if len(det_p) > MAX_HEX_CHARS:
                raise ValueError(_PAST_THE_LIMIT)
            det_p = int(det_p, 16)
            field = "column_ratio"
            check = item["column_ratio"]
            if check is not None:
                check = _ratio_check(check)
            field = "framing"
            index = item["block_index"]
            # the one value _package cannot take on trust: _require_int names
            # a value that is not an int, and an int that passes it is negative
            if type(index) is not int or index < 0:
                _require_int("block_index", index)
                raise ValueError("block_index must be non-negative")
            parsed.append(_package(
                c11, c12, c21, c22, det_p, check, index, pad if index == last else 0
            ))
        except (KeyError, TypeError, ValueError) as exc:
            detail = f"missing field {exc}" if type(exc) is KeyError else exc
            raise FormatError(f"package {len(parsed)}, {field}: {detail}") from None
    _check_whole([pkg.block_index for pkg in parsed], blocks)
    return tuple(parsed)


# --- corruption -------------------------------------------------------------


@dataclass(frozen=True)
class CorruptionSpec:
    """Deterministic additive fault model: same seed, spec, and input => same output.

    Each entry the mode picks moves by a nonzero delta of magnitude at most
    max_delta, or max(1, entry // 2) when max_delta is None.
    """

    mode: str
    seed: int
    max_delta: int | None = None

    def __post_init__(self):
        if self.mode not in CORRUPTION_MODES:
            raise ValueError(f"unknown corruption mode {self.mode!r}")
        _require_int("seed", self.seed)
        if self.max_delta is not None:
            _require_int("max_delta", self.max_delta)
            if self.max_delta < 1:
                raise ValueError(f"max_delta must be at least 1, got {self.max_delta}")


@dataclass(frozen=True)
class CorruptionDiff:
    """Ground truth for test oracles: what changed where."""

    block_index: int
    mode: str
    entries: tuple[tuple[tuple[int, int], int, int], ...]  # (pos, old, new)


def _mutate(value: int, spec: CorruptionSpec, rng: random.Random) -> int:
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
        mode = rng.choice(ENTRY_MODES)
    if mode == "single":
        positions = (rng.choice(((0, 0), (0, 1), (1, 0), (1, 1))),)
    else:
        positions = _MODE_POSITIONS[mode]
    entries = list(pkg.c.entries())
    changes = []
    for pos in positions:
        i = 2 * pos[0] + pos[1]
        old = entries[i]
        entries[i] = new = _mutate(old, spec, rng)
        changes.append((pos, old, new))
    corrupted = _package(*entries, pkg.det_p, pkg.column_ratio, pkg.block_index, pkg.pad_len)
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
                    {"pos": list(pos), "old": _hex(old), "new": _hex(new)}
                    for pos, old, new in d.entries
                ],
            }
            for d in diffs
        ],
    })
