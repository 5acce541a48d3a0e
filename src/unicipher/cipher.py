"""Block cipher on 2x2 integer matrices: C = P @ M(n).

A message is chopped into 4-symbol blocks, each block permuted into a
plaintext matrix and multiplied by the coding matrix.  det P rides along as
a check number; optionally the column ratio c21/c11, rounded to a decimal
string, does too.  A message's packages are numbered 0..k-1 and only the
last carries padding; decrypt_message decodes whatever packages it is
given, in block order, while a package file (channel) holds all k.

Mat2(...) and CipherPackage(...) check every argument, for callers and for
dataclasses.replace.  The package's own builders (_encrypt_blocks,
channel.loads_packages and channel.corrupt_package) pass only values they
have proven, so they build through _package, which checks nothing and
stores the same fields; the reader still checks block_index itself.  The
sender rounds c21/c11 half-even to an int q first and takes q's text from a
bounded memo, so a repeated ratio is formatted once.

Every receiver check reads one solve of P = C @ adj(M(n)) / det M(n):
_package_rows solves both rows (_row_plaintext: a row if it is integral and
non-negative, else None) and keeps them on the ciphertext Mat2, so
verify_package, decryption and correct under the same coding matrix solve a
block once, and a package built around the same C (dataclasses.replace)
shares its rows.  The memo lives in the Mat2 object, for as long as it does,
and never leaves the process.  A block is intact when both rows solve and
det P and the column-ratio grid hold on them (_checked).  _verdict judges a
received block in one pass: P's entries when it is intact and every entry
is below a bound, else the error naming the first check it fails, read off
the same rows.  Decryption asks it with no bound and correct with its
alphabet bound; a repair candidate, built as rows @ M(n), needs only
_checked.  verify_package is the paper's diagnostic: det C and the
row-ratio interval, with the rows it flags.  When both rows solve, no row
can be out of its interval and det P settles the status; otherwise det C
is computed from C, and a row is in its interval exactly when its real
plaintext row is non-negative, a sign test on (c1, c2) @ adj(M(n)) times
det M(n).  _row_plaintext finds each row of a key with big entries
(CodingMatrix.forward is set) from the low bits of C, a 2-adic solve, and
proves it times M(n) equals the row of C over the integers, so only
small-by-big products touch the big entries; other keys divide exactly.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from operator import attrgetter, itemgetter

from .errors import CheckNumberMismatch, CipherError, FormatError, InvalidKey
from .errors import NegativePlaintext, NonIntegralPlaintext, UnknownSymbol
from .matrix import CodingMatrix, KeyMatrix, Mat2, SeedPair, _check_entry_size, _require_int
from .matrix import build_coding_matrix
from .ratios import _fixed_point, _round_half_even

IDENTITY_PERM = (0, 1, 2, 3)
# Cap on transmitted column-ratio digits, so 10**digits stays small on hostile input.
MAX_RATIO_DIGITS = 100
# Python's default limit on int-str conversion: the most digits
# ColumnRatioCheck.grid converts and the key reader handles.
_MAX_DECIMAL_DIGITS = 4300
# A column ratio as round_half_even_ratio writes it for non-negative entries:
# decimal digits, then a point and 1..MAX_RATIO_DIGITS places when there are any.
_RATIO_VALUE = re.compile(r"[0-9]+(?:\.([0-9]{1,%d}))?" % MAX_RATIO_DIGITS)


def _check_perm(perm) -> tuple[int, int, int, int]:
    p = tuple(perm)
    # the integer rule: 1.0 and True sort like 1 but are not ints
    if any(type(x) is not int for x in p) or sorted(p) != [0, 1, 2, 3]:
        raise InvalidKey(f"perm must be a permutation of the ints 0..3, got {perm}")
    return p


@dataclass(frozen=True)
class Alphabet:
    """Symbol table mapping message units to indices 0..size-1.

    Alphabet() is the latin A..Z, every default alphabet of this package;
    Alphabet(symbols), symbols a str of at least two distinct characters,
    is a custom one.  symbols=None selects byte mode:
    messages are bytes, indices 0..255.
    """

    symbols: str | None = string.ascii_uppercase

    def __post_init__(self):
        if self.symbols is not None:
            if type(self.symbols) is not str:
                kind = type(self.symbols).__name__
                raise TypeError(f"symbols must be a str or None, got {kind}")
            if len(self.symbols) < 2:
                raise ValueError("alphabet needs at least two symbols")
            if len(set(self.symbols)) != len(self.symbols):
                raise ValueError("alphabet symbols must be unique")

    @classmethod
    def bytes_mode(cls) -> "Alphabet":
        return cls(None)

    @property
    def size(self) -> int:
        return 256 if self.symbols is None else len(self.symbols)

    def indices(self, message) -> list[int]:
        if self.symbols is None:
            data = message.encode("utf-8") if isinstance(message, str) else bytes(message)
            return list(data)
        out = []
        for ch in message:
            i = self.symbols.find(ch)
            if i < 0:
                raise UnknownSymbol(f"symbol {ch!r} is not in the alphabet")
            out.append(i)
        return out

    def render(self, indices) -> str | bytes:
        """The message of a sequence of indices: bytes() renders byte mode, and
        only when it refuses is the sequence read again for the index to name."""
        if self.symbols is None:
            try:
                return bytes(indices)
            except ValueError:  # an index outside 0..255
                bad = next(i for i in indices if not 0 <= i <= 255)
                raise UnknownSymbol(f"index {bad} is not a byte value") from None
        out = []
        for i in indices:
            if not 0 <= i < len(self.symbols):
                raise UnknownSymbol(f"index {i} is outside the alphabet")
            out.append(self.symbols[i])
        return "".join(out)


@dataclass(frozen=True)
class PlaintextMatrix:
    """Non-negative 2x2 block of symbol indices (or raw numbers), with no alphabet:
    Alphabet.render and correct's plaintext_bound check the entries' bound."""

    p: Mat2

    def __post_init__(self):
        if any(e < 0 for e in self.p.entries()):
            raise ValueError("plaintext entries must be non-negative")


@dataclass(frozen=True)
class ColumnRatioCheck:
    """Rounded column ratio c21/c11 as transmitted: one decimal string.

    The value must be a str (no subclass) holding a non-negative decimal
    with at most MAX_RATIO_DIGITS fractional places, the form the sender
    writes, so an instance holds only ASCII digits and a point.  digits, the
    number of places, is read off the value.  As in Mat2, the hand-written
    __init__ checks the argument and stores every field in one step.
    """

    value: str
    digits: int = field(init=False, repr=False, compare=False)

    def __init__(self, value: str):
        if type(value) is not str:
            raise TypeError(f"value must be a str, got {type(value).__name__}")
        match = _RATIO_VALUE.fullmatch(value)
        if match is None:
            raise ValueError(
                f"column-ratio value must be a non-negative decimal with at most "
                f"{MAX_RATIO_DIGITS} places, got {value!r}"
            )
        object.__setattr__(self, "__dict__", {"value": value, "digits": len(match[1] or "")})

    @cached_property
    def grid(self) -> tuple[int, int]:
        """(R, D) with value = R/D, D = 10**digits; FormatError past _MAX_DECIMAL_DIGITS digits."""
        units = self.value.replace(".", "")
        if len(units) > _MAX_DECIMAL_DIGITS:
            raise FormatError(
                f"column-ratio value has {len(units)} digits, more than {_MAX_DECIMAL_DIGITS}"
            )
        return int(units), 10**self.digits


# Shared ColumnRatioCheck per value: a message repeats a few hundred values at
# 2 digits, so most blocks skip construction (1,024 random 256-byte messages
# at n = 10 carry 1,702 distinct values in 65,532 blocks, so 97 % of blocks
# skip it).  maxsize bounds how many checks hostile input can make it hold,
# and _ratio_check keeps everything but short plain strs (the integer part
# has no limit) out of it.
_interned_ratio_check = lru_cache(maxsize=4096)(ColumnRatioCheck)
_MAX_INTERNED_VALUE = 2 * MAX_RATIO_DIGITS


def _ratio_check(value: str) -> ColumnRatioCheck:
    """The interned check for a str of at most _MAX_INTERNED_VALUE characters, else a new one."""
    if type(value) is str and len(value) <= _MAX_INTERNED_VALUE:
        return _interned_ratio_check(value)
    return ColumnRatioCheck(value)


# The sender's value text per rounded ratio q = c21 * 10**digits / c11 and
# digits.  The values repeat as the intern's do, so most blocks skip
# _fixed_point; maxsize bounds it like the intern.  It holds strings only,
# for _interned_ratio_check to turn into checks.  A q in 0.._MEMO_Q_LIMIT - 1
# has at most _MAX_INTERNED_VALUE - 1 digits, so its text, point included,
# fits the intern.
_ratio_text = lru_cache(maxsize=4096)(_fixed_point)
_MEMO_Q_LIMIT = 10 ** (_MAX_INTERNED_VALUE - 1)


@dataclass(frozen=True)
class CipherPackage:
    """Ciphertext block plus its check numbers and framing.

    The framing fields are plain ints, so the canonical writer can print
    every field without asking the JSON encoder what it holds.  The
    plaintext rows that verify_package, decryption or correct solves stay
    with c, not here (_package_rows).
    """

    c: Mat2
    det_p: int
    column_ratio: ColumnRatioCheck | None = None
    block_index: int = 0
    pad_len: int = 0

    def __init__(
        self,
        c: Mat2,
        det_p: int,
        column_ratio: ColumnRatioCheck | None = None,
        block_index: int = 0,
        pad_len: int = 0,
    ):
        if not isinstance(c, Mat2):
            raise TypeError(f"c must be a Mat2, got {type(c).__name__}")
        if not (type(det_p) is type(block_index) is type(pad_len) is int):
            _require_int("det_p", det_p)
            _require_int("block_index", block_index)
            _require_int("pad_len", pad_len)
        if column_ratio is not None and not isinstance(column_ratio, ColumnRatioCheck):
            raise TypeError("column_ratio must be a ColumnRatioCheck or None")
        if not 0 <= pad_len <= 3:
            raise ValueError("pad_len must be in 0..3")
        if block_index < 0:
            raise ValueError("block_index must be non-negative")
        object.__setattr__(self, "__dict__", {
            "c": c, "det_p": det_p, "column_ratio": column_ratio,
            "block_index": block_index, "pad_len": pad_len,
        })


# Bound once: looking both up on object costs _package about 0.1 us a call.
_object_new, _object_setattr = object.__new__, object.__setattr__


def _package(c11, c12, c21, c22, det_p, check, index, pad) -> CipherPackage:
    """CipherPackage(Mat2(c11, c12, c21, c22), det_p, check, index, pad), checking nothing.

    For the package's own builders, whose every value is already proven:
    exact ints, check a ColumnRatioCheck or None, index >= 0 and pad in
    0..3.  Each object gets the __dict__ its __init__ would store, so
    equality, hash, repr, pickle and copy cannot tell the two apart.
    """
    c = _object_new(Mat2)
    _object_setattr(c, "__dict__", {"a11": c11, "a12": c12, "a21": c21, "a22": c22})
    pkg = _object_new(CipherPackage)
    _object_setattr(pkg, "__dict__", {
        "c": c, "det_p": det_p, "column_ratio": check, "block_index": index, "pad_len": pad,
    })
    return pkg


@dataclass(frozen=True)
class CipherKey:
    """Secret key: multiplier matrix, sequence seed, exponent, block permutation.

    The coding matrix is built, and the exponent checked, once at construction.
    A key whose M(n) has in both rows an entry past the package limit is
    refused (matrix._check_entry_size); build_coding_matrix refuses the
    larger of them before any big product.
    """

    u: KeyMatrix
    seed: SeedPair
    n: int
    perm: tuple[int, int, int, int] = IDENTITY_PERM
    coding_matrix: CodingMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "perm", _check_perm(self.perm))
        cm = build_coding_matrix(self.u, self.seed, self.n)
        if (self.seed.a0 == 0 or self.seed.b0 == 0) and self.n < 1:
            raise InvalidKey("a seed with a zero component needs n >= 1")
        if cm.det == 0:
            raise InvalidKey("seed gives a singular index-0 coding matrix")
        _check_entry_size(cm.matrix)
        object.__setattr__(self, "coding_matrix", cm)

    @classmethod
    def golden(cls, n: int, perm=IDENTITY_PERM) -> "CipherKey":
        return cls.k_golden(1, n, perm)

    @classmethod
    def k_golden(cls, k: int, n: int, perm=IDENTITY_PERM) -> "CipherKey":
        return cls(KeyMatrix(Mat2(k, 1, 1, 0)), SeedPair(0, 1), n, perm)

    @classmethod
    def arnolds_cat(cls, n: int, perm=IDENTITY_PERM) -> "CipherKey":
        return cls(KeyMatrix(Mat2(2, 1, 1, 1)), SeedPair(0, 1), n, perm)


# --- the per-block kernel: plain ints in, API objects built at the boundary --


def _encode(message, alphabet: Alphabet, perm) -> tuple[list[tuple[int, int, int, int]], int]:
    """Row-major plaintext entries of each block, and the pad length; perm is already checked."""
    idx = alphabet.indices(message)
    pad = (-len(idx)) % 4
    idx.extend([1] * pad)  # nonzero, so padding never leaves an all-zero row
    # perm maps block position -> matrix slot; slot s reads position perm.index(s)
    return list(zip(*(idx[perm.index(slot)::4] for slot in range(4)))), pad


def _decode(blocks, pad_len: int, alphabet: Alphabet, perm):
    """Inverse of _encode: un-permute row-major entries, strip the padding, render."""
    unpermute = itemgetter(*perm)
    indices: list[int] = []
    for entries in blocks:
        indices.extend(unpermute(entries))
    if pad_len:
        del indices[-pad_len:]
    return alphabet.render(indices)


def _encrypt_blocks(
    blocks, cm: CodingMatrix, emit_column_ratio: bool, ratio_digits: int, pad_len: int
) -> tuple[CipherPackage, ...]:
    """C = P @ M(n) per block, numbered from 0; the last block carries pad_len.

    The column ratio is q = c21 * 10**ratio_digits / c11 rounded half-even
    to an int, its text from the _ratio_text memo when 0 <= q < _MEMO_Q_LIMIT.
    """
    _require_int("ratio_digits", ratio_digits)
    if not 0 <= ratio_digits <= MAX_RATIO_DIGITS:
        raise ValueError(f"ratio_digits must be in 0..{MAX_RATIO_DIGITS}, got {ratio_digits}")
    scale = 10**ratio_digits
    m11, m12, m21, m22 = cm.matrix.entries()
    last = len(blocks) - 1
    packages = []
    for i, (p11, p12, p21, p22) in enumerate(blocks):
        c11 = p11 * m11 + p12 * m21
        c12 = p11 * m12 + p12 * m22
        c21 = p21 * m11 + p22 * m21
        c22 = p21 * m12 + p22 * m22
        check = None
        if emit_column_ratio and c11:
            q = _round_half_even(c21 * scale, c11)
            if 0 <= q < _MEMO_Q_LIMIT:
                check = _interned_ratio_check(_ratio_text(q, ratio_digits))
            else:  # a text too long for the memo and the intern
                check = _ratio_check(_fixed_point(q, ratio_digits))
        packages.append(_package(
            c11, c12, c21, c22, p11 * p22 - p12 * p21, check, i, pad_len if i == last else 0
        ))
    return tuple(packages)


def _row_plaintext(c1: int, c2: int, cm: CodingMatrix) -> tuple[int, int] | None:
    """(x, y) with (x, y) @ M(n) == (c1, c2) if both are non-negative integers, else None.

    _package_rows, its one caller, asks it of both rows of a block for
    decryption, verify_package and correct.  None means the row is not
    integral or is negative, on either road.  A key with a forward table
    first finds the row mod 2^FORWARD_BITS: (c1, c2) @ adj(M(n)) =
    det * (x, y), so with det = 2^s * odd, the low bits (c1, c2) & mask
    times k are 2^s * (x, y) mod 2^(FORWARD_BITS + s), and the shift by s
    leaves (x, y) mod 2^FORWARD_BITS (Python's & gives a negative entry's
    residue too).  The
    exact forward product then proves the row: M(n) is invertible, so a row
    that passes is the one solution, and a row with entries in
    [0, 2^FORWARD_BITS) always passes.  Only small-by-big products touch the
    big entries.  When the proof fails and c1 < lim, no row qualifies, since
    such a row would have entries below 2^FORWARD_BITS (CodingMatrix.forward);
    otherwise exact division decides, so raw entries of 2^FORWARD_BITS or
    more still decrypt.
    """
    if cm.forward is not None:
        s, mask, k11, k12, k21, k22, lim = cm.forward
        m11, m12, m21, m22 = cm.matrix.entries()
        x1, x2 = c1 & mask, c2 & mask
        x = ((x1 * k11 + x2 * k21) & mask) >> s
        y = ((x1 * k12 + x2 * k22) & mask) >> s
        if x * m11 + y * m21 == c1 and x * m12 + y * m22 == c2:
            return x, y
        if c1 < lim:
            return None
    j11, j12, j21, j22 = cm.adj
    x, rx = divmod(c1 * j11 + c2 * j21, cm.det)
    y, ry = divmod(c1 * j12 + c2 * j22, cm.det)
    if rx or ry or x < 0 or y < 0:
        return None
    return x, y


def _checked(c: Mat2, rows, det_p: int, grid) -> tuple[int, int, int, int] | None:
    """Row-major entries of P with rows = ((p11, p12), (p21, p22)) if det P = det_p
    and, with grid = (R, D), c11 > 0 and (2R - 1) * c11 <= 2D * c21 <= (2R + 1) * c11;
    else None."""
    (p11, p12), (p21, p22) = rows
    if p11 * p22 - p12 * p21 != det_p:
        return None
    if grid is not None:
        r, d = grid
        c11 = c.a11
        if c11 <= 0 or not (2 * r - 1) * c11 <= 2 * d * c.a21 <= (2 * r + 1) * c11:
            return None
    return p11, p12, p21, p22


def _package_rows(c: Mat2, cm: CodingMatrix):
    """The rows of P = C @ adj(M(n)) / det M(n) as (top, bottom), each the
    row's _row_plaintext answer: (x, y) if integral and non-negative, else None.

    This is the one way decryption, verify_package and correct read P.  Rows
    that both solve and pass _checked make the block intact: then C >= 0,
    both rows of C lie in the row interval (verify_package) and
    det C = det M(n) * det P.  The answer depends only on C and M(n), so
    the first call keeps it in c.__dict__ as (cm, (top, bottom)), and a
    later call under the same cm (is) returns it.  The caller applies its
    package's own det_p and grid (_checked), and correct its bound.
    Equality, hash, repr and Mat2.__getstate__ read only the four entries.
    """
    memo = c.__dict__.get("_rows")
    if memo is not None and memo[0] is cm:
        return memo[1]
    rows = _row_plaintext(c.a11, c.a12, cm), _row_plaintext(c.a21, c.a22, cm)
    c.__dict__["_rows"] = (cm, rows)
    return rows


def _verdict(
    pkg: CipherPackage, cm: CodingMatrix, bound: int | None
) -> tuple[int, int, int, int] | CipherError:
    """P's row-major entries if the block is intact with every entry below
    bound (None: no bound), else the error for the first check that fails,
    on the rows of _package_rows: residues mod det, det P, the column-ratio
    grid, then the bound.  _row_plaintext answers None only for a row that
    is not integral or is negative, so a block with an unsolved row is
    NonIntegralPlaintext at the first entry of C·adj M that det does not
    divide, else NegativePlaintext.  Only unsolved rows are tested, since a
    solved row's entries are divisible.  Each is reduced mod det and
    multiplied by the per-key residues of adj M mod det
    (CodingMatrix.adj_residues), so no big product is formed and adj M is
    reduced once per key, not once per block.
    """
    c = pkg.c
    rows = _package_rows(c, cm)
    if None not in rows:
        check = pkg.column_ratio
        entries = _checked(c, rows, pkg.det_p, None if check is None else check.grid)
        if entries is None:
            (p11, p12), (p21, p22) = rows
            det_p = p11 * p22 - p12 * p21
            if det_p != pkg.det_p:
                return CheckNumberMismatch(
                    f"det P of the decrypted block is {det_p}, the package says {pkg.det_p}"
                )
            return CheckNumberMismatch(
                f"c21/c11 of the block does not round to the column ratio {check.value}"
            )
        if bound is not None and max(entries) >= bound:
            return UnknownSymbol(f"plaintext entry {max(entries)} is not below the bound {bound}")
        return entries
    det, (j11, j12, j21, j22) = cm.det, cm.adj_residues
    for i, (c1, c2) in enumerate(c.rows()):
        if rows[i] is None:
            c1, c2 = c1 % det, c2 % det
            for j, r in enumerate((c1 * j11 + c2 * j21, c1 * j12 + c2 * j22)):
                if r % det:
                    return NonIntegralPlaintext(
                        f"entry {(i, j)} of C·adj M is not divisible by det {det}"
                    )
    return NegativePlaintext(
        "decryption produced negative entries; ciphertext corrupt or key wrong"
    )


def _plaintext(pkg: CipherPackage, cm: CodingMatrix) -> tuple[int, int, int, int]:
    """Row-major plaintext entries of an intact package (_verdict with no bound);
    else raises _verdict's error, its message prefixed with the block index."""
    verdict = _verdict(pkg, cm, None)
    if isinstance(verdict, CipherError):
        raise type(verdict)(f"block {pkg.block_index}: {verdict}")
    return verdict


def encrypt(
    p: PlaintextMatrix,
    key: CipherKey,
    *,
    emit_column_ratio: bool = False,
    ratio_digits: int = 2,
) -> CipherPackage:
    """The paper's per-block step: C = P @ M(n), det P as check number, optional
    rounded column ratio c21/c11 (none when c11 = 0).  The package is block 0
    without padding: numbering and padding blocks is encrypt_message's job.
    """
    cm = key.coding_matrix
    (pkg,) = _encrypt_blocks((p.p.entries(),), cm, emit_column_ratio, ratio_digits, 0)
    return pkg


def decrypt(pkg: CipherPackage, key: CipherKey) -> PlaintextMatrix:
    """The paper's per-block step: P = C @ adj(M(n)) / det(M(n)) of an intact package.

    Otherwise raises NonIntegralPlaintext, NegativePlaintext, or
    CheckNumberMismatch when P disagrees with det_p or the column ratio.
    No alphabet bound is checked and pad_len is ignored: that is decrypt_message's job.
    """
    return PlaintextMatrix(Mat2(*_plaintext(pkg, key.coding_matrix)))


class VerifyStatus(Enum):
    CLEAN = "clean"
    DETERMINANT_MISMATCH = "determinant-mismatch"
    INTERVAL_VIOLATION = "interval-violation"
    BOTH = "both"


@dataclass(frozen=True)
class VerifyResult:
    """verify_package's verdict: the status and the rows out of their interval."""

    status: VerifyStatus
    bad_rows: frozenset[int]

    @property
    def clean(self) -> bool:
        return self.status is VerifyStatus.CLEAN


# bad_rows by (top row bad) + 2 * (bottom row bad)
_BAD_ROWS = (frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1}))
# Every verify_package result, at 2 * (index into _BAD_ROWS) + (det mismatch):
# VerifyResult is frozen, so one of each is shared.
_RESULTS = tuple(
    VerifyResult(status, bad_rows)
    for bad_rows in _BAD_ROWS
    for status in (
        (VerifyStatus.CLEAN, VerifyStatus.DETERMINANT_MISMATCH) if not bad_rows
        else (VerifyStatus.INTERVAL_VIOLATION, VerifyStatus.BOTH)
    )
)


def verify_package(pkg: CipherPackage, key: CipherKey) -> VerifyResult:
    """Determinant check plus the per-row ratio interval check.

    A row (c1, c2) of C lies in the row interval, between A(n+1)/A(n) and
    B(n+1)/B(n), or is all zero, exactly when its real plaintext row
    (c1, c2) @ adj M(n) / det M(n) is non-negative: M(n) >= 0 with
    A(n), B(n) > 0 and det M(n) != 0, so the non-negative mixes of M(n)'s
    two rows are the zero row and the rows whose ratio lies between theirs.
    So a row is flagged when an entry of (c1, c2) @ adj M(n), times
    det M(n), is negative.  The check is skipped when A(n) or B(n) is not
    positive (tiny n with a zero-component seed).

    Every key first solves both rows of P (_package_rows), as decryption
    does.  When both solve, P >= 0, so no row is flagged and
    det C = det M(n) * det P: det P against det_p gives the status.
    Otherwise det C and the signs are computed from C.  The rows stay on
    the package's C for decryption under the same key.
    """
    cm = key.coding_matrix
    c = pkg.c
    rows = _package_rows(c, cm)
    if None not in rows:
        return _RESULTS[_checked(c, rows, pkg.det_p, None) is None]
    det, (j11, j12, j21, j22) = cm.det, cm.adj
    bad = 0
    if cm.matrix.a12 > 0 and cm.matrix.a22 > 0:
        for i, (c1, c2) in enumerate(c.rows()):
            if min((c1 * j11 + c2 * j21) * det, (c1 * j12 + c2 * j22) * det) < 0:
                bad += 1 << i
    mismatch = c.a11 * c.a22 - c.a12 * c.a21 != det * pkg.det_p
    return _RESULTS[2 * bad + mismatch]


def encrypt_message(
    message,
    key: CipherKey,
    alphabet: Alphabet = Alphabet(),
    *,
    emit_column_ratio: bool = False,
    ratio_digits: int = 2,
) -> tuple[CipherPackage, ...]:
    """Encode, then encrypt block by block; blocks are independent."""
    blocks, pad = _encode(message, alphabet, key.perm)
    return _encrypt_blocks(blocks, key.coding_matrix, emit_column_ratio, ratio_digits, pad)


def decrypt_message(packages, key: CipherKey, alphabet: Alphabet = Alphabet()):
    """Reorder by block index, decrypt each block as decrypt does, decode, strip final padding.

    An index outside the alphabet is UnknownSymbol from Alphabet.render.
    """
    cm = key.coding_matrix
    ordered = sorted(packages, key=attrgetter("block_index"))
    pad = ordered[-1].pad_len if ordered else 0
    return _decode((_plaintext(pkg, cm) for pkg in ordered), pad, alphabet, key.perm)
