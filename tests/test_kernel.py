"""The plain-int kernel and the direct package writer against reference algorithms.

The references below are the per-block algorithms the kernel replaced:
Mat2 products, exact Fraction comparisons, round() on a Fraction, and
json.dumps of the package document.  The library must agree with them on
packages, verify results, decrypted messages and raised exceptions;
decryption also checks det P and the column ratio of every block, and its
errors name the block.  test_correction uses the same references for rows,
verify and decryption.
"""

import copy
import dataclasses
import itertools
import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicipher.channel import (
    HEX_MIN_BITS,
    MAX_HEX_CHARS,
    PACKAGE_FORMAT_VERSION,
    CorruptionSpec,
    _hex,
    corrupt_packages,
    dumps_packages,
)
from unicipher.cipher import (
    Alphabet,
    CipherKey,
    CipherPackage,
    ColumnRatioCheck,
    PlaintextMatrix,
    VerifyResult,
    VerifyStatus,
    _checked,
    _row_plaintext,
    decrypt,
    decrypt_message,
    encrypt,
    encrypt_message,
    verify_package,
)
from unicipher.correction import correct
from unicipher.errors import (
    CheckNumberMismatch,
    FormatError,
    NegativePlaintext,
    NonIntegralPlaintext,
)
from unicipher.matrix import KeyMatrix, Mat2, SeedPair
from unicipher.ratios import round_half_even_ratio
from unicipher.sampling import random_cipher_key

PERMS = tuple(itertools.permutations(range(4)))

# --- reference algorithms ---------------------------------------------------


def ref_decimal(value: Fraction, digits: int) -> str:
    scaled = round(value * 10**digits)  # round() on a Fraction ties to even
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else f"{sign}{text}"


def ref_encrypt(p: Mat2, key, emit, digits, block_index=0, pad_len=0) -> CipherPackage:
    c = p @ key.coding_matrix.matrix
    check = None
    if emit and c.a11 != 0:
        check = ColumnRatioCheck(ref_decimal(Fraction(c.a21, c.a11), digits))
    return CipherPackage(c, p.det(), check, block_index, pad_len)


def ref_encrypt_message(message, key, alphabet, emit, digits):
    idx = alphabet.indices(message)
    pad = (-len(idx)) % 4
    idx.extend([1] * pad)
    packages = []
    for i, start in enumerate(range(0, len(idx), 4)):
        slots = [0, 0, 0, 0]
        for pos in range(4):
            slots[key.perm[pos]] = idx[start + pos]
        last = start + 4 == len(idx)
        packages.append(ref_encrypt(Mat2(*slots), key, emit, digits, i, pad if last else 0))
    return tuple(packages)


def row_interval(m: Mat2):
    """M(n)'s row ratios A(n+1)/A(n) and B(n+1)/B(n) as
    ((lo_num, lo_den), (hi_num, hi_den)), low first, or None when A(n) or
    B(n) is not positive."""
    if m.a12 <= 0 or m.a22 <= 0:
        return None
    ra, rb = (m.a11, m.a12), (m.a21, m.a22)
    return (ra, rb) if m.a11 * m.a22 <= m.a21 * m.a12 else (rb, ra)


def ref_bad_rows(c: Mat2, key) -> frozenset[int]:
    """Rows of C, not all zero, whose ratio is not a Fraction between M(n)'s
    row ratios; none when A(n) or B(n) is not positive."""
    interval = row_interval(key.coding_matrix.matrix)
    if interval is None:
        return frozenset()
    lo, hi = (Fraction(*end) for end in interval)
    return frozenset(
        i for i, (c1, c2) in enumerate(c.rows())
        if (c1, c2) != (0, 0) and (c1 < 0 or c2 <= 0 or not lo <= Fraction(c1, c2) <= hi)
    )


def ref_verify(pkg: CipherPackage, key) -> VerifyResult:
    """det C against det M(n) * det P, and each row against the row interval, on C itself."""
    bad = ref_bad_rows(pkg.c, key)
    if pkg.c.det() == key.coding_matrix.matrix.det() * pkg.det_p:
        status = VerifyStatus.INTERVAL_VIOLATION if bad else VerifyStatus.CLEAN
    else:
        status = VerifyStatus.BOTH if bad else VerifyStatus.DETERMINANT_MISMATCH
    return VerifyResult(status, bad)


def ref_decrypt(pkg: CipherPackage, key) -> tuple[int, ...]:
    m = key.coding_matrix.matrix
    adj, det = m.adjugate(), m.det()
    block = f"block {pkg.block_index}: "
    values = []
    for (i, j), e in zip(itertools.product((0, 1), repeat=2), (pkg.c @ adj).entries()):
        q, r = divmod(e, det)
        if r != 0:
            raise NonIntegralPlaintext(
                f"{block}entry ({i}, {j}) of C·adj M is not divisible by det {det}"
            )
        values.append(q)
    if any(v < 0 for v in values):
        raise NegativePlaintext(
            f"{block}decryption produced negative entries; ciphertext corrupt or key wrong"
        )
    det_p = Mat2(*values).det()
    if det_p != pkg.det_p:
        raise CheckNumberMismatch(
            f"{block}det P of the decrypted block is {det_p}, the package says {pkg.det_p}"
        )
    check, c = pkg.column_ratio, pkg.c
    if check is not None and (
        c.a11 <= 0
        or abs(Fraction(c.a21, c.a11) - Fraction(check.value)) > Fraction(1, 2 * 10**check.digits)
    ):
        raise CheckNumberMismatch(
            f"{block}c21/c11 of the block does not round to the column ratio {check.value}"
        )
    return tuple(values)


def ref_decrypt_message(packages, key, alphabet):
    ordered = sorted(packages, key=lambda pkg: pkg.block_index)
    indices = []
    for pkg in ordered:
        entries = ref_decrypt(pkg, key)
        indices.extend(entries[key.perm[pos]] for pos in range(4))
    pad = ordered[-1].pad_len if ordered else 0
    if pad:
        indices = indices[:-pad]
    return alphabet.render(indices)


def intact(c: Mat2, det_p: int, cm, grid, bound):
    """Row-major entries of P if the block is intact, as correct's clean test
    asks: both rows solve (_row_plaintext), every entry is below bound when
    one is given, and det P and the grid hold (_checked); else None."""
    rows = (_row_plaintext(c.a11, c.a12, cm), _row_plaintext(c.a21, c.a22, cm))
    if None in rows or (bound is not None and max(rows[0] + rows[1]) >= bound):
        return None
    return _checked(c, rows, det_p, grid)


def outcome(fn, *args):
    """fn's result, or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, never swallowed: both sides must agree
        return (type(exc), str(exc))


# --- keys -------------------------------------------------------------------


def draw_key(rng: random.Random, n: int, perm) -> CipherKey:
    key = random_cipher_key(rng, n_lo=n, n_hi=n)
    return CipherKey(key.u, key.seed, n, perm)


def zero_seed_key(rng: random.Random, perm) -> CipherKey:
    """Bare-power multiplier, seed (0, b), n = 1: B(1) = 0, so no row interval exists."""
    u = KeyMatrix(Mat2(rng.randint(1, 12), 1, 1, 0))
    return CipherKey(u, SeedPair(0, rng.randint(1, 9)), 1, perm)


def tamper(pkg: CipherPackage, rng: random.Random) -> CipherPackage:
    """Change some entries (possibly to negative values) and maybe det_p."""
    entries = list(pkg.c.entries())
    for i in rng.sample(range(4), rng.randint(1, 4)):
        entries[i] += rng.choice((-1, 1)) * rng.randint(1, max(1, abs(entries[i])))
    det_p = pkg.det_p + rng.choice((0, 0, 1, -1))
    return CipherPackage(Mat2(*entries), det_p, pkg.column_ratio, pkg.block_index, pkg.pad_len)


def shear(pkg: CipherPackage, rng: random.Random) -> CipherPackage:
    """Add k != 0 times one row to the other and maybe change det_p.

    det C and exact divisibility survive, so only the signs, det P or the
    column ratio can show the change.
    """
    c11, c12, c21, c22 = pkg.c.entries()
    k = rng.choice((-2, -1, 1, 2, 3))
    if rng.random() < 0.5:
        entries = (c11, c12, c21 + k * c11, c22 + k * c12)
    else:
        entries = (c11 + k * c21, c12 + k * c22, c21, c22)
    det_p = pkg.det_p + rng.choice((0, 0, 1, -1))
    return CipherPackage(Mat2(*entries), det_p, pkg.column_ratio, pkg.block_index, pkg.pad_len)


# --- encrypt / verify / decrypt ---------------------------------------------


@given(
    st.integers(0, 2**32),
    st.sampled_from((1, 10, 500)),
    st.sampled_from(PERMS),
    st.booleans(),
    st.integers(0, 6),
    st.binary(max_size=23),
)
@settings(max_examples=150, deadline=None)
def test_message_kernel_matches_reference(seed, n, perm, emit, digits, message):
    rng = random.Random(seed)
    key = draw_key(rng, n, perm)
    alphabet = Alphabet.bytes_mode()
    packages = encrypt_message(message, key, alphabet, emit_column_ratio=emit, ratio_digits=digits)
    assert packages == ref_encrypt_message(message, key, alphabet, emit, digits)
    assert outcome(decrypt_message, packages, key, alphabet) == message
    received = [rng.choice((tamper, shear))(p, rng) if rng.random() < 0.5 else p for p in packages]
    rng.shuffle(received)
    for pkg in received:
        assert verify_package(pkg, key) == ref_verify(pkg, key)
    # The rows verify_package solved under key must not answer for another key.
    other = draw_key(rng, n, perm)
    assert outcome(decrypt_message, received, other, alphabet) == outcome(
        ref_decrypt_message, received, other, alphabet
    )
    assert outcome(decrypt_message, received, key, alphabet) == outcome(
        ref_decrypt_message, received, key, alphabet
    )


def test_copies_carry_no_remembered_rows():
    """A verified and decrypted package keeps its plaintext rows on its C, in
    the process only: every pickle protocol and deepcopy give an equal
    package whose C holds just the four entries, and so does every copy of
    the C itself.  A block correct repaired keeps its rows the same way once
    a package built around it is decrypted."""
    key = CipherKey.arnolds_cat(500)
    (pkg,) = encrypt_message("MATH", key, emit_column_ratio=True)
    assert verify_package(pkg, key).clean
    assert decrypt_message([pkg], key) == "MATH"
    bad = dataclasses.replace(pkg, c=Mat2(pkg.c.a11 + 1, pkg.c.a12, pkg.c.a21, pkg.c.a22))
    repaired = correct(bad, key, plaintext_bound=26).repaired
    assert repaired == pkg.c and repaired is not pkg.c
    assert decrypt_message([dataclasses.replace(bad, c=repaired)], key) == "MATH"
    fields = {f.name for f in dataclasses.fields(CipherPackage)}
    entries = {f.name for f in dataclasses.fields(Mat2)}
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    assert pkg.__dict__.keys() == fields
    for c in (pkg.c, repaired):
        assert c.__dict__.keys() > entries
        copies = [pickle.loads(pickle.dumps(c, proto)) for proto in protocols]
        for copied in (*copies, copy.copy(c), copy.deepcopy(c)):
            assert copied == c
            assert hash(copied) == hash(c) and repr(copied) == repr(c)
            assert copied.__dict__.keys() == entries
    copies = [pickle.loads(pickle.dumps(pkg, proto)) for proto in protocols]
    for copied in (*copies, copy.copy(pkg), copy.deepcopy(pkg)):
        assert copied == pkg
        assert hash(copied) == hash(pkg) and repr(copied) == repr(pkg)
        assert copied.__dict__.keys() == fields
    # a shallow copy shares C, and so its rows, which depend only on C and M(n)
    assert copy.copy(pkg).c is pkg.c
    for copied in (*copies, copy.deepcopy(pkg)):
        assert copied.c.__dict__.keys() == entries


@pytest.mark.parametrize("n", (1, 10, 100, 500))
def test_repaired_rows_answer_only_for_their_key(n):
    """Verifying the repaired packages leaves their rows on each repaired C;
    decrypting them under a second key (another coding matrix) must still
    give the reference's answer, error included, and under the key the
    message."""
    rng = random.Random(n)
    alphabet = Alphabet.bytes_mode()
    for _ in range(6):
        perm = rng.choice(PERMS)
        key, other = draw_key(rng, n, perm), draw_key(rng, n, perm)
        message = rng.randbytes(rng.randint(1, 24))
        packages = encrypt_message(message, key, alphabet, emit_column_ratio=True)
        spec = CorruptionSpec("random", rng.randrange(2**30))
        received, _ = corrupt_packages(packages, spec)
        reports = [correct(pkg, key, plaintext_bound=256) for pkg in received]
        repaired = [
            dataclasses.replace(pkg, c=r.repaired)
            for pkg, r in zip(received, reports) if r.repaired is not None
        ]
        assert all(verify_package(pkg, key).clean for pkg in repaired)
        assert all(pkg.c.__dict__["_rows"][0] is key.coding_matrix for pkg in repaired)
        assert outcome(decrypt_message, repaired, other, alphabet) == outcome(
            ref_decrypt_message, repaired, other, alphabet
        )
        assert outcome(decrypt_message, repaired, key, alphabet) == outcome(
            ref_decrypt_message, repaired, key, alphabet
        )
        if len(repaired) == len(packages):
            assert decrypt_message(repaired, key, alphabet) == message


@pytest.mark.parametrize("n", (1, 10, 100, 500))
def test_unsolved_rows_answer_only_for_their_key(n):
    """Verifying under a second key leaves that key's answer on each C,
    None for the blocks whose rows do not solve under it; verifying and
    decrypting under the key must still give the reference's answers."""
    rng = random.Random(n)
    alphabet = Alphabet.bytes_mode()
    unsolved = 0
    for _ in range(6):
        perm = rng.choice(PERMS)
        key, other = draw_key(rng, n, perm), draw_key(rng, n, perm)
        message = rng.randbytes(rng.randint(1, 24))
        packages = encrypt_message(message, key, alphabet, emit_column_ratio=True)
        assert [verify_package(pkg, other) for pkg in packages] == [
            ref_verify(pkg, other) for pkg in packages
        ]
        assert all(pkg.c.__dict__["_rows"][0] is other.coding_matrix for pkg in packages)
        unsolved += sum(None in pkg.c.__dict__["_rows"][1] for pkg in packages)
        assert [verify_package(pkg, key) for pkg in packages] == [
            ref_verify(pkg, key) for pkg in packages
        ]
        assert decrypt_message(packages, key, alphabet) == message
    assert unsolved


@given(st.integers(0, 2**32), st.sampled_from(PERMS), st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ", max_size=13))
@settings(max_examples=80, deadline=None)
def test_zero_component_seed_skips_interval(seed, perm, text):
    rng = random.Random(seed)
    key = zero_seed_key(rng, perm)
    alphabet = Alphabet()
    packages = encrypt_message(text, key, emit_column_ratio=True, ratio_digits=3)
    assert packages == ref_encrypt_message(text, key, alphabet, True, 3)
    assert decrypt_message(packages, key) == text
    assert row_interval(key.coding_matrix.matrix) is None
    for pkg in packages + tuple(tamper(p, rng) for p in packages):
        assert verify_package(pkg, key) == ref_verify(pkg, key)
        assert outcome(decrypt, pkg, key) == outcome(
            lambda: PlaintextMatrix(Mat2(*ref_decrypt(pkg, key)))
        )


def interval_test_row(rng: random.Random, m: Mat2) -> tuple[int, int]:
    """A zero row, a row with c2 = 0, a row at an end of the interval (as a
    multiple, or divided by the end's gcd so its plaintext is not integral),
    one a unit off an end, or a random row of either sign."""
    (a1, a0), (b1, b0) = m.rows()
    end = rng.choice(((a1, a0), (b1, b0)))
    kind = rng.randrange(6)
    if kind == 0:
        return 0, 0
    if kind == 1:
        return rng.choice((-1, 1)) * rng.randint(1, 9), 0
    if kind == 2:
        k = rng.randint(1, 3)
        return end[0] * k, end[1] * k
    if kind == 3:
        g = math.gcd(*end) or 1
        return end[0] // g, end[1] // g
    if kind == 4:
        return end[0] + rng.choice((-1, 1)), end[1]
    top = 2 * max(m.entries())
    return rng.randint(-top, top), rng.randint(-top, top)


@given(st.integers(0, 2**32), st.sampled_from((1, 2, 10, 100, 500)))
@settings(max_examples=200, deadline=None)
def test_row_interval_is_the_sign_of_the_real_plaintext_row(seed, n):
    """A row of C lies in the row interval, or is zero, exactly when its real
    plaintext row (c1, c2) @ adj M(n) / det M(n) is non-negative, so
    verify_package's sign test flags the rows ref_verify flags."""
    rng = random.Random(seed)
    key = draw_key(rng, n, PERMS[0])
    cm = key.coding_matrix
    j11, j12, j21, j22 = cm.adj
    for _ in range(8):
        rows = interval_test_row(rng, cm.matrix), interval_test_row(rng, cm.matrix)
        c = Mat2(*rows[0], *rows[1])
        bad = ref_bad_rows(c, key)
        if row_interval(cm.matrix) is not None:
            for i, (c1, c2) in enumerate(rows):
                real = Fraction(c1 * j11 + c2 * j21, cm.det), Fraction(c1 * j12 + c2 * j22, cm.det)
                assert (i not in bad) == (min(real) >= 0)
        for det_p in (0, rng.randint(-9, 9)):
            pkg = CipherPackage(c, det_p)
            assert verify_package(pkg, key) == ref_verify(pkg, key)


def test_every_verify_status_matches_reference():
    rng = random.Random(20)
    seen = set()
    for _ in range(400):
        key = draw_key(rng, rng.choice((1, 10, 500)), rng.choice(PERMS))
        p = Mat2(*(rng.randrange(256) for _ in range(4)))
        pkg = tamper(encrypt(PlaintextMatrix(p), key), rng)
        result = verify_package(pkg, key)
        assert result == ref_verify(pkg, key)
        seen.add(result.status)
    # swapping the rows keeps both row ratios; det_p follows the flipped sign
    key = CipherKey.golden(10)  # det M(10) = 1
    swapped = CipherPackage(Mat2(2076, 1283, 1068, 660), -84)
    assert verify_package(swapped, key) == ref_verify(swapped, key)
    seen.add(verify_package(swapped, key).status)
    # bottom ratio 1068/600 is off; det_p restates the observed determinant
    fudged = CipherPackage(Mat2(2076, 1283, 1068, 600), -124644)
    assert verify_package(fudged, key) == ref_verify(fudged, key)
    seen.add(verify_package(fudged, key).status)
    assert seen == set(VerifyStatus)


def test_single_block_wrappers_match_reference():
    rng = random.Random(5)
    for _ in range(300):
        key = draw_key(rng, rng.choice((1, 10, 500)), rng.choice(PERMS))
        p = Mat2(*(rng.randrange(26) for _ in range(4)))
        emit, digits = rng.random() < 0.7, rng.randrange(5)
        index, pad = rng.randrange(50), rng.randrange(4)
        pkg = dataclasses.replace(
            encrypt(PlaintextMatrix(p), key, emit_column_ratio=emit, ratio_digits=digits),
            block_index=index, pad_len=pad,
        )
        assert pkg == ref_encrypt(p, key, emit, digits, index, pad)
        assert decrypt(pkg, key).p == p
        bad = rng.choice((tamper, shear))(pkg, rng)
        assert outcome(lambda: decrypt(bad, key).p.entries()) == outcome(ref_decrypt, bad, key)


def test_half_even_ties_match_reference():
    """Blocks whose c21/c11 ends in an exact 5 just past the rounding digit."""
    ties = 0
    for key in (CipherKey.golden(1), CipherKey.arnolds_cat(1), CipherKey.k_golden(3, 2)):
        for entries in itertools.product(range(12), repeat=4):
            p = Mat2(*entries)
            c = p @ key.coding_matrix.matrix
            if c.a11 == 0 or c.a12 == 0:
                continue
            for digits in range(4):
                if 2 * (c.a21 * 10**digits % c.a11) != c.a11:
                    continue
                ties += 1
                pkg = encrypt(PlaintextMatrix(p), key, emit_column_ratio=True, ratio_digits=digits)
                assert pkg == ref_encrypt(p, key, True, digits)
    assert ties > 100


def test_round_half_even_ratio_examples():
    assert round_half_even_ratio(1, 8, 2) == "0.12"
    assert round_half_even_ratio(3, 8, 2) == "0.38"
    assert round_half_even_ratio(-1, 8, 2) == "-0.12"
    assert round_half_even_ratio(1, -8, 2) == "-0.12"
    assert round_half_even_ratio(5, 2, 0) == "2"
    assert round_half_even_ratio(-5, -2, 0) == "2"
    assert round_half_even_ratio(7, 2, 0) == "4"
    with pytest.raises(ValueError):
        round_half_even_ratio(1, 3, -1)


@given(
    st.integers(-(10**40), 10**40),
    st.integers(-(10**20), 10**20).filter(bool),
    st.integers(0, 12),
)
@settings(max_examples=400, deadline=None)
def test_round_half_even_ratio_matches_round(num, den, digits):
    assert round_half_even_ratio(num, den, digits) == ref_decimal(Fraction(num, den), digits)


@given(st.integers(-(10**6), 10**6), st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_round_half_even_ratio_exact_ties(k, digits):
    # (2k + 1) / (2 * 10**digits) sits exactly halfway between two grid points
    num, den = 2 * k + 1, 2 * 10**digits
    assert round_half_even_ratio(num, den, digits) == ref_decimal(Fraction(num, den), digits)


# --- the direct package writer ----------------------------------------------


def ref_hex(value: int) -> str:
    return hex(value).replace("0x", "", 1)  # "-0xff" -> "-ff"


def package_to_dict(pkg: CipherPackage) -> dict:
    return {
        "c": [ref_hex(e) for e in pkg.c.entries()],
        "det_p": ref_hex(pkg.det_p),
        "column_ratio": None if pkg.column_ratio is None else pkg.column_ratio.value,
        "block_index": pkg.block_index,
    }


def ref_dumps(packages) -> str:
    """The file of a whole message: the header's pad_len is block k-1's."""
    document = {
        "version": PACKAGE_FORMAT_VERSION,
        "blocks": len(packages),
        "pad_len": sum(p.pad_len for p in packages),
        "packages": [package_to_dict(p) for p in packages],
    }
    return json.dumps(document, indent=2) + "\n"


@pytest.mark.parametrize(
    "packages",
    [
        [],
        [CipherPackage(Mat2(1, 2, 3, 4), -5)],
        [CipherPackage(Mat2(0, 0, 0, 0), 0, None, 0, 3)],
        [
            CipherPackage(
                # hex strings of exactly MAX_HEX_CHARS characters, "-" included
                Mat2(16**MAX_HEX_CHARS - 1, -(16 ** (MAX_HEX_CHARS - 1)) + 1, 3, 10**401 + 7),
                -(10**500),
                ColumnRatioCheck("0.51"), 0, 1,
            )
        ],
        [
            CipherPackage(Mat2(1, 1, 1, 1), 0, ColumnRatioCheck("7")),
            CipherPackage(
                Mat2(5, 6, 7, 8), 2, ColumnRatioCheck("0." + "5" * 100), 1
            ),
        ],
    ],
    ids=["empty", "no-ratio", "zero-block", "huge-entries", "digit-extremes"],
)
def test_dumps_packages_is_byte_identical_to_json(packages):
    assert dumps_packages(packages) == ref_dumps(packages)


@given(st.integers(0, 2**32), st.sampled_from((1, 10, 500)), st.binary(max_size=17), st.booleans())
@settings(max_examples=60, deadline=None)
def test_dumps_packages_matches_json_on_real_packages(seed, n, message, emit):
    rng = random.Random(seed)
    key = draw_key(rng, n, rng.choice(PERMS))
    packages = encrypt_message(message, key, Alphabet.bytes_mode(), emit_column_ratio=emit)
    assert dumps_packages(packages) == ref_dumps(packages)


@st.composite
def wide_ints(draw) -> int:
    """An int of any bit length up to 4 * MAX_HEX_CHARS, of either sign.

    Lengths near HEX_MIN_BITS put c11 and c12 on both sides of the writer's
    switch, short lengths reach zero, and lengths of 1-4 mod 8 leave the top
    byte's high nibble zero."""
    bits = draw(st.one_of(
        st.integers(0, 4 * MAX_HEX_CHARS),
        st.integers(HEX_MIN_BITS - 9, HEX_MIN_BITS + 9),
        st.integers(0, 9),
    ))
    x = draw(st.integers(1 << bits >> 1, (1 << bits) - 1))
    return -x if draw(st.booleans()) else x


@given(st.lists(st.tuples(*[wide_ints()] * 5, st.booleans()), max_size=3))
@settings(max_examples=200, deadline=None)
def test_dumps_packages_matches_json_at_every_bit_length(blocks):
    check = ColumnRatioCheck("0.51")
    packages = [
        CipherPackage(Mat2(a, b, c, d), det_p, check if emit else None, i)
        for i, (a, b, c, d, det_p, emit) in enumerate(blocks)
    ]
    values = [x for block in blocks for x in block[:5]]
    assert [_hex(x) for x in values] == [ref_hex(x) for x in values]
    if any(len(ref_hex(x)) > MAX_HEX_CHARS for x in values):
        with pytest.raises(FormatError, match=f"{MAX_HEX_CHARS}-character limit"):
            dumps_packages(packages)
    else:
        assert dumps_packages(packages) == ref_dumps(packages)
