import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicipher.cipher import (
    IDENTITY_PERM,
    Alphabet,
    CipherKey,
    CipherPackage,
    PlaintextMatrix,
    VerifyStatus,
    _decode,
    _encode,
    _MAX_INTERNED_VALUE,
    _ratio_text,
    _row_plaintext,
    decrypt,
    decrypt_message,
    encrypt,
    encrypt_message,
    verify_package,
)
from unicipher.errors import (
    CheckNumberMismatch,
    DegenerateConvergenceWarning,
    InvalidKey,
    NegativePlaintext,
    NonIntegralPlaintext,
    UnknownSymbol,
)
from unicipher.matrix import FORWARD_BITS, MAX_HEX_CHARS, KeyMatrix, Mat2, SeedPair
from unicipher.sampling import random_cipher_key, random_plaintext

from test_kernel import intact


class TestEncodeText:
    """The block kernel's _encode/_decode: row-major entries of permuted 4-symbol blocks."""

    def test_math_block(self):
        blocks, pad = _encode("MATH", Alphabet(), IDENTITY_PERM)
        assert pad == 0
        assert len(blocks) == 1
        assert Mat2(*blocks[0]) == Mat2(12, 0, 19, 7)

    def test_all_zero_block_is_flagged(self):
        blocks, _ = _encode("AAAA", Alphabet(), IDENTITY_PERM)
        assert Mat2(*blocks[0]) == Mat2(0, 0, 0, 0)

    def test_padding(self):
        # index 1 pads, so padding never leaves an all-zero row
        blocks, pad = _encode("MAT", Alphabet(), IDENTITY_PERM)
        assert pad == 1
        assert Mat2(*blocks[0]) == Mat2(12, 0, 19, 1)

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            _encode("math!", Alphabet(), IDENTITY_PERM)

    def test_permutation_roundtrip(self):
        perm = (2, 0, 3, 1)
        blocks, pad = _encode("HELLOWORLD", Alphabet(), perm)
        assert _decode(blocks, pad, Alphabet(), perm) == "HELLOWORLD"

    def test_permuted_block_layout(self):
        # perm maps block position -> matrix slot (row-major)
        blocks, _ = _encode("MATH", Alphabet(), (3, 1, 0, 2))
        assert Mat2(*blocks[0]) == Mat2(19, 0, 7, 12)

    def test_bytes_mode(self):
        alphabet = Alphabet.bytes_mode()
        blocks, pad = _encode(b"\x00\xff\x10", alphabet, IDENTITY_PERM)
        assert pad == 1
        assert Mat2(*blocks[0]) == Mat2(0, 255, 16, 1)
        assert _decode(blocks, pad, alphabet, IDENTITY_PERM) == b"\x00\xff\x10"

    def test_custom_alphabet(self):
        alphabet = Alphabet("0123456789")
        blocks, _ = _encode("2718", alphabet, IDENTITY_PERM)
        assert Mat2(*blocks[0]) == Mat2(2, 7, 1, 8)

    @pytest.mark.parametrize("symbols", [["A", "B"], b"AB", ("A", "B")])
    def test_alphabet_symbols_must_be_a_str(self, symbols):
        with pytest.raises(TypeError, match="symbols must be a str or None"):
            Alphabet(symbols)


class TestCipherKey:
    def test_presets(self):
        assert CipherKey.golden(10).coding_matrix.matrix == Mat2(89, 55, 55, 34)
        assert CipherKey.arnolds_cat(4).coding_matrix.matrix == Mat2(55, 21, 34, 13)
        assert CipherKey.k_golden(2, 2).coding_matrix.matrix == Mat2(5, 2, 2, 1)

    def test_perm_must_be_bijection(self):
        with pytest.raises(InvalidKey):
            CipherKey(KeyMatrix(Mat2(2, 1, 1, 1)), SeedPair(1, 1), 4, (0, 0, 1, 2))
        # the integer rule: 1.0 and False sort like 1 and 0 but are not ints
        for perm in ((1.0, 0, 2, 3), (False, True, 2, 3)):
            with pytest.raises(InvalidKey):
                CipherKey.golden(5, perm=perm)

    def test_zero_seed_needs_positive_exponent(self):
        with pytest.raises(InvalidKey):
            CipherKey.golden(0)

    def test_singular_seed_matrix_rejected(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            shear = KeyMatrix(Mat2(1, 1, 0, 1))
        with pytest.raises(InvalidKey):
            CipherKey(shear, SeedPair(1, 0), 4)

    def test_exponent_cap(self):
        with pytest.raises(InvalidKey):
            CipherKey.golden(513)
        with pytest.raises(InvalidKey, match="^exponent must be a non-negative integer$"):
            CipherKey.golden(-1)

    @given(st.integers(0, 10**9))
    @settings(max_examples=80, deadline=None)
    def test_refused_exactly_when_both_rows_pass_the_package_limit(self, seed):
        # U = [[a, 1], [1, 0]] @ [[b, 1], [1, 0]], sized so that M(n) lands near
        # the limit and n near a power of 2 lets a square U^(2^j) pass it first
        rng = random.Random(seed)
        n = rng.choice((1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 60, 64, 100, 128))
        bits = max(1, round(4 * MAX_HEX_CHARS / (2 * n) * rng.uniform(0.8, 1.2)))
        a, b = rng.getrandbits(bits) | 1, rng.getrandbits(bits) | 1
        u, sp = KeyMatrix(Mat2(a * b + 1, a, b, 1)), SeedPair(rng.randint(0, 9), rng.randint(1, 9))
        m0 = Mat2(u.m.a11 * sp.a0 + u.m.a12 * sp.b0, sp.a0, u.m.a21 * sp.a0 + u.m.a22 * sp.b0, sp.b0)
        mn = (u.m ** n) @ m0
        past = all(max(row).bit_length() > 4 * MAX_HEX_CHARS for row in mn.rows())
        try:
            key = CipherKey(u, sp, n)
        except InvalidKey as exc:
            assert past and "both rows" in str(exc)
        else:
            assert not past and key.coding_matrix.matrix == mn

    def test_seed_errors_come_before_the_package_limit(self):
        # both rows of M(0) pass the limit, yet each key keeps its seed error
        with pytest.raises(InvalidKey, match="zero component needs n >= 1"):
            CipherKey(KeyMatrix(Mat2(3, 1, 2, 1)), SeedPair(0, 2**14285), 0)
        with pytest.warns(DegenerateConvergenceWarning):
            identity = KeyMatrix(Mat2(1, 0, 0, 1))
        with pytest.raises(InvalidKey, match="singular"):
            CipherKey(identity, SeedPair(2**14285, 2**14285), 512)


class TestEncrypt:
    def test_worked_example_one(self):
        key = CipherKey.golden(10)
        pkg = encrypt(PlaintextMatrix(Mat2(12, 0, 19, 7)), key)
        assert pkg.c == Mat2(1068, 660, 2076, 1283)
        assert pkg.det_p == 84
        assert pkg.column_ratio is None

    def test_row_error_example_setup(self):
        key = CipherKey.arnolds_cat(4)
        pkg = encrypt(PlaintextMatrix(Mat2(19, 7, 2, 10)), key)
        assert pkg.c == Mat2(1283, 490, 450, 172)
        assert pkg.det_p == 176

    def test_final_example_with_ratio(self):
        key = CipherKey.arnolds_cat(4)
        pkg = encrypt(
            PlaintextMatrix(Mat2(14, 20, 9, 7)), key,
            emit_column_ratio=True, ratio_digits=2,
        )
        assert pkg.c == Mat2(1450, 554, 733, 280)
        assert pkg.det_p == -82
        assert pkg.column_ratio.value == "0.51"
        assert pkg.column_ratio.digits == 2

    def test_ratio_omitted_on_zero_entry(self):
        key = CipherKey.golden(6)
        pkg = encrypt(PlaintextMatrix(Mat2(0, 0, 1, 2)), key, emit_column_ratio=True)
        assert pkg.column_ratio is None

    @pytest.mark.parametrize("emit", (False, True))
    @pytest.mark.parametrize("digits,error", [
        (-5, ValueError), (101, ValueError), (True, TypeError), (2.0, TypeError),
    ])
    def test_ratio_digits_are_checked_whether_or_not_a_ratio_is_sent(self, emit, digits, error):
        key = CipherKey.golden(5)
        with pytest.raises(error, match="^ratio_digits "):
            encrypt_message("AB", key, emit_column_ratio=emit, ratio_digits=digits)
        with pytest.raises(error, match="^ratio_digits "):
            encrypt(PlaintextMatrix(Mat2(0, 1, 2, 3)), key, emit_column_ratio=emit,
                    ratio_digits=digits)


def fraction_half_even(num: int, den: int, digits: int) -> str:
    """num/den rounded half-even to `digits` places by Fraction's own rounding."""
    whole, places = divmod(round(Fraction(num, den) * 10**digits), 10**digits)
    return f"{whole}.{places:0{digits}d}" if digits else str(whole)


def ratio_sent(c11: int, c21: int, digits: int) -> str:
    """The column-ratio value sent for a block whose C has these c11 and c21:
    under the golden n = 1 key M(n) = [[1, 1], [1, 0]], so P = [[c11, 0], [c21, 0]]
    gives C = [[c11, c11], [c21, c21]]."""
    p = PlaintextMatrix(Mat2(c11, 0, c21, 0))
    pkg = encrypt(p, CipherKey.golden(1), emit_column_ratio=True, ratio_digits=digits)
    assert (pkg.c.a11, pkg.c.a21) == (c11, c21)
    return pkg.column_ratio.value


class TestWriterRatio:
    """The sender rounds c21/c11 to an int q and memoises q's text (_ratio_text)."""

    @pytest.mark.parametrize("digits", range(7))
    def test_matches_fraction_rounding_on_random_pairs(self, digits):
        rng = random.Random(7100 + digits)
        for _ in range(300):
            c11 = rng.getrandbits(rng.randint(1, 200)) + 1
            c21 = rng.getrandbits(rng.randint(0, 200))
            assert ratio_sent(c11, c21, digits) == fraction_half_even(c21, c11, digits)

    @pytest.mark.parametrize("digits", range(7))
    def test_exact_ties_round_to_even(self, digits):
        # c21 * 10**digits / c11 = (2h + 1) / 2 exactly, so q is h or h + 1, whichever is even
        rng = random.Random(7200 + digits)
        for h in list(range(8)) + [rng.getrandbits(80) for _ in range(40)]:
            k = rng.randint(1, 10**6)
            expected = fraction_half_even(2 * h + 1, 2 * 10**digits, digits)
            assert ratio_sent(2 * 10**digits * k, (2 * h + 1) * k, digits) == expected
            even = h + (h & 1)
            assert expected == fraction_half_even(even, 10**digits, digits)

    @pytest.mark.parametrize("random_key", (False, True))
    def test_matches_fraction_rounding_on_encrypted_messages(self, random_key):
        rng = random.Random(7300 + random_key)
        for _ in range(20):
            key = random_cipher_key(rng, n_lo=1, n_hi=500) if random_key else CipherKey.golden(10)
            digits = rng.randint(0, 6)
            packages = encrypt_message(rng.randbytes(40), key, Alphabet.bytes_mode(),
                                       emit_column_ratio=True, ratio_digits=digits)
            for pkg in packages:
                c = pkg.c
                assert pkg.column_ratio.value == fraction_half_even(c.a21, c.a11, digits)

    def test_memo_holds_its_bound_and_no_long_text(self):
        bound = _ratio_text.cache_info().maxsize
        assert bound == 4096
        # c21 / 10**6 at six places is q = c21: one memo entry per value
        values = {ratio_sent(10**6, c21, 6) for c21 in range(bound + 500)}
        assert len(values) == bound + 500
        info = _ratio_text.cache_info()
        assert info.currsize == bound
        # a q with _MAX_INTERNED_VALUE digits would write a longer text: not memoised
        assert ratio_sent(1, 10 ** _MAX_INTERNED_VALUE, 0) == str(10 ** _MAX_INTERNED_VALUE)
        after = _ratio_text.cache_info()
        assert (after.hits, after.misses, after.currsize) == (info.hits, info.misses, bound)
        assert ratio_sent(1, 10 ** (_MAX_INTERNED_VALUE - 1) - 1, 0) == "9" * 199
        assert _ratio_text.cache_info().misses == info.misses + 1


class TestDecrypt:
    def test_worked_example_one(self):
        key = CipherKey.golden(10)
        pkg = CipherPackage(Mat2(1068, 660, 2076, 1283), 84)
        assert decrypt(pkg, key).p == Mat2(12, 0, 19, 7)

    def test_zero_exponent_roundtrip(self):
        key = CipherKey(KeyMatrix(Mat2(2, 1, 1, 1)), SeedPair(2, 3), 0)
        p = PlaintextMatrix(Mat2(4, 9, 2, 6))
        assert decrypt(encrypt(p, key), key).p == p.p

    def test_repaired_example_two(self):
        key = CipherKey.arnolds_cat(4)
        pkg = CipherPackage(Mat2(770, 294, 1846, 705), 126)
        plain = decrypt(pkg, key)
        assert plain.p == Mat2(14, 0, 28, 9)
        assert plain.p.det() == 126

    def test_corruption_surfaces_as_errors(self):
        # seed (1, 2) on the cat key gives det M(n) = 5: a one-off entry bump
        # breaks divisibility, so corruption shows up as a non-integral block
        key = CipherKey(KeyMatrix(Mat2(2, 1, 1, 1)), SeedPair(1, 2), 4)
        assert key.coding_matrix.det == 5
        pkg = encrypt(PlaintextMatrix(Mat2(3, 1, 4, 1)), key)
        bumped = Mat2(pkg.c.a11 + 1, pkg.c.a12, pkg.c.a21, pkg.c.a22)
        with pytest.raises(NonIntegralPlaintext):
            decrypt(CipherPackage(bumped, pkg.det_p), key)
        with pytest.raises(NegativePlaintext):
            decrypt(CipherPackage(Mat2(660, 1068, 1283, 2076), 84), CipherKey.golden(10))

    def test_padding_leaves_no_zero_row(self):
        # Padded with index 0, MATHCS at golden n = 3 gave block 1 the zero
        # row of [[42, 22], [0, 0]]: det P = 0 whatever the top row holds, so
        # 42 -> 41 passed every check and decrypted to MATHDQ.
        key = CipherKey.golden(3)
        _, pkg = encrypt_message("MATHCS", key, emit_column_ratio=True)
        assert pkg.c == Mat2(42, 22, 5, 3) and pkg.pad_len == 2
        bad = dataclasses.replace(pkg, c=Mat2(41, 22, 5, 3))
        with pytest.raises(CheckNumberMismatch):
            decrypt(bad, key)
        assert decrypt_message([pkg], key) == "CS"


    def test_unknown_symbol_names_the_index(self):
        # abc under the bytes alphabet is [[97, 98], [99, 1]]; latin has 26 symbols
        key = CipherKey.golden(10)
        packages = encrypt_message(b"abc", key, Alphabet.bytes_mode())
        with pytest.raises(UnknownSymbol, match="^index 97 is outside the alphabet$"):
            decrypt_message(packages, key)
        big = CipherPackage(Mat2(256, 0, 0, 1) @ key.coding_matrix.matrix, 256)
        with pytest.raises(UnknownSymbol, match="^index 256 is not a byte value$"):
            decrypt_message([big], key, Alphabet.bytes_mode())

    def test_plaintext_refuses_a_negative_entry(self):
        with pytest.raises(ValueError, match="non-negative"):
            PlaintextMatrix(Mat2(1, 2, -3, 4))


class TestVerify:
    def test_clean_package(self):
        key = CipherKey.golden(10)
        pkg = CipherPackage(Mat2(1068, 660, 2076, 1283), 84)
        result = verify_package(pkg, key)
        assert result.clean and result.status is VerifyStatus.CLEAN

    def test_example_two_flags_top_row_and_det(self):
        key = CipherKey.arnolds_cat(4)
        result = verify_package(CipherPackage(Mat2(770, 494, 1846, 705), 126), key)
        assert result.status is VerifyStatus.BOTH
        assert result.bad_rows == frozenset({0})
        assert Mat2(770, 494, 1846, 705).det() == -369074

    def test_consistent_scaling_passes_interval_but_not_det(self):
        key = CipherKey.golden(10)
        result = verify_package(CipherPackage(Mat2(2136, 1320, 2076, 1283), 84), key)
        assert result.status is VerifyStatus.DETERMINANT_MISMATCH
        assert result.bad_rows == frozenset()

    def test_interval_only_violation(self):
        # C = P @ M(10) with P = [[-1, 2], [3, 4]]: det C = det M * det P holds,
        # and only the top row, whose real plaintext row is negative, is flagged
        key = CipherKey.golden(10)
        c = Mat2(-1, 2, 3, 4) @ key.coding_matrix.matrix
        assert c == Mat2(21, 13, 487, 301)
        result = verify_package(CipherPackage(c, -10), key)
        assert result.status is VerifyStatus.INTERVAL_VIOLATION
        assert result.bad_rows == frozenset({0})

    def test_zero_row_is_vacuous(self):
        key = CipherKey.golden(6)
        pkg = encrypt(PlaintextMatrix(Mat2(0, 0, 1, 2)), key)
        assert verify_package(pkg, key).clean


class TestForwardProduct:
    """Blocks of keys with a forward table that the forward product must leave
    to exact division, or must reject exactly.  q = 2**FORWARD_BITS, the
    modulus of the table of an odd-det key such as the cat key."""

    q = 2**FORWARD_BITS

    def test_raw_entries_of_q_or_more_decrypt_exactly(self):
        key = CipherKey.arnolds_cat(500)
        cm = key.coding_matrix
        assert cm.forward is not None
        p = Mat2(self.q, self.q - 1, 3, 2**70 + 5)
        pkg = dataclasses.replace(
            encrypt(PlaintextMatrix(p), key, emit_column_ratio=True), block_index=4
        )
        assert decrypt(pkg, key).p == p
        assert verify_package(pkg, key).clean
        grid = pkg.column_ratio.grid
        assert intact(pkg.c, pkg.det_p, cm, grid, None) == p.entries()
        assert intact(pkg.c, pkg.det_p, cm, grid, 2**71) == p.entries()
        assert intact(pkg.c, pkg.det_p, cm, grid, 2**70 + 5) is None
        assert intact(pkg.c, pkg.det_p, cm, grid, self.q) is None
        assert intact(pkg.c, pkg.det_p, cm, grid, 256) is None

    def test_even_det_takes_the_forward_product(self):
        # seed (0, 2**64) on the cat multiplier: det M(500) = 2**128, s = 128
        key = CipherKey(KeyMatrix(Mat2(2, 1, 1, 1)), SeedPair(0, 2**64), 500)
        assert key.coding_matrix.det == 2**128 and key.coding_matrix.forward[0] == 128
        packages = encrypt_message("MATHEMATICS", key, emit_column_ratio=True)
        assert decrypt_message(packages, key) == "MATHEMATICS"
        assert all(verify_package(pkg, key).clean for pkg in packages)

    def test_shift_by_a_multiple_of_q_is_caught(self):
        # the low bits of C, hence the lifted P, are unchanged; P @ M(n) = C is not
        key = CipherKey.arnolds_cat(500)
        pkg = encrypt(PlaintextMatrix(Mat2(12, 0, 19, 7)), key)
        for i in range(4):
            entries = list(pkg.c.entries())
            entries[i] += self.q
            bad = CipherPackage(Mat2(*entries), pkg.det_p)
            assert verify_package(bad, key).status is VerifyStatus.BOTH
            for bound in (26, None):
                assert intact(bad.c, bad.det_p, key.coding_matrix, None, bound) is None
            with pytest.raises(NegativePlaintext):
                decrypt(bad, key)

    @pytest.mark.parametrize("key", [
        CipherKey.arnolds_cat(500),  # A(n+1) > B(n+1)
        CipherKey(KeyMatrix(Mat2(1, 1, 2, 3)), SeedPair(0, 1), 500),  # A(n+1) < B(n+1)
    ], ids=["a_above_b", "a_below_b"])
    @pytest.mark.parametrize("row", [(q, 0), (0, q), (q - 1, q - 1)])
    def test_rows_at_the_division_limit_decrypt(self, key, row):
        # The forward product fails for (q, 0) and (0, q), whose first entry
        # c1 is A(n+1) * q or B(n+1) * q: one of them is lim = min(A, B) * q,
        # which must reach exact division, and the other lies past it.
        # (q - 1, q - 1) is the largest row the forward product proves.
        cm = key.coding_matrix
        m = cm.matrix
        assert cm.forward is not None and cm.forward[-1] == min(m.a11, m.a21) * self.q
        for rows in ((row, (1, 2)), ((1, 2), row)):
            p = Mat2(*rows[0], *rows[1])
            pkg = encrypt(PlaintextMatrix(p), key, emit_column_ratio=True)
            assert decrypt(pkg, key).p == p
            pkg = encrypt(PlaintextMatrix(p), key, emit_column_ratio=True)
            assert verify_package(pkg, key).clean
            c = pkg.c
            assert (_row_plaintext(c.a11, c.a12, cm), _row_plaintext(c.a21, c.a22, cm)) == rows

    def test_errors_name_the_block_and_the_entry(self):
        # det M(500) = 5 for the cat key with seed (1, 2): the message names
        # the entry's position, not its ~1,100-digit value
        key = CipherKey(KeyMatrix(Mat2(2, 1, 1, 1)), SeedPair(1, 2), 500)
        packages = encrypt_message("MATHEMATICS", key)
        c = packages[2].c
        bad = CipherPackage(Mat2(c.a11, c.a12 + 1, c.a21, c.a22), packages[2].det_p, None, 2, 1)
        with pytest.raises(NonIntegralPlaintext) as info:
            decrypt_message(packages[:2] + (bad,), key)
        assert str(info.value) == "block 2: entry (0, 0) of C·adj M is not divisible by det 5"


@given(st.integers(0, 10**9))
@settings(max_examples=200, deadline=None)
def test_roundtrip_and_check_invariants(seed):
    rng = random.Random(seed)
    key = random_cipher_key(rng)
    p = random_plaintext(rng)
    pkg = encrypt(p, key, emit_column_ratio=rng.random() < 0.5)
    assert pkg.c.det() == key.coding_matrix.det * p.p.det()
    assert decrypt(pkg, key).p == p.p
    assert verify_package(pkg, key).clean


@given(st.text(alphabet=st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXYZ"), max_size=40),
       st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_message_roundtrip(text, seed):
    rng = random.Random(seed)
    key = random_cipher_key(rng, n_lo=2, n_hi=16)
    packages = encrypt_message(text, key, emit_column_ratio=True)
    assert decrypt_message(packages, key) == text
    for i, pkg in enumerate(packages):
        assert pkg.block_index == i
