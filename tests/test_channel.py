import json
import random
import time

import pytest

from unicipher.channel import (
    CORRUPTION_MODES,
    MAX_HEX_CHARS,
    PACKAGE_FORMAT_VERSION,
    CorruptionSpec,
    corrupt_package,
    corrupt_packages,
    dumps_diffs,
    dumps_key,
    dumps_packages,
    loads_key,
    loads_packages,
)
from unicipher.cipher import (
    _MAX_DECIMAL_DIGITS,
    MAX_RATIO_DIGITS,
    Alphabet,
    CipherKey,
    CipherPackage,
    ColumnRatioCheck,
    PlaintextMatrix,
    _interned_ratio_check,
    decrypt_message,
    encrypt,
    encrypt_message,
)
from unicipher.errors import CheckNumberMismatch, FormatError
from unicipher.matrix import KeyMatrix, Mat2, SeedPair
from unicipher.sampling import random_cipher_key, random_plaintext


# custom-alphabet symbols a key file must not accept
MALFORMED_SYMBOLS = ["AA", "A", "", 5, None, ["A", "B"]]
# alphabet documents whose kind is not latin, bytes or custom, or missing
UNKNOWN_ALPHABET_KINDS = [{"kind": "greek"}, {"kind": "Latin"}, {"kind": None}, {}]


def alphabet_key_text(alphabet) -> str:
    key_dict = json.loads(dumps_key(CipherKey.golden(4)))
    key_dict["alphabet"] = alphabet
    return json.dumps(key_dict)


def custom_alphabet_key_text(symbols) -> str:
    return alphabet_key_text({"kind": "custom", "symbols": symbols})


def over_long_key_text() -> str:
    """A golden key file whose alpha has 4,301 decimal digits, one past Python's
    int-str limit."""
    key_dict = json.loads(dumps_key(CipherKey.golden(4)))
    key_dict["u"]["alpha"] = "9" * (_MAX_DECIMAL_DIGITS + 1)
    return json.dumps(key_dict)


class TestKeyFiles:
    def test_roundtrip_value_equality(self):
        key = CipherKey(KeyMatrix(Mat2(2, 1, 1, 1)), SeedPair(3, 7), 12, (2, 0, 3, 1))
        parsed, alphabet = loads_key(dumps_key(key))
        assert parsed == key
        assert alphabet == Alphabet()

    def test_roundtrip_is_byte_identical(self):
        key = CipherKey.golden(10)
        text = dumps_key(key, Alphabet("ABCDEF"))
        parsed, alphabet = loads_key(text)
        assert dumps_key(parsed, alphabet) == text

    def test_alphabet_kinds(self):
        key = CipherKey.arnolds_cat(4)
        for alphabet in (Alphabet(), Alphabet.bytes_mode(), Alphabet("XYZW")):
            parsed, back = loads_key(dumps_key(key, alphabet))
            assert back == alphabet and parsed == key

    def test_bad_version(self):
        key_dict = json.loads(dumps_key(CipherKey.golden(4)))
        key_dict["version"] = 99
        with pytest.raises(FormatError):
            loads_key(json.dumps(key_dict))

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_version_must_be_an_int(self, version):
        # the integer rule: true and 1.0 compare equal to 1 but are not ints
        key_dict = json.loads(dumps_key(CipherKey.golden(4)))
        key_dict["version"] = version
        with pytest.raises(FormatError, match="unsupported format version"):
            loads_key(json.dumps(key_dict))

    def test_missing_field(self):
        with pytest.raises(FormatError):
            loads_key('{"version": 1, "u": {"alpha": "1"}}')

    @pytest.mark.parametrize("perm", [5, "0123", [0, 1, 2, "3"], [0, 1, 2, 3.0], None])
    def test_malformed_perm(self, perm):
        key_dict = json.loads(dumps_key(CipherKey.golden(4)))
        key_dict["perm"] = perm
        with pytest.raises(FormatError):
            loads_key(json.dumps(key_dict))

    @pytest.mark.parametrize("n", [True, False, 4.0, "4", None])
    def test_exponent_must_be_a_plain_int(self, n):
        key_dict = json.loads(dumps_key(CipherKey.golden(4)))
        key_dict["n"] = n
        with pytest.raises(FormatError):
            loads_key(json.dumps(key_dict))

    def test_non_decimal_entry(self):
        text = dumps_key(CipherKey.golden(4)).replace('"1"', '"one"', 1)
        with pytest.raises(FormatError):
            loads_key(text)

    def test_entry_past_the_digit_limit(self):
        with pytest.raises(FormatError) as info:
            loads_key(over_long_key_text())
        assert str(info.value) == "integer past the 4300-digit limit"

    @pytest.mark.parametrize("symbols", MALFORMED_SYMBOLS)
    def test_malformed_alphabet(self, symbols):
        with pytest.raises(FormatError):
            loads_key(custom_alphabet_key_text(symbols))

    @pytest.mark.parametrize("alphabet", UNKNOWN_ALPHABET_KINDS)
    def test_unknown_alphabet_kind(self, alphabet):
        match = "missing field 'kind'" if not alphabet else "unknown alphabet kind"
        with pytest.raises(FormatError, match=match):
            loads_key(alphabet_key_text(alphabet))


def malformed_package_text(field: str, value) -> str:
    """A one-package file with `field` of the header or the package set to
    `value`; "value" is the column ratio's."""
    pkg = CipherPackage(Mat2(1450, 554, 733, 280), -82, ColumnRatioCheck("0.51"))
    document = json.loads(dumps_packages([pkg]))
    target = document if field in document else document["packages"][0]
    target["column_ratio" if field == "value" else field] = value
    return json.dumps(document)


# (field, value) pairs that make malformed_package_text's file a FormatError
MALFORMED_FIELDS = [
    ("pad_len", 5), ("block_index", "3"), ("value", "abc"), ("value", 0.5),
    pytest.param("value", "0." + "5" * 101, id="value-101-places"),
    ("blocks", True), ("blocks", 1.0), ("pad_len", -1), ("pad_len", True),
    ("c", "abcd"),
]


def framed_packages(*frames) -> list[CipherPackage]:
    """One package per (block_index, pad_len) frame."""
    return [CipherPackage(Mat2(1068, 660, 2076, 1283), 84, None, i, pad) for i, pad in frames]


def framed_packages_text(*frames) -> str:
    """The package file of framed_packages, written by hand since the writer
    refuses a set that is not whole.  As the header's pad_len does, a padded
    frame marks the last block; without one, the frames count the blocks."""
    last, pad = next(((i, pad) for i, pad in frames if pad), (len(frames) - 1, 0))
    return json.dumps({
        "version": PACKAGE_FORMAT_VERSION, "blocks": last + 1, "pad_len": pad,
        "packages": [
            {"c": ["42c", "294", "81c", "503"], "det_p": "54", "column_ratio": None,
             "block_index": i}
            for i, _ in frames
        ],
    })


# Sets that are not a whole message: the block indices are not exactly
# 0..k-1, or a block other than k-1 is padded.
BAD_FRAMES = {
    "duplicate": ((0, 0), (0, 0)),
    "padded-duplicate": ((2, 1), (0, 0), (2, 1)),
    "pad-not-last": ((0, 1), (1, 0)),
    "pad-on-lower-index": ((1, 0), (0, 2)),
    "far-index": ((5, 3),),
    "gap": ((0, 0), (3, 1), (2, 0)),
}
GOOD_FRAMES = {
    "empty": (),
    "one-padded": ((0, 3),),
    "reversed": ((1, 2), (0, 0)),
    "shuffled": ((2, 1), (0, 0), (1, 0)),
}


# (a valid column ratio, a near miss that must not load): the JSON number
# beside the decimal string
NEAR_MISS_RATIOS = [("0.5", 0.5)]


class TestPackageFiles:
    def test_roundtrip_with_huge_entries(self):
        big = 10**40 + 12345  # far beyond 64-bit
        pkg = CipherPackage(
            Mat2(big, big + 1, big + 2, big + 3), -(10**39),
            ColumnRatioCheck("0.51"), 0, 2,
        )
        text = dumps_packages([pkg])
        parsed = loads_packages(text)
        assert parsed == (pkg,)
        assert dumps_packages(parsed) == text

    def test_roundtrip_from_real_encryption(self):
        key = CipherKey.golden(180)  # entries with dozens of digits
        packages = encrypt_message("ARBITRARYPRECISION", key, emit_column_ratio=True)
        text = dumps_packages(packages)
        assert loads_packages(text) == packages
        assert dumps_packages(loads_packages(text)) == text

    def test_optional_ratio_absent(self):
        pkg = CipherPackage(Mat2(1, 2, 3, 4), -5)
        parsed = loads_packages(dumps_packages([pkg]))[0]
        assert parsed.column_ratio is None

    @pytest.mark.parametrize("field, value", MALFORMED_FIELDS)
    def test_malformed_fields_raise_format_error(self, field, value):
        text = malformed_package_text(field, value)
        with pytest.raises(FormatError):
            loads_packages(text)

    @pytest.mark.parametrize("index, detail", [
        ("3", "must be an int, got str"), (True, "must be an int, got bool"),
        (1.0, "must be an int, got float"), (-1, "must be non-negative"),
    ])
    def test_block_index_is_checked_by_the_reader(self, index, detail):
        # the one package field the reader checks itself before building the package
        with pytest.raises(FormatError) as caught:
            loads_packages(malformed_package_text("block_index", index))
        assert str(caught.value) == f"package 0, framing: block_index {detail}"

    @pytest.mark.parametrize("valid, near_miss", NEAR_MISS_RATIOS, ids=["value-0.5"])
    def test_ratio_intern_is_type_exact(self, valid, near_miss):
        (pkg,) = loads_packages(malformed_package_text("value", valid))
        assert pkg.column_ratio == ColumnRatioCheck(valid)
        with pytest.raises(FormatError):
            loads_packages(malformed_package_text("value", near_miss))

    # (value, digits read off it); None marks a value construction refuses.
    # 0.5 and 0.510 were refused when digits travelled apart as 2.
    CONSTRUCTED_RATIOS = [
        ("abc", None),
        ("0.5", 1),
        ("-0.51", None),
        ("0.510", 3),
        (".51", None),
        ("0.", None),
        ("0.5 ", None),
        ("\u0660.\u0665\u0661", None),
    ]

    @pytest.mark.parametrize(
        "value, digits", CONSTRUCTED_RATIOS, ids=[v for v, _ in CONSTRUCTED_RATIOS]
    )
    def test_ratio_value_checked_at_construction(self, value, digits):
        if digits is None:
            with pytest.raises(ValueError):
                ColumnRatioCheck(value)
        else:
            assert ColumnRatioCheck(value).digits == digits

    def test_digits_are_the_places_of_the_value(self):
        assert ColumnRatioCheck("7").digits == 0
        ColumnRatioCheck("1" * 5000 + "." + "5" * MAX_RATIO_DIGITS)
        with pytest.raises(ValueError, match=f"at most {MAX_RATIO_DIGITS} places"):
            ColumnRatioCheck("0." + "5" * (MAX_RATIO_DIGITS + 1))

    def test_only_bottom_over_top_checks_load(self):
        # c21/c11 travels as a bare decimal string; the object of format 2,
        # which could name another orientation, is refused
        ratio = {"orientation": "top-over-bottom", "value": "0.51", "digits": 2}
        with pytest.raises(FormatError, match="column_ratio"):
            loads_packages(malformed_package_text("value", ratio))

    def test_ratio_value_must_be_a_plain_str(self):
        class FormattedStr(str):
            def __format__(self, spec):
                return 'x"y'

        with pytest.raises(TypeError):
            ColumnRatioCheck(FormattedStr("0.51"))

    def test_long_ratio_values_are_not_interned(self):
        long_value = "1" * 999_997 + ".51"
        _interned_ratio_check.cache_clear()
        (pkg,) = loads_packages(malformed_package_text("value", long_value))
        assert pkg.column_ratio == ColumnRatioCheck(long_value)
        assert _interned_ratio_check.cache_info().currsize == 0
        for _ in range(2):
            loads_packages(malformed_package_text("value", "0.51"))
        info = _interned_ratio_check.cache_info()
        assert (info.currsize, info.hits) == (1, 1)

    @pytest.mark.parametrize("frames", BAD_FRAMES.values(), ids=BAD_FRAMES)
    def test_bad_framing_raises_format_error(self, frames):
        with pytest.raises(FormatError, match="framing: (block|a) "):
            loads_packages(framed_packages_text(*frames))

    @pytest.mark.parametrize("frames", BAD_FRAMES.values(), ids=BAD_FRAMES)
    def test_writer_refuses_what_the_reader_refuses(self, frames):
        with pytest.raises(FormatError, match="framing: "):
            dumps_packages(framed_packages(*frames))

    @pytest.mark.parametrize("frames", GOOD_FRAMES.values(), ids=GOOD_FRAMES)
    def test_good_framing_loads(self, frames):
        text = dumps_packages(framed_packages(*frames))
        for parsed in (loads_packages(text), loads_packages(framed_packages_text(*frames))):
            assert [(p.block_index, p.pad_len) for p in parsed] == list(frames)

    @pytest.mark.parametrize("blocks", [10**18, 2, -1], ids=["hostile", "one-short", "negative"])
    def test_the_header_counts_the_blocks(self, blocks):
        # a count that disagrees with the packages fails in time that does not grow with it
        document = json.loads(framed_packages_text((0, 0)))
        document["blocks"] = blocks
        start = time.perf_counter()
        with pytest.raises(FormatError, match=f"framing: .*a {blocks}-block message"):
            loads_packages(json.dumps(document))
        assert time.perf_counter() - start < 1.0

    def test_pad_len_is_zero_without_blocks(self):
        document = json.loads(dumps_packages([]))
        assert loads_packages(json.dumps(document)) == ()
        document["pad_len"] = 1
        with pytest.raises(FormatError, match="framing: pad_len 1 is not in 0..0"):
            loads_packages(json.dumps(document))

    def test_integers_are_lowercase_hex(self):
        pkg = CipherPackage(Mat2(35, 18, 63, 0), -440)
        document = json.loads(dumps_packages([pkg]))
        assert document["version"] == PACKAGE_FORMAT_VERSION == 3
        assert document["packages"][0]["c"] == ["23", "12", "3f", "0"]
        assert document["packages"][0]["det_p"] == "-1b8"

    def test_version_1_is_a_format_error_naming_the_version(self):
        document = json.loads(dumps_packages([CipherPackage(Mat2(1, 2, 3, 4), -2)]))
        document["version"] = 1
        with pytest.raises(FormatError, match="unsupported format version 1"):
            loads_packages(json.dumps(document))

    def test_version_2_is_a_format_error_naming_the_version(self):
        # a file format 2 wrote: no header, per-package pad_len, the ratio as an object
        package = {"c": ["1", "2", "3", "4"], "det_p": "-2", "block_index": 0, "pad_len": 0,
                   "column_ratio": {"orientation": "bottom-over-top", "value": "0.5", "digits": 1}}
        with pytest.raises(FormatError, match="unsupported format version 2; this reader reads 3"):
            loads_packages(json.dumps({"version": 2, "packages": [package]}))

    @pytest.mark.parametrize("version", [2.0, 3.0, True])
    def test_version_must_be_an_int(self, version):
        document = json.loads(dumps_packages([CipherPackage(Mat2(1, 2, 3, 4), -2)]))
        document["version"] = version
        with pytest.raises(FormatError, match="unsupported format version"):
            loads_packages(json.dumps(document))

    @pytest.mark.parametrize("field", ["c", "det_p"])
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_hex_length_limit_on_loading(self, field, sign):
        # the limit counts the "-" of a negative integer
        def text(length):
            document = json.loads(dumps_packages([CipherPackage(Mat2(1, 2, 3, 4), -2)]))
            value = sign + "f" * (length - len(sign))
            if field == "c":
                document["packages"][0]["c"][2] = value
            else:
                document["packages"][0]["det_p"] = value
            return json.dumps(document)

        loads_packages(text(MAX_HEX_CHARS))
        with pytest.raises(FormatError, match=f"{field}: .*{MAX_HEX_CHARS}-character limit"):
            loads_packages(text(MAX_HEX_CHARS + 1))

    @pytest.mark.parametrize("at_limit, past_limit", [
        (16**MAX_HEX_CHARS - 1, 16**MAX_HEX_CHARS),
        (-(16 ** (MAX_HEX_CHARS - 1)) + 1, -(16 ** (MAX_HEX_CHARS - 1))),
    ], ids=["positive", "negative"])
    def test_hex_length_limit_on_writing(self, at_limit, past_limit):
        first = CipherPackage(Mat2(1, 2, 3, 4), -2)
        text = dumps_packages([first, CipherPackage(Mat2(1, 2, at_limit, 4), at_limit, None, 1)])
        assert loads_packages(text)[1].c.a21 == at_limit
        with pytest.raises(FormatError, match=f"block 1: .*{MAX_HEX_CHARS}-character limit"):
            dumps_packages([first, CipherPackage(Mat2(1, 2, 3, 4), past_limit, None, 1)])

    def test_integers_within_the_limit_print_in_decimal(self):
        # a det_p at the limit still fits in the message that names it
        key = CipherKey.golden(2)
        document = json.loads(dumps_packages(encrypt_message("MATH", key)))
        document["packages"][0]["det_p"] = "f" * MAX_HEX_CHARS
        packages = loads_packages(json.dumps(document))
        with pytest.raises(CheckNumberMismatch, match=str(16**MAX_HEX_CHARS - 1)):
            decrypt_message(packages, key, Alphabet())

    def test_malformed_entries_list(self):
        with pytest.raises(FormatError):
            loads_packages('{"version": 3, "blocks": 1, "pad_len": 0, "packages": [{"c": ["1","2","3"], "det_p": "1", "column_ratio": null, "block_index": 0}]}')


class TestCorruption:
    def test_single_changes_exactly_one_entry(self):
        pkg = CipherPackage(Mat2(1068, 660, 2076, 1283), 84)
        corrupted, diff = corrupt_package(pkg, CorruptionSpec("single", seed=7))
        delta = [a != b for a, b in zip(corrupted.c.entries(), pkg.c.entries())]
        assert sum(delta) == 1
        assert len(diff.entries) == 1
        assert corrupted.det_p == pkg.det_p

    def test_row_top_touches_only_the_top_row(self):
        key = CipherKey.arnolds_cat(4)
        pkg = encrypt(PlaintextMatrix(Mat2(19, 7, 2, 10)), key, emit_column_ratio=True)
        corrupted, diff = corrupt_package(pkg, CorruptionSpec("row_top", seed=3))
        assert corrupted.c.rows()[1] == pkg.c.rows()[1]
        assert corrupted.c.rows()[0] != pkg.c.rows()[0]
        assert all(old != new for _, old, new in diff.entries)
        assert corrupted.column_ratio == pkg.column_ratio
        assert corrupted.det_p == pkg.det_p

    def test_same_seed_same_output(self):
        pkg = CipherPackage(Mat2(1068, 660, 2076, 1283), 84)
        spec = CorruptionSpec("diagonal", seed=99)
        first, _ = corrupt_package(pkg, spec)
        second, _ = corrupt_package(pkg, spec)
        assert first == second

    def test_blocks_get_independent_noise(self):
        packages = [
            CipherPackage(Mat2(1068, 660, 2076, 1283), 84, block_index=i) for i in range(4)
        ]
        spec = CorruptionSpec("single", seed=5)
        corrupted, diffs = corrupt_packages(packages, spec)
        assert len({c.c.entries() for c in corrupted}) > 1
        # deterministic per block regardless of neighbors
        again, _ = corrupt_package(packages[2], spec)
        assert again == corrupted[2]

    def test_mutated_entries_always_differ_and_stay_non_negative(self):
        rng = random.Random(11)
        for _ in range(100):
            pkg = CipherPackage(
                Mat2(rng.randrange(0, 5), rng.randrange(0, 10**6),
                     rng.randrange(0, 10**3), rng.randrange(0, 10)),
                1, block_index=rng.randrange(100),
            )
            mode = rng.choice(CORRUPTION_MODES)
            corrupted, diff = corrupt_package(pkg, CorruptionSpec(mode, seed=rng.randrange(2**30)))
            for pos, old, new in diff.entries:
                assert old != new
                assert new >= 0
                assert corrupted.c.rows()[pos[0]][pos[1]] == new

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            CorruptionSpec("pepper", seed=1)

    @pytest.mark.parametrize("max_delta", [-3, 0])
    def test_max_delta_below_one_rejected(self, max_delta):
        with pytest.raises(ValueError, match="max_delta"):
            CorruptionSpec("single", seed=1, max_delta=max_delta)

    @pytest.mark.parametrize("field,value", [
        ("seed", 1.5), ("seed", "x"), ("max_delta", 2.5), ("max_delta", True),
    ])
    def test_non_int_seed_or_max_delta_rejected(self, field, value):
        # the package's one integer rule, at construction rather than in corrupt_package
        args = {"seed": 1, "max_delta": None, field: value}
        with pytest.raises(TypeError, match=f"{field} must be an int"):
            CorruptionSpec("single", **args)

    def test_max_delta_bounds_the_change(self):
        pkg = CipherPackage(Mat2(1068, 660, 2076, 1283), 84)
        for seed in range(20):
            _, diff = corrupt_package(pkg, CorruptionSpec("random", seed=seed, max_delta=1))
            assert all(abs(new - old) == 1 for _, old, new in diff.entries)

    def test_diff_serialization(self):
        pkg = CipherPackage(Mat2(1068, 660, 2076, 1283), 84)
        _, diff = corrupt_package(pkg, CorruptionSpec("column_left", seed=2))
        document = json.loads(dumps_diffs([diff]))
        (entry_0, entry_1) = document["diffs"][0]["entries"]
        assert document["diffs"][0]["mode"] == "column_left"
        assert (entry_0["pos"], entry_0["old"], entry_1["pos"], entry_1["old"]) == (
            [0, 0], "42c", [1, 0], "81c"  # 1068 and 2076 in hex
        )
        assert [int(e["new"], 16) for e in (entry_0, entry_1)] == [
            new for _, _, new in diff.entries
        ]


def test_random_keys_serialize_cleanly():
    rng = random.Random(3)
    for _ in range(50):
        key = random_cipher_key(rng)
        p = random_plaintext(rng)
        pkg = encrypt(p, key, emit_column_ratio=True)
        assert loads_key(dumps_key(key))[0] == key
        assert loads_packages(dumps_packages([pkg]))[0] == pkg
