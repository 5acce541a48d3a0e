"""Every argument the value-object constructors refuse, with the exact error.

Mat2, ColumnRatioCheck and CipherPackage check their arguments when they
are called and when dataclasses.replace rebuilds them.  Each case pins the
exception type and its full message; a case with two bad arguments pins
which one is named, so the order of the checks is pinned too: Mat2 names
its first bad entry, CipherPackage checks c's type, then det_p,
block_index and pad_len as ints, then column_ratio's type, then pad_len's
range before block_index's.
"""

import dataclasses

import pytest

from unicipher.cipher import MAX_RATIO_DIGITS, CipherPackage, ColumnRatioCheck
from unicipher.matrix import Mat2


class PlainLookingInt(int):
    """An int subclass: equal to a plain int, refused all the same."""


class PlainLookingStr(str):
    """A str subclass: equal to a plain str, refused all the same."""


C = Mat2(1450, 554, 733, 280)
RATIO = ColumnRatioCheck("0.51")
PACKAGE = CipherPackage(C, -82, RATIO, 3, 1)


def ratio_value_error(value) -> str:
    return (f"column-ratio value must be a non-negative decimal with at most "
            f"{MAX_RATIO_DIGITS} places, got {value!r}")


# (id, args, kwargs, exception type, message) for each constructor
MAT2_CASES = [
    ("a11-float", (1.5, 0, 0, 1), {}, TypeError, "a11 must be an int, got float"),
    ("a12-bool", (1, True, 0, 1), {}, TypeError, "a12 must be an int, got bool"),
    ("a21-subclass", (1, 0, PlainLookingInt(3), 1), {}, TypeError,
     "a21 must be an int, got PlainLookingInt"),
    ("a22-str", (1, 0, 0, "1"), {}, TypeError, "a22 must be an int, got str"),
    ("a22-none-keyword", (1, 0, 0), {"a22": None}, TypeError,
     "a22 must be an int, got NoneType"),
    ("a11-before-a22", (1.0, 0, 0, 1.0), {}, TypeError, "a11 must be an int, got float"),
    ("a12-before-a21", (1, "2", None, 4), {}, TypeError, "a12 must be an int, got str"),
    ("a21-before-a22", (1, 2, False, 4.0), {}, TypeError, "a21 must be an int, got bool"),
]

RATIO_CASES = [
    ("float", (0.51,), {}, TypeError, "value must be a str, got float"),
    ("none", (None,), {}, TypeError, "value must be a str, got NoneType"),
    ("subclass", (PlainLookingStr("0.51"),), {}, TypeError,
     "value must be a str, got PlainLookingStr"),
    ("bytes-keyword", (), {"value": b"0.51"}, TypeError, "value must be a str, got bytes"),
    ("negative", ("-0.51",), {}, ValueError, ratio_value_error("-0.51")),
    ("empty", ("",), {}, ValueError, ratio_value_error("")),
    ("bare-point", ("1.",), {}, ValueError, ratio_value_error("1.")),
    ("no-units", (".5",), {}, ValueError, ratio_value_error(".5")),
    ("exponent", ("1e3",), {}, ValueError, ratio_value_error("1e3")),
    ("space", (" 0.51",), {}, ValueError, ratio_value_error(" 0.51")),
    ("newline", ("0.51\n",), {}, ValueError, ratio_value_error("0.51\n")),
    ("non-ascii-digit", ("0.5\u0661",), {}, ValueError, ratio_value_error("0.5\u0661")),
    ("too-many-places", ("0." + "5" * (MAX_RATIO_DIGITS + 1),), {}, ValueError,
     ratio_value_error("0." + "5" * (MAX_RATIO_DIGITS + 1))),
]

PACKAGE_CASES = [
    ("c-tuple", ((1, 2, 3, 4), -2), {}, TypeError, "c must be a Mat2, got tuple"),
    ("c-none", (None, -2), {}, TypeError, "c must be a Mat2, got NoneType"),
    ("det_p-float", (C, -2.0), {}, TypeError, "det_p must be an int, got float"),
    ("det_p-subclass", (C, PlainLookingInt(-2)), {}, TypeError,
     "det_p must be an int, got PlainLookingInt"),
    ("block_index-bool", (C, -2, None, True), {}, TypeError,
     "block_index must be an int, got bool"),
    ("pad_len-float", (C, -2, None, 0, 1.0), {}, TypeError, "pad_len must be an int, got float"),
    ("column_ratio-str", (C, -2, "0.51"), {}, TypeError,
     "column_ratio must be a ColumnRatioCheck or None"),
    ("column_ratio-mat2", (C, -2), {"column_ratio": C}, TypeError,
     "column_ratio must be a ColumnRatioCheck or None"),
    ("pad_len-4", (C, -2, None, 0, 4), {}, ValueError, "pad_len must be in 0..3"),
    ("pad_len-negative", (C, -2), {"pad_len": -1}, ValueError, "pad_len must be in 0..3"),
    ("block_index-negative", (C, -2, RATIO, -1), {}, ValueError,
     "block_index must be non-negative"),
    # two bad arguments: the first check in the order above names its own
    ("c-before-det_p", ("C", -2.0), {}, TypeError, "c must be a Mat2, got str"),
    ("c-before-column_ratio", ((1, 2, 3, 4), -2, "0.51"), {}, TypeError,
     "c must be a Mat2, got tuple"),
    ("det_p-before-block_index", (C, None, None, 1.0), {}, TypeError,
     "det_p must be an int, got NoneType"),
    ("block_index-before-pad_len", (C, -2, None, "0", "0"), {}, TypeError,
     "block_index must be an int, got str"),
    ("pad_len-type-before-column_ratio", (C, -2, "0.51", 0, 1.0), {}, TypeError,
     "pad_len must be an int, got float"),
    ("column_ratio-before-pad_len-range", (C, -2, "0.51", 0, 4), {}, TypeError,
     "column_ratio must be a ColumnRatioCheck or None"),
    ("block_index-type-before-pad_len-range", (C, -2, None, 0.0, 4), {}, TypeError,
     "block_index must be an int, got float"),
    ("pad_len-range-before-block_index-range", (C, -2, None, -1, 4), {}, ValueError,
     "pad_len must be in 0..3"),
]

# (id, object, changes, exception type, message) through dataclasses.replace
REPLACE_CASES = [
    ("Mat2-a11", C, {"a11": 1.0}, TypeError, "a11 must be an int, got float"),
    ("Mat2-a22", C, {"a22": True}, TypeError, "a22 must be an int, got bool"),
    ("Mat2-a12-before-a21", C, {"a21": None, "a12": "554"}, TypeError,
     "a12 must be an int, got str"),
    ("ColumnRatioCheck-type", RATIO, {"value": 51}, TypeError, "value must be a str, got int"),
    ("ColumnRatioCheck-form", RATIO, {"value": "0,51"}, ValueError, ratio_value_error("0,51")),
    ("CipherPackage-c", PACKAGE, {"c": C.entries()}, TypeError, "c must be a Mat2, got tuple"),
    ("CipherPackage-det_p", PACKAGE, {"det_p": "-82"}, TypeError,
     "det_p must be an int, got str"),
    ("CipherPackage-block_index", PACKAGE, {"block_index": True}, TypeError,
     "block_index must be an int, got bool"),
    ("CipherPackage-pad_len", PACKAGE, {"pad_len": 5}, ValueError, "pad_len must be in 0..3"),
    ("CipherPackage-column_ratio", PACKAGE, {"column_ratio": "0.51"}, TypeError,
     "column_ratio must be a ColumnRatioCheck or None"),
    ("CipherPackage-block_index-range", PACKAGE, {"block_index": -3}, ValueError,
     "block_index must be non-negative"),
    ("CipherPackage-c-before-pad_len", PACKAGE, {"pad_len": 9, "c": None}, TypeError,
     "c must be a Mat2, got NoneType"),
    ("CipherPackage-pad_len-before-block_index", PACKAGE, {"block_index": -1, "pad_len": 4},
     ValueError, "pad_len must be in 0..3"),
]


def constructor_cases():
    for make, cases in ((Mat2, MAT2_CASES), (ColumnRatioCheck, RATIO_CASES),
                        (CipherPackage, PACKAGE_CASES)):
        for case_id, args, kwargs, exc_type, message in cases:
            yield pytest.param(make, args, kwargs, exc_type, message,
                               id=f"{make.__name__}-{case_id}")


@pytest.mark.parametrize("make, args, kwargs, exc_type, message", constructor_cases())
def test_constructor_refuses(make, args, kwargs, exc_type, message):
    with pytest.raises(exc_type) as info:
        make(*args, **kwargs)
    assert type(info.value) is exc_type
    assert str(info.value) == message


@pytest.mark.parametrize("obj, changes, exc_type, message",
                         [pytest.param(*case[1:], id=case[0]) for case in REPLACE_CASES])
def test_replace_refuses(obj, changes, exc_type, message):
    with pytest.raises(exc_type) as info:
        dataclasses.replace(obj, **changes)
    assert type(info.value) is exc_type
    assert str(info.value) == message

