"""Object semantics of the value objects on the wire path.

Mat2, ColumnRatioCheck, CipherPackage, VerifyResult and CorrectionReport
are frozen dataclasses; the first three validate their arguments in a
hand-written __init__, and CorrectionReport's stores its fields without a
check.  These checks pin the dataclass behaviour they keep: equality,
hashing, repr, dataclasses.replace (which validates again), copying,
pickling and immutability.  The packages that encrypt_message,
loads_packages and corrupt_packages build without those checks
(cipher._package) must be indistinguishable from ones the constructors
build.  The module needs no pytest, so it also runs as a script on
interpreters that have none:

    PYTHONPATH=src python tests/test_value_objects.py
"""

import copy
import dataclasses
import pickle
import random

from unicipher.channel import CorruptionSpec, corrupt_packages, dumps_packages, loads_packages
from unicipher.cipher import (
    Alphabet,
    CipherKey,
    CipherPackage,
    ColumnRatioCheck,
    VerifyResult,
    VerifyStatus,
    encrypt_message,
)
from unicipher.correction import CorrectionReport, ErrorClass
from unicipher.matrix import Mat2
from unicipher.sampling import random_cipher_key

RATIO = ColumnRatioCheck("0.51")
LOG = (("verify", "NegativePlaintext: …"), ("single", "repaired"))


def cases():
    """(object, the same object built again, its repr, a field change that keeps it valid)."""
    return [
        (
            Mat2(1, -2, 3, 10**30),
            Mat2(a11=1, a12=-2, a21=3, a22=10**30),
            f"Mat2(a11=1, a12=-2, a21=3, a22={10**30})",
            {"a22": 4},
        ),
        (
            RATIO,
            ColumnRatioCheck(value="0.51"),
            "ColumnRatioCheck(value='0.51')",
            {"value": "1.96"},
        ),
        (
            CipherPackage(Mat2(1450, 554, 733, 280), -82, RATIO, 3, 1),
            CipherPackage(c=Mat2(1450, 554, 733, 280), det_p=-82, column_ratio=RATIO,
                          block_index=3, pad_len=1),
            f"CipherPackage(c=Mat2(a11=1450, a12=554, a21=733, a22=280), det_p=-82, "
            f"column_ratio={RATIO!r}, block_index=3, pad_len=1)",
            {"column_ratio": None, "pad_len": 0},
        ),
        (
            VerifyResult(VerifyStatus.BOTH, frozenset({1})),
            VerifyResult(status=VerifyStatus.BOTH, bad_rows=frozenset({1})),
            f"VerifyResult(status={VerifyStatus.BOTH!r}, bad_rows=frozenset({{1}}))",
            {"bad_rows": frozenset({0, 1})},
        ),
        (
            CorrectionReport(ErrorClass.SINGLE, 3, Mat2(1, 2, 3, 4), (0, 1), None, False, LOG),
            CorrectionReport(assumed_class=ErrorClass.SINGLE, candidates_examined=3,
                             repaired=Mat2(1, 2, 3, 4), position=(0, 1), attempts=LOG),
            f"CorrectionReport(assumed_class={ErrorClass.SINGLE!r}, candidates_examined=3, "
            f"repaired=Mat2(a11=1, a12=2, a21=3, a22=4), position=(0, 1), "
            f"residual_failure=None, ambiguous=False, attempts={LOG!r})",
            {"repaired": None, "position": None, "ambiguous": True},
        ),
    ]


def raises(exc_type, fn, *args, **kwargs) -> None:
    try:
        fn(*args, **kwargs)
    except exc_type:
        return
    raise AssertionError(f"{fn.__name__} did not raise {exc_type.__name__}")


def field_values(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def test_equality_hash_and_repr():
    for obj, twin, text, change in cases():
        assert obj == twin and not obj != twin
        assert hash(obj) == hash(twin)
        assert repr(obj) == text
        changed = dataclasses.replace(obj, **change)
        assert changed != obj and obj != field_values(obj)
        assert len({obj, twin, changed}) == 2


def test_replace_keeps_other_fields_and_validates():
    for obj, _, _, change in cases():
        changed = dataclasses.replace(obj, **change)
        assert type(changed) is type(obj)
        assert field_values(changed) == {**field_values(obj), **change}
        assert dataclasses.replace(obj) == obj
    raises(TypeError, dataclasses.replace, Mat2(1, 2, 3, 4), a11=1.0)
    raises(ValueError, dataclasses.replace, RATIO, value="0." + "5" * 101)
    pkg = CipherPackage(Mat2(1, 2, 3, 4), -2)
    raises(ValueError, dataclasses.replace, pkg, pad_len=5)
    raises(TypeError, dataclasses.replace, pkg, block_index=True)


def test_package_refuses_each_field():
    c = Mat2(1, 2, 3, 4)
    raises(TypeError, CipherPackage, (1, 2, 3, 4), -2)
    raises(TypeError, CipherPackage, c, -2, None, 0, 1.0)
    raises(TypeError, CipherPackage, c, -2, "0.51")
    raises(ValueError, CipherPackage, c, -2, RATIO, -1)


def test_defaults():
    pkg = CipherPackage(Mat2(1, 2, 3, 4), -2)
    assert (pkg.column_ratio, pkg.block_index, pkg.pad_len) == (None, 0, 0)
    assert VerifyResult(VerifyStatus.CLEAN, frozenset()).clean
    assert not VerifyResult(VerifyStatus.INTERVAL_VIOLATION, frozenset({0})).clean
    report = CorrectionReport(ErrorClass.NONE, 0, None)
    assert (report.position, report.residual_failure, report.ambiguous, report.attempts) == (
        None, None, False, ())
    assert not report.success and CorrectionReport(ErrorClass.NONE, 0, Mat2(1, 0, 0, 1)).success


def test_copy_and_pickle():
    for obj, _, _, _ in cases():
        for clone in (copy.copy(obj), copy.deepcopy(obj)):
            assert clone == obj and hash(clone) == hash(obj) and repr(clone) == repr(obj)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(obj, protocol))
            assert type(back) is type(obj)
            assert back == obj and hash(back) == hash(obj)
            assert field_values(back) == field_values(obj)


def test_assignment_is_refused():
    for obj, twin, _, change in cases():
        for name, value in change.items():
            raises(dataclasses.FrozenInstanceError, setattr, obj, name, value)
            raises(dataclasses.FrozenInstanceError, delattr, obj, name)
        raises(dataclasses.FrozenInstanceError, setattr, obj, "extra", 1)
        assert obj == twin


def built_packages():
    """Every package encrypt_message, loads_packages and corrupt_packages return
    over seeded messages: golden, cat and random keys with n in 1..500, both
    alphabets, without the column ratio and with it at 0..6 digits."""
    rng = random.Random(3303)
    keys = [CipherKey.golden(1), CipherKey.golden(10), CipherKey.golden(500),
            CipherKey.arnolds_cat(3), CipherKey.arnolds_cat(120)]
    keys += [random_cipher_key(rng, n_lo=1, n_hi=500) for _ in range(4)]
    for key in keys:
        for alphabet in (Alphabet(), Alphabet.bytes_mode()):
            for digits in (None, *range(7)):
                size = rng.randint(1, 30)
                message = (rng.randbytes(size) if alphabet.symbols is None
                           else "".join(rng.choice(alphabet.symbols) for _ in range(size)))
                sent = encrypt_message(message, key, alphabet, emit_column_ratio=digits is not None,
                                       ratio_digits=2 if digits is None else digits)
                received = loads_packages(dumps_packages(sent))
                corrupted, _ = corrupt_packages(received, CorruptionSpec("random", rng.randrange(99)))
                yield from sent + received + corrupted


def test_built_packages_match_the_constructors():
    count = 0
    for pkg in built_packages():
        c = pkg.c
        twin = CipherPackage(Mat2(*c.entries()), pkg.det_p, pkg.column_ratio, pkg.block_index,
                             pkg.pad_len)
        assert type(pkg) is CipherPackage and type(c) is Mat2
        assert list(pkg.__dict__.items()) == list(twin.__dict__.items())
        assert list(c.__dict__.items()) == list(twin.c.__dict__.items())
        assert pkg == twin and not pkg != twin and hash(pkg) == hash(twin)
        assert c == twin.c and hash(c) == hash(twin.c)
        assert repr(pkg) == repr(twin)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(pkg, protocol) == pickle.dumps(twin, protocol)
            assert pickle.loads(pickle.dumps(pkg, protocol)) == twin
        for clone in (copy.copy(pkg), copy.deepcopy(pkg)):
            assert list(clone.__dict__.items()) == list(twin.__dict__.items())
            assert repr(clone) == repr(twin)
        assert dataclasses.replace(pkg) == twin
        assert dataclasses.replace(pkg, det_p=pkg.det_p + 1) == dataclasses.replace(
            twin, det_p=twin.det_p + 1)
        raises(ValueError, dataclasses.replace, pkg, pad_len=4)
        raises(TypeError, dataclasses.replace, pkg, block_index=True)
        raises(dataclasses.FrozenInstanceError, setattr, pkg, "det_p", 0)
        raises(dataclasses.FrozenInstanceError, setattr, c, "a11", 0)
        count += 1
    assert count > 1000


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} value-object checks passed")
