"""Hypothesis fuzzing of the file loaders and the command line.

Any packages the writer accepts write back byte-identical after a load.
Mutated key and package documents may make loads_key and loads_packages
raise only CipherError, and the same holds for verify_package, correct and
decrypt_message on whatever loads.  cli.main over a small argv grammar may
only exit with 0, 1, 2 or 3.  The @example inputs are the ones that once
ended in a traceback.
"""

import contextlib
import copy
import io
import json
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unicipher.channel import CORRUPTION_MODES, MAX_HEX_CHARS, dumps_key, dumps_packages
from unicipher.channel import loads_key, loads_packages
from unicipher.cipher import MAX_RATIO_DIGITS, Alphabet, CipherKey, CipherPackage
from unicipher.cipher import ColumnRatioCheck, decrypt_message, encrypt_message, verify_package
from unicipher.cli import MAX_ORBIT_STEPS, main
from unicipher.correction import correct
from unicipher.errors import CipherError
from unicipher.matrix import KeyMatrix, Mat2, SeedPair

# --- serialize -> parse -> serialize -----------------------------------------

# the integers whose hex strings, "-" included, are at most MAX_HEX_CHARS long
LOWEST, HIGHEST = -(16 ** (MAX_HEX_CHARS - 1)) + 1, 16**MAX_HEX_CHARS - 1
HEX_INTEGERS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.integers(LOWEST, HIGHEST),
    st.sampled_from((0, LOWEST, HIGHEST)),
)


@st.composite
def ratio_checks(draw):
    digits = draw(st.integers(0, MAX_RATIO_DIGITS))
    units = str(draw(st.integers(0, 10**120))).rjust(digits + 1, "0")
    value = f"{units[:-digits]}.{units[-digits:]}" if digits else units
    return ColumnRatioCheck(value)


@st.composite
def package_lists(draw):
    """A whole message's packages: block indices 0..k-1 shuffled, padding only on k-1."""
    k = draw(st.integers(0, 4))
    return [
        CipherPackage(
            Mat2(*(draw(HEX_INTEGERS) for _ in range(4))),
            draw(HEX_INTEGERS),
            draw(st.none() | ratio_checks()),
            index,
            draw(st.integers(0, 3)) if index == k - 1 else 0,
        )
        for index in draw(st.permutations(range(k)))
    ]


@given(package_lists())
@settings(max_examples=100, deadline=None)
def test_serialize_parse_serialize_is_byte_identical(packages):
    text = dumps_packages(packages)
    parsed = loads_packages(text)
    assert parsed == tuple(packages)
    assert dumps_packages(parsed) == text


# --- mutated documents -------------------------------------------------------

DELETE = object()
REPLACEMENTS = (
    None, True, False, 0, -1, 2**70, 1.5, 1e308, float("nan"), [], [1], {}, {"kind": 1},
    "", "abc", "-1", "9" * 5000, "x" * 5000, "f" * MAX_HEX_CHARS, DELETE,
)


def canonical_pair(key: CipherKey, alphabet: Alphabet, message) -> tuple[dict, dict]:
    packages = encrypt_message(message, key, alphabet, emit_column_ratio=True)
    return json.loads(dumps_key(key, alphabet)), json.loads(dumps_packages(packages))


DOCUMENTS = (
    canonical_pair(CipherKey.golden(2), Alphabet(), "MATHEMATICS"),
    canonical_pair(
        CipherKey(KeyMatrix(Mat2(3, 2, 1, 1)), SeedPair(5, 7), 40, (2, 0, 3, 1)),
        Alphabet("ABCDEFGH"), "CAFEBABE",
    ),
    canonical_pair(CipherKey.arnolds_cat(500), Alphabet.bytes_mode(), b"\x00\xffbytes"),
)


def paths(node, prefix=()):
    """Every path below the root of a JSON document."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for step, child in children:
        yield prefix + (step,)
        if isinstance(child, (dict, list)):
            yield from paths(child, prefix + (step,))


def edits(document):
    return st.lists(
        st.tuples(st.sampled_from(list(paths(document))), st.sampled_from(REPLACEMENTS)),
        max_size=3,
    )


def mutate(document, changes) -> str:
    document = copy.deepcopy(document)
    for path, value in changes:
        *parents, last = path
        node = document
        try:
            for step in parents:
                node = node[step]
            if value is DELETE:
                del node[last]
            else:
                node[last] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            continue  # an earlier change removed or replaced the path
    return json.dumps(document)


def unless_cipher_error(fn, *args, **kwargs):
    """fn's result, or None when it raises CipherError; anything else escapes."""
    try:
        return fn(*args, **kwargs)
    except CipherError:
        return None


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_documents_raise_only_cipher_errors(data):
    key_doc, pkg_doc = data.draw(st.sampled_from(DOCUMENTS))
    loaded = unless_cipher_error(loads_key, mutate(key_doc, data.draw(edits(key_doc))))
    packages = unless_cipher_error(loads_packages, mutate(pkg_doc, data.draw(edits(pkg_doc))))
    if loaded is None or packages is None:
        return
    key, alphabet = loaded
    for pkg in packages:
        unless_cipher_error(verify_package, pkg, key)
        unless_cipher_error(correct, pkg, key, plaintext_bound=alphabet.size)
    unless_cipher_error(decrypt_message, packages, key, alphabet)


# --- the command line ----------------------------------------------------------

# "@name" is a file in the work directory; gen_* files are what the CLI writes.
KEYS = ("@key.json", "@key_bytes.json", "@key_true_n.json", "@key_bad_alphabet.json",
        "@gen_key.json", "@missing.json", "@binary.bin")
PACKAGES = ("@pkgs.json", "@pkgs_long_ratio.json", "@pkgs_long_entry.json",
            "@pkgs_widest_entry.json", "@pkgs_truncated.json", "@pkgs_long_number.json",
            "@gen_pkgs.json", "@missing.json", "@binary.bin", "@key.json")
PACKAGE_OUTS = ("@gen_pkgs.json", "-", "@no-such-dir/out.json")
SMALL = ("0", "1", "2", "-3", "abc")

GRAMMAR = {  # command: (required flags, optional flags); None marks a switch
    "keygen": (
        (("--n", ("0", "1", "2", "10", "512", "513", "-1", "x")),),
        (("--golden", None), ("--arnolds-cat", None), ("--k-golden", ("0", "1", "3", "-2")),
         ("--alpha", ("1", "2", "3", "1000000000", "0", "-1")), ("--beta", ("1", "2", "0")),
         ("--gamma", ("1", "999999999", "0")), ("--delta", ("1", "2", "0", "-1")),
         ("--seed-a", SMALL), ("--seed-b", SMALL),
         ("--perm", ("0,1,2,3", "2,0,3,1", "0,1,2", "a,b,c,d", "0,0,1,2")),
         ("--alphabet", ("latin", "bytes", "ABCDEFGH", "A", "AA", "")),
         ("--out", ("@gen_key.json", "-", "@no-such-dir/key.json"))),
    ),
    "encrypt": (
        (("--key", KEYS), ("--in", ("MATH", "MATHEMATICS", "math", "Grüße", "", "-"))),
        (("--out", PACKAGE_OUTS), ("--emit-column-ratio", None),
         ("--ratio-digits", ("0", "2", "5", "-3", "101", "x"))),
    ),
    "decrypt": ((("--key", KEYS), ("--in", PACKAGES)), ()),
    "verify": ((("--key", KEYS), ("--in", PACKAGES)), ()),
    "corrupt": (
        (("--in", PACKAGES), ("--spec", CORRUPTION_MODES + ("bogus",)),
         ("--seed", ("0", "7", "46", "-5", "x"))),
        (("--out", PACKAGE_OUTS), ("--max-delta", ("-3", "0", "1", "1000")),
         ("--diff", ("@gen_diff.json", "@no-such-dir/diff.json"))),
    ),
    "correct": ((("--key", KEYS), ("--in", PACKAGES)), (("--out", PACKAGE_OUTS),)),
    "attack": (
        (("--oracle-key", KEYS), ("--family", ("golden", "kgolden", "x"))),
        (("--n-max", ("0", "5", "512", "-1")), ("--k-max", ("0", "1", "10", "-1"))),
    ),
    "ratios": (
        (("--t", ("1", "3", "1000", "-3", "0", "9" * 400)), ("--d", ("1", "-1", "0", "5")),
         ("--a0", ("1.5", "5/3", "0", "abc", "1/0", "-2", "1e5000", "1e-5000"))),
        (("--steps", ("0", "3", "10", "-1", str(MAX_ORBIT_STEPS), str(MAX_ORBIT_STEPS + 1))),),
    ),
}


@st.composite
def argv(draw):
    """One command line: its required flags, perhaps less one, some optional ones,
    and perhaps a stray token."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    required, optional = GRAMMAR[command]
    drop = draw(st.none() | st.sampled_from(range(len(required))))
    chosen = [f for i, f in enumerate(required) if i != drop]
    chosen += [f for f in optional if draw(st.booleans())]
    args = [command]
    for flag, values in chosen:
        args.append(flag)
        if values is not None:
            args.append(draw(st.sampled_from(values)))
    stray = draw(st.sampled_from((None,) * 6 + ("--bogus", "--help")))
    return args if stray is None else args + [stray]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    key = CipherKey.golden(2)
    (path / "key.json").write_text(dumps_key(key))
    bytes_key = dumps_key(CipherKey.arnolds_cat(4), Alphabet.bytes_mode())
    (path / "key_bytes.json").write_text(bytes_key)
    document = json.loads(dumps_key(key))
    document["n"] = True
    (path / "key_true_n.json").write_text(json.dumps(document))
    document["n"], document["alphabet"] = 2, {"kind": "custom", "symbols": "AA"}
    (path / "key_bad_alphabet.json").write_text(json.dumps(document))
    text = dumps_packages(encrypt_message("MATHEMATICS", key, emit_column_ratio=True))
    (path / "pkgs.json").write_text(text)
    document = json.loads(text)
    document["packages"][0]["column_ratio"] = "1" * 5000 + ".51"
    (path / "pkgs_long_ratio.json").write_text(json.dumps(document))
    document = json.loads(text)
    document["packages"][0]["c"][0] = "7" * 5000
    (path / "pkgs_long_entry.json").write_text(json.dumps(document))
    document["packages"][0]["c"][0] = "f" * MAX_HEX_CHARS
    (path / "pkgs_widest_entry.json").write_text(json.dumps(document))
    document = json.loads(text)
    del document["packages"][-1]
    (path / "pkgs_truncated.json").write_text(json.dumps(document))
    # a JSON number past Python's 4,300-digit int-str limit
    long_number = text.replace('"blocks": 3', '"blocks": ' + "9" * 5000)
    (path / "pkgs_long_number.json").write_text(long_number)
    (path / "binary.bin").write_bytes(b"\xff\xfe")
    return path


def exit_code(args) -> int:
    """cli.main's exit code, with binary stdin and captured stdout and stderr."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        with mock.patch.object(sys, "stdin", stdin):
            try:
                return main(args)
            except SystemExit as exc:  # argparse: 2 on a usage error, 0 after --help
                return exc.code


BIG_KEY = ["keygen", "--alpha", "1000000000", "--beta", "1", "--gamma", "999999999",
           "--delta", "1", "--n", "512", "--out", "@gen_key.json"]


@given(st.lists(argv(), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
@example([BIG_KEY, ["encrypt", "--key", "@gen_key.json", "--in", "MATH"]])
@example([["ratios", "--t", "1000", "--d", "1", "--a0", "5/3", "--steps", "1500"]])
@example([["verify", "--key", "@missing.json", "--in", "@pkgs.json"]])
@example([["verify", "--key", "@key.json", "--in", "@binary.bin"]])
@example([["encrypt", "--key", "@key.json", "--in", "-"]])
@example([["encrypt", "--key", "@key.json", "--in", "MATH", "--ratio-digits", "101"]])
@example([["keygen", "--golden", "--n", "2", "--alphabet", "AA"]])
@example([["ratios", "--t", "3", "--d", "1", "--a0", "1/0"]])
@example([["corrupt", "--in", "@pkgs.json", "--spec", "single", "--seed", "1",
           "--max-delta", "0"]])
@example([["correct", "--key", "@key.json", "--in", "@pkgs_long_ratio.json"]])
@example([["verify", "--key", "@key.json", "--in", "@pkgs_long_entry.json"]])
@example([["encrypt", "--key", "@key_true_n.json", "--in", "MATH"]])
@example([["verify", "--key", "@key.json", "--in", "@pkgs_long_number.json"]])
def test_cli_exits_with_documented_codes(workdir, command_lines):
    for generated in workdir.glob("gen_*"):
        generated.unlink()
    for args in command_lines:
        args = [str(workdir / a[1:]) if a.startswith("@") else a for a in args]
        assert exit_code(args) in {0, 1, 2, 3}, args
