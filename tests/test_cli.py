import io
import json
import re
import sys
import time

import pytest

from unicipher.channel import loads_key, loads_packages
from unicipher.cipher import _MAX_DECIMAL_DIGITS, decrypt_message
from unicipher.cli import MAX_ORBIT_STEPS, main
from unicipher.errors import InvalidKey
from unicipher.matrix import Mat2

from test_channel import (
    BAD_FRAMES,
    MALFORMED_FIELDS,
    MALFORMED_SYMBOLS,
    NEAR_MISS_RATIOS,
    UNKNOWN_ALPHABET_KINDS,
    alphabet_key_text,
    custom_alphabet_key_text,
    framed_packages_text,
    malformed_package_text,
    over_long_key_text,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKeygen:
    def test_golden_preset(self, tmp_path, capsys):
        key_file = tmp_path / "key.json"
        code, _, _ = run(capsys, "keygen", "--golden", "--n", "10", "--out", str(key_file))
        assert code == 0
        key, alphabet = loads_key(key_file.read_text())
        assert key.u.m == Mat2(1, 1, 1, 0)
        assert (key.seed.a0, key.seed.b0) == (0, 1)
        assert key.n == 10

    def test_explicit_key(self, tmp_path, capsys):
        key_file = tmp_path / "key.json"
        code, _, _ = run(
            capsys, "keygen", "--alpha", "2", "--beta", "1", "--gamma", "1",
            "--delta", "1", "--seed-a", "3", "--seed-b", "5", "--n", "6",
            "--perm", "1,0,3,2", "--out", str(key_file),
        )
        assert code == 0
        key, _ = loads_key(key_file.read_text())
        assert key.u.m == Mat2(2, 1, 1, 1)
        assert (key.seed.a0, key.seed.b0) == (3, 5)
        assert key.perm == (1, 0, 3, 2)

    def test_invalid_key_is_reported(self, capsys):
        code, _, err = run(
            capsys, "keygen", "--alpha", "2", "--beta", "0", "--gamma", "0",
            "--delta", "1", "--n", "4",
        )
        assert code == 1
        assert "error[InvalidKey]" in err

    # Keys whose M(512) has both rows past the package limit, so they could
    # send only all-zero blocks: alpha = 10**9 (rows of about 15,300 bits) and
    # a 4,299-digit alpha (rows of millions of bits, seconds to build).
    @pytest.mark.parametrize("alpha, seed_a", [
        (10**9, 1), (10**4298, 0),
    ], ids=["alpha_1e9", "alpha_4299_digits"])
    def test_key_past_the_package_limit_is_refused_at_once(self, capsys, alpha, seed_a):
        argv = ("keygen", "--alpha", str(alpha), "--beta", "1", "--gamma", str(alpha - 1),
                "--delta", "1", "--seed-a", str(seed_a), "--seed-b", "1", "--n", "512")
        key_text = json.dumps({
            "version": 1,
            "u": {"alpha": str(alpha), "beta": "1", "gamma": str(alpha - 1), "delta": "1"},
            "seed": {"a0": str(seed_a), "b0": "1"},
            "n": 512, "perm": [0, 1, 2, 3], "alphabet": {"kind": "latin"},
        })
        refused = "M(n) has in both rows an entry past the 3571-character hex limit"
        keygen_s = loads_key_s = 1.0
        for _ in range(3):  # best of three, on a shared machine
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            keygen_s = min(keygen_s, time.perf_counter() - start)
            assert code == 1 and out == ""
            assert err.startswith(f"error[InvalidKey]: {refused}")
            start = time.perf_counter()
            with pytest.raises(InvalidKey, match=re.escape(refused)):
                loads_key(key_text)
            loads_key_s = min(loads_key_s, time.perf_counter() - start)
        assert keygen_s < 0.010 and loads_key_s < 0.010

    def test_golden_is_k_golden_one(self, capsys):
        code, golden, _ = run(capsys, "keygen", "--golden", "--n", "7")
        assert code == 0
        assert run(capsys, "keygen", "--k-golden", "1", "--n", "7")[1] == golden

    def test_perm_must_permute_four_positions(self, capsys):
        code, out, err = run(capsys, "keygen", "--golden", "--n", "4", "--perm", "0,1,2")
        assert code == 1 and out == ""
        assert "error[InvalidKey]" in err

    def test_perm_must_be_integers(self, capsys):
        code, out, err = run(capsys, "keygen", "--golden", "--n", "4", "--perm", "1,x")
        assert code == 1 and out == ""
        assert err == "error[CipherError]: perm must be four comma-separated integers, got '1,x'\n"

    @pytest.mark.parametrize("alphabet", ["A", "AA"])
    def test_invalid_alphabet_is_reported(self, capsys, alphabet):
        code, out, err = run(capsys, "keygen", "--golden", "--n", "4", "--alphabet", alphabet)
        assert code == 1 and out == ""
        assert "error[CipherError]" in err


class TestPipelines:
    def make_key(self, tmp_path, capsys, *extra):
        key_file = tmp_path / "key.json"
        code, _, _ = run(capsys, "keygen", "--golden", "--n", "10",
                         "--out", str(key_file), *extra)
        assert code == 0
        return key_file

    def test_encrypt_matches_worked_example(self, tmp_path, capsys):
        key_file = self.make_key(tmp_path, capsys)
        pkg_file = tmp_path / "packages.json"
        code, _, _ = run(capsys, "encrypt", "--key", str(key_file), "--in", "MATH",
                         "--out", str(pkg_file))
        assert code == 0
        (pkg,) = loads_packages(pkg_file.read_text())
        assert pkg.c == Mat2(1068, 660, 2076, 1283)
        assert pkg.det_p == 84

    def test_encrypt_decrypt_identity(self, tmp_path, capsys):
        key_file = self.make_key(tmp_path, capsys)
        pkg_file = tmp_path / "packages.json"
        run(capsys, "encrypt", "--key", str(key_file), "--in", "ATTACKATDAWN",
            "--out", str(pkg_file))
        code, out, _ = run(capsys, "decrypt", "--key", str(key_file),
                           "--in", str(pkg_file))
        assert code == 0
        assert out.strip() == "ATTACKATDAWN"

    def test_verify_clean_and_corrupt(self, tmp_path, capsys):
        key_file = self.make_key(tmp_path, capsys)
        pkg_file = tmp_path / "packages.json"
        bad_file = tmp_path / "bad.json"
        run(capsys, "encrypt", "--key", str(key_file), "--in", "MATH",
            "--out", str(pkg_file))
        code, out, _ = run(capsys, "verify", "--key", str(key_file), "--in", str(pkg_file))
        assert code == 0 and "clean" in out
        run(capsys, "corrupt", "--in", str(pkg_file), "--out", str(bad_file),
            "--spec", "single", "--seed", "7")
        code, out, _ = run(capsys, "verify", "--key", str(key_file), "--in", str(bad_file))
        assert code == 1

    def test_corrupt_then_correct_then_decrypt(self, tmp_path, capsys):
        key_file = self.make_key(tmp_path, capsys)
        pkg_file = tmp_path / "packages.json"
        bad_file = tmp_path / "bad.json"
        diff_file = tmp_path / "bad.diff.json"
        fixed_file = tmp_path / "fixed.json"
        run(capsys, "encrypt", "--key", str(key_file), "--in", "GOLDENMATRIX",
            "--out", str(pkg_file), "--emit-column-ratio")
        code, _, _ = run(capsys, "corrupt", "--in", str(pkg_file), "--out", str(bad_file),
                         "--spec", "diagonal", "--seed", "11", "--diff", str(diff_file))
        assert code == 0
        assert json.loads(diff_file.read_text())["diffs"][0]["mode"] == "diagonal"
        code, out, _ = run(capsys, "correct", "--key", str(key_file),
                           "--in", str(bad_file), "--out", str(fixed_file))
        assert code == 0
        reports = json.loads(out)["reports"]
        assert all(r["status"] == "repaired" for r in reports)
        code, out, _ = run(capsys, "decrypt", "--key", str(key_file), "--in", str(fixed_file))
        assert code == 0 and out.strip() == "GOLDENMATRIX"

    def test_correct_exit_codes(self, tmp_path, capsys):
        key_file = self.make_key(tmp_path, capsys)
        pkg_file = tmp_path / "packages.json"
        bad_file = tmp_path / "bad.json"
        run(capsys, "encrypt", "--key", str(key_file), "--in", "MATH",
            "--out", str(pkg_file))
        # clean input exits 0
        code, out, _ = run(capsys, "correct", "--key", str(key_file), "--in", str(pkg_file))
        assert code == 0
        assert [r["status"] for r in json.loads(out)["reports"]] == ["clean"]
        # all four entries off: no candidate within two changes, exit 2
        document = json.loads(pkg_file.read_text())
        package = document["packages"][0]
        package["c"] = ["%x" % (int(e, 16) + 1) for e in package["c"]]
        bad_file.write_text(json.dumps(document))
        code, out, _ = run(capsys, "correct", "--key", str(key_file), "--in", str(bad_file))
        assert code == 2
        assert json.loads(out)["reports"][0]["status"] == "uncorrectable"
        # without a transmitted ratio the alphabet bound still ends the det-P
        # line of a row: through the bottom row (19, 7) it has one box point
        fixed_file = tmp_path / "fixed.json"
        run(capsys, "corrupt", "--in", str(pkg_file), "--out", str(bad_file),
            "--spec", "row_top", "--seed", "3")
        code, out, _ = run(capsys, "correct", "--key", str(key_file), "--in", str(bad_file),
                           "--out", str(fixed_file))
        assert code == 0
        assert json.loads(out)["reports"][0]["assumed_class"] == "row-top"
        code, out, _ = run(capsys, "decrypt", "--key", str(key_file), "--in", str(fixed_file))
        assert code == 0 and out.strip() == "MATH"
        # through the top row (12, 0) det P = 12 * p22 leaves p21 free: a tie, exit 3
        run(capsys, "corrupt", "--in", str(pkg_file), "--out", str(bad_file),
            "--spec", "row_bottom", "--seed", "0")
        code, out, _ = run(capsys, "correct", "--key", str(key_file), "--in", str(bad_file),
                           "--out", str(fixed_file))
        assert code == 3
        report = json.loads(out)["reports"][0]
        assert report["status"] == "ambiguous"
        assert report["residual_failure"].startswith("ambiguous: ")
        assert dict(report["attempts"])["row-bottom"].startswith("ambiguous: ")

    def test_correct_bounds_by_the_key_alphabet(self, tmp_path, capsys):
        # RBUX at golden n = 2 with its bottom row corrupted: without the
        # alphabet bound an anti-diagonal candidate outside the alphabet wins
        key_file = tmp_path / "key.json"
        run(capsys, "keygen", "--golden", "--n", "2", "--out", str(key_file))
        pkg_file, fixed_file = tmp_path / "packages.json", tmp_path / "fixed.json"
        run(capsys, "encrypt", "--key", str(key_file), "--in", "RBUX",
            "--out", str(pkg_file), "--emit-column-ratio")
        document = json.loads(pkg_file.read_text())
        (package,) = document["packages"]
        assert package["c"] == ["23", "12", "3f", "2b"]  # 35, 18, 63, 43
        package["c"] = ["23", "12", "3a", "34"]  # 35, 18, 58, 52
        pkg_file.write_text(json.dumps(document))
        code, out, _ = run(capsys, "correct", "--key", str(key_file), "--in", str(pkg_file),
                           "--out", str(fixed_file))
        assert code == 0
        assert json.loads(out)["reports"][0]["assumed_class"] == "row-bottom"
        code, out, _ = run(capsys, "decrypt", "--key", str(key_file), "--in", str(fixed_file))
        assert code == 0 and out.strip() == "RBUX"

    def test_row_error_that_verifies_clean_is_repaired(self, tmp_path, capsys):
        # MATH at golden n = 2: the row-bottom corruption keeps det P and both
        # row intervals, so only the column ratio (1.88 against 53/24) shows it
        key_file = tmp_path / "key.json"
        run(capsys, "keygen", "--golden", "--n", "2", "--out", str(key_file))
        pkg_file, bad_file, fixed_file = (tmp_path / f for f in ("p.json", "bad.json", "fixed.json"))
        run(capsys, "encrypt", "--key", str(key_file), "--in", "MATH",
            "--out", str(pkg_file), "--emit-column-ratio")
        code, _, _ = run(capsys, "corrupt", "--in", str(pkg_file), "--out", str(bad_file),
                         "--spec", "row_bottom", "--seed", "46")
        assert code == 0
        ((original,), (bad,)) = (loads_packages(f.read_text()) for f in (pkg_file, bad_file))
        assert (original.c, bad.c) == (Mat2(24, 12, 45, 26), Mat2(24, 12, 53, 30))
        code, out, _ = run(capsys, "verify", "--key", str(key_file), "--in", str(bad_file))
        assert code == 0 and out.strip() == "block 0: clean"
        code, _, err = run(capsys, "decrypt", "--key", str(key_file), "--in", str(bad_file))
        assert code == 1 and "error[CheckNumberMismatch]" in err and "column ratio" in err
        code, out, _ = run(capsys, "correct", "--key", str(key_file), "--in", str(bad_file),
                           "--out", str(fixed_file))
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert report["attempts"][0] == [
            "verify", "CheckNumberMismatch: c21/c11 of the block does not round to the "
            "column ratio 1.88",
        ]
        assert report["assumed_class"] == "row-bottom"
        assert report["repaired"] == ["18", "c", "2d", "1a"]  # hex, as in the package files
        code, out, _ = run(capsys, "decrypt", "--key", str(key_file), "--in", str(fixed_file))
        assert code == 0 and out.strip() == "MATH"

    def test_decrypt_refuses_a_block_that_fails_det_p(self, tmp_path, capsys):
        # MATHEMATICS at golden n = 2 (det M = 1): a one-off single error per
        # block keeps every block integral and non-negative (they divide into
        # LBTHEMBRJBS), so only det P shows it
        key_file = tmp_path / "key.json"
        run(capsys, "keygen", "--golden", "--n", "2", "--out", str(key_file))
        pkg_file, bad_file = tmp_path / "p.json", tmp_path / "bad.json"
        run(capsys, "encrypt", "--key", str(key_file), "--in", "MATHEMATICS", "--out", str(pkg_file))
        code, _, _ = run(capsys, "corrupt", "--in", str(pkg_file), "--out", str(bad_file),
                         "--spec", "single", "--seed", "3", "--max-delta", "1")
        assert code == 0
        code, out, err = run(capsys, "decrypt", "--key", str(key_file), "--in", str(bad_file))
        assert code == 1 and out == ""
        assert err.strip() == (
            "error[CheckNumberMismatch]: block 0: det P of the decrypted block is 58, "
            "the package says 84"
        )
        code, out, _ = run(capsys, "decrypt", "--key", str(key_file), "--in", str(pkg_file))
        assert code == 0 and out.strip() == "MATHEMATICS"

    def test_n500_tour(self, tmp_path, capsys):
        # the key's largest entry has ~1,800 bits, so verify, decrypt and
        # correct decide by the 2-adic forward product; det M(500) = 143
        key_file = tmp_path / "key.json"
        run(capsys, "keygen", "--alpha", "3", "--beta", "2", "--gamma", "1", "--delta", "1",
            "--seed-a", "5", "--seed-b", "7", "--n", "500", "--out", str(key_file))
        key, _ = loads_key(key_file.read_text())
        assert key.coding_matrix.forward is not None and key.coding_matrix.det == 143
        pkg_file, bad_file, fixed_file = (tmp_path / f for f in ("p.json", "bad.json", "fixed.json"))
        run(capsys, "encrypt", "--key", str(key_file), "--in", "MATHEMATICS",
            "--emit-column-ratio", "--out", str(pkg_file))
        code, out, _ = run(capsys, "verify", "--key", str(key_file), "--in", str(pkg_file))
        assert code == 0 and out.split("\n")[:3] == [f"block {i}: clean" for i in range(3)]
        run(capsys, "corrupt", "--in", str(pkg_file), "--out", str(bad_file),
            "--spec", "single", "--seed", "7")
        code, out, err = run(capsys, "decrypt", "--key", str(key_file), "--in", str(bad_file))
        assert code == 1 and out == ""
        assert err.strip() == (
            "error[NonIntegralPlaintext]: block 0: entry (0, 0) of C·adj M is not divisible "
            "by det 143"
        )
        code, _, _ = run(capsys, "correct", "--key", str(key_file), "--in", str(bad_file),
                         "--out", str(fixed_file))
        assert code == 0
        code, out, _ = run(capsys, "decrypt", "--key", str(key_file), "--in", str(fixed_file))
        assert code == 0 and out.strip() == "MATHEMATICS"

    def test_top_over_bottom_check_is_a_format_error(self, tmp_path, capsys):
        # the golden n = 6 row-top example repairs with c21/c11, the ratio the
        # sender writes; an object naming the other one is refused, not ignored
        key_file = tmp_path / "key.json"
        run(capsys, "keygen", "--golden", "--n", "6", "--out", str(key_file))
        pkg_file = tmp_path / "packages.json"
        package = {
            "c": ["270f", "270f", "107", "a2"], "det_p": "-1b8",  # 9999, 9999, 263, 162; -440
            "column_ratio": "0.9", "block_index": 0,
        }
        document = {"version": 3, "blocks": 1, "pad_len": 0, "packages": [package]}
        pkg_file.write_text(json.dumps(document))
        code, out, _ = run(capsys, "correct", "--key", str(key_file), "--in", str(pkg_file))
        assert code == 0
        assert json.loads(out)["reports"][0]["repaired"] == ["128", "b8", "107", "a2"]
        package["column_ratio"] = {"orientation": "top-over-bottom", "value": "0.9", "digits": 1}
        pkg_file.write_text(json.dumps(document))
        code, out, err = run(capsys, "correct", "--key", str(key_file), "--in", str(pkg_file))
        assert code == 1 and out == ""
        assert "error[FormatError]" in err

    def test_bytes_alphabet_encrypts_utf8_text(self, tmp_path, capsys):
        key_file = self.make_key(tmp_path, capsys, "--alphabet", "bytes")
        pkg_file = tmp_path / "packages.json"
        code, _, _ = run(capsys, "encrypt", "--key", str(key_file), "--in", "Grüße",
                         "--out", str(pkg_file))
        assert code == 0
        code, out, _ = run(capsys, "decrypt", "--key", str(key_file), "--in", str(pkg_file))
        assert code == 0 and out == "Grüße"

    @pytest.mark.parametrize("field, value", MALFORMED_FIELDS)
    def test_malformed_package_is_a_format_error(self, tmp_path, capsys, field, value):
        key_file = self.make_key(tmp_path, capsys)
        pkg_file = tmp_path / "packages.json"
        pkg_file.write_text(malformed_package_text(field, value))
        code, _, err = run(capsys, "verify", "--key", str(key_file), "--in", str(pkg_file))
        assert code == 1
        assert "error[FormatError]" in err

    def test_ratio_intern_is_type_exact(self, tmp_path, capsys):
        key_file = tmp_path / "key.json"
        run(capsys, "keygen", "--arnolds-cat", "--n", "4", "--out", str(key_file))
        pkg_file = tmp_path / "packages.json"
        for valid, near_miss in NEAR_MISS_RATIOS:
            pkg_file.write_text(malformed_package_text("value", valid))
            code, out, _ = run(capsys, "verify", "--key", str(key_file), "--in", str(pkg_file))
            assert code == 0 and "clean" in out
            pkg_file.write_text(malformed_package_text("value", near_miss))
            code, _, err = run(capsys, "verify", "--key", str(key_file), "--in", str(pkg_file))
            assert code == 1
            assert "error[FormatError]" in err

    @pytest.mark.parametrize("command", ["verify", "decrypt"])
    @pytest.mark.parametrize("frames", BAD_FRAMES.values(), ids=BAD_FRAMES)
    def test_bad_framing_is_a_format_error(self, tmp_path, capsys, command, frames):
        key_file = self.make_key(tmp_path, capsys)
        pkg_file = tmp_path / "packages.json"
        pkg_file.write_text(framed_packages_text(*frames))
        code, _, err = run(capsys, command, "--key", str(key_file), "--in", str(pkg_file))
        assert code == 1
        assert "error[FormatError]" in err

    def refusals(self, capsys, key_file, pkg_file):
        """(exit code, stdout, stderr) of every command that reads pkg_file;
        corrupt writes no file."""
        out_file = pkg_file.with_name("out.json")
        results = [run(capsys, command, "--key", str(key_file), "--in", str(pkg_file))
                   for command in ("decrypt", "verify", "correct")]
        results.append(run(capsys, "corrupt", "--in", str(pkg_file), "--out", str(out_file),
                           "--spec", "single", "--seed", "1"))
        assert not out_file.exists()
        return results

    @pytest.mark.parametrize(
        "drop", [[2], [0], [1], [0, 1]], ids=["last", "first", "middle", "first-two"]
    )
    def test_truncated_file_is_refused(self, tmp_path, capsys, drop):
        # golden n = 3 MATHEMATICS without its last block once decrypted to
        # MATHEMAT with exit 0; the header's block count refuses it everywhere
        key_file = tmp_path / "key.json"
        run(capsys, "keygen", "--golden", "--n", "3", "--out", str(key_file))
        pkg_file = tmp_path / "packages.json"
        run(capsys, "encrypt", "--key", str(key_file), "--in", "MATHEMATICS",
            "--out", str(pkg_file))
        document = json.loads(pkg_file.read_text())
        document["packages"] = [p for i, p in enumerate(document["packages"]) if i not in drop]
        pkg_file.write_text(json.dumps(document))
        for code, out, err in self.refusals(capsys, key_file, pkg_file):
            assert code == 1 and out == ""
            assert err == (
                f"error[FormatError]: framing: block {drop[0]} of a 3-block message is missing\n"
            )

    def test_decrypt_of_a_far_block_index_fails_at_once(self, tmp_path, capsys):
        # the message names the first missing block; it never lists the gap
        key_file = self.make_key(tmp_path, capsys)
        pkg_file = tmp_path / "packages.json"
        pkg_file.write_text(framed_packages_text((10**18, 0)))
        start = time.perf_counter()
        code, out, err = run(capsys, "decrypt", "--key", str(key_file), "--in", str(pkg_file))
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err == "error[FormatError]: framing: block 0 of a 1-block message is missing\n"

    def test_a_hostile_block_count_fails_at_once(self, tmp_path, capsys):
        # one package, and a header that claims 10**18 blocks
        key_file = self.make_key(tmp_path, capsys)
        pkg_file = tmp_path / "packages.json"
        document = json.loads(framed_packages_text((0, 0)))
        document["blocks"] = 10**18
        pkg_file.write_text(json.dumps(document))
        start = time.perf_counter()
        results = self.refusals(capsys, key_file, pkg_file)
        assert time.perf_counter() - start < 1.0
        for code, out, err in results:
            assert code == 1 and out == ""
            assert err == (
                f"error[FormatError]: framing: block 1 of a {10**18}-block message is missing\n"
            )

    def test_decrypt_takes_blocks_in_any_order(self, tmp_path, capsys):
        key_file = self.make_key(tmp_path, capsys)
        pkg_file = tmp_path / "packages.json"
        run(capsys, "encrypt", "--key", str(key_file), "--in", "MATHEMATICS",
            "--out", str(pkg_file))
        document = json.loads(pkg_file.read_text())
        document["packages"].reverse()
        pkg_file.write_text(json.dumps(document))
        code, out, _ = run(capsys, "decrypt", "--key", str(key_file), "--in", str(pkg_file))
        assert code == 0 and out.strip() == "MATHEMATICS"

    @pytest.mark.parametrize("symbols", MALFORMED_SYMBOLS)
    def test_malformed_alphabet_is_a_format_error(self, tmp_path, capsys, symbols):
        key_file = tmp_path / "key.json"
        key_file.write_text(custom_alphabet_key_text(symbols))
        code, _, err = run(capsys, "encrypt", "--key", str(key_file), "--in", "MATH")
        assert code == 1
        assert "error[FormatError]" in err

    @pytest.mark.parametrize("alphabet", UNKNOWN_ALPHABET_KINDS)
    def test_unknown_alphabet_kind_is_a_format_error(self, tmp_path, capsys, alphabet):
        key_file = self.make_key(tmp_path, capsys)
        pkg_file = tmp_path / "packages.json"
        run(capsys, "encrypt", "--key", str(key_file), "--in", "MATH", "--out", str(pkg_file))
        key_file.write_text(alphabet_key_text(alphabet))
        code, out, err = run(capsys, "decrypt", "--key", str(key_file), "--in", str(pkg_file))
        assert code == 1 and out == ""
        assert err.startswith("error[FormatError]: ") and "Traceback" not in err

    def test_key_integer_past_the_digit_limit_is_a_format_error(self, tmp_path, capsys):
        key_file = self.make_key(tmp_path, capsys)
        pkg_file = tmp_path / "packages.json"
        run(capsys, "encrypt", "--key", str(key_file), "--in", "MATH", "--out", str(pkg_file))
        key_file.write_text(over_long_key_text())
        code, out, err = run(capsys, "decrypt", "--key", str(key_file), "--in", str(pkg_file))
        assert code == 1 and out == ""
        assert err == "error[FormatError]: integer past the 4300-digit limit\n"

    def test_malformed_perm_is_a_format_error(self, tmp_path, capsys):
        key_file = self.make_key(tmp_path, capsys)
        document = json.loads(key_file.read_text())
        document["perm"] = 5
        key_file.write_text(json.dumps(document))
        code, _, err = run(capsys, "encrypt", "--key", str(key_file), "--in", "MATH")
        assert code == 1
        assert "error[FormatError]" in err

    @pytest.mark.parametrize("digits", ["-3", "101"])
    def test_ratio_digits_out_of_range(self, tmp_path, capsys, digits):
        key_file = self.make_key(tmp_path, capsys)
        code, _, err = run(capsys, "encrypt", "--key", str(key_file), "--in", "MATH",
                           "--emit-column-ratio", "--ratio-digits", digits)
        assert code == 1
        assert err == f"error[CipherError]: --ratio-digits must be in 0..100, got {digits}\n"

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_decrypted_text_reads_back_from_stdin(self, tmp_path, capsys, monkeypatch, newline):
        # decrypt ends a text message with a newline the latin alphabet has no symbol for
        key_file = self.make_key(tmp_path, capsys)
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"MATH{newline}"))
        code, packages, _ = run(capsys, "encrypt", "--key", str(key_file), "--in", "-")
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(packages))
        assert run(capsys, "decrypt", "--key", str(key_file), "--in", "-") == (0, "MATH\n", "")

    def test_stdin_newline_is_kept_in_bytes_mode(self, tmp_path, capsys, monkeypatch):
        key_file = self.make_key(tmp_path, capsys, "--alphabet", "bytes")
        monkeypatch.setattr(sys, "stdin", io.StringIO("MATH\n"))
        code, out, _ = run(capsys, "encrypt", "--key", str(key_file), "--in", "-")
        assert code == 0
        key, alphabet = loads_key(key_file.read_text())
        assert decrypt_message(loads_packages(out), key, alphabet) == b"MATH\n"

    def test_stdin_newline_is_kept_when_it_is_a_symbol(self, tmp_path, capsys, monkeypatch):
        key_file = self.make_key(tmp_path, capsys, "--alphabet", "AHMT\n")
        monkeypatch.setattr(sys, "stdin", io.StringIO("MATH\n"))
        code, out, _ = run(capsys, "encrypt", "--key", str(key_file), "--in", "-")
        assert code == 0
        key, alphabet = loads_key(key_file.read_text())
        assert decrypt_message(loads_packages(out), key, alphabet) == "MATH\n"

    def test_ratio_digits_read_only_when_emitting(self, tmp_path, capsys, monkeypatch):
        # digits come from --ratio-digits or are 2; the environment is not read
        key_file = self.make_key(tmp_path, capsys)
        monkeypatch.setenv("UNICIPHER_RATIO_DIGITS", "abc")
        code, out, _ = run(capsys, "encrypt", "--key", str(key_file), "--in", "MATH")
        assert code == 0
        assert [pkg.column_ratio for pkg in loads_packages(out)] == [None]
        code, out, _ = run(capsys, "encrypt", "--key", str(key_file), "--in", "MATH",
                           "--emit-column-ratio")
        assert code == 0
        assert [pkg.column_ratio.digits for pkg in loads_packages(out)] == [2]

    def test_ratio_digits_imply_emitting(self, tmp_path, capsys):
        key_file = self.make_key(tmp_path, capsys)
        code, out, _ = run(capsys, "encrypt", "--key", str(key_file), "--in", "MATH",
                           "--ratio-digits", "5")
        assert code == 0
        (pkg,) = loads_packages(out)
        assert pkg.column_ratio.digits == 5
        assert len(pkg.column_ratio.value.split(".")[1]) == 5

    def test_overlong_ratio_value_is_a_format_error(self, tmp_path, capsys):
        # loads and verifies, but is longer than a ratio's units can be read
        key_file = tmp_path / "key.json"
        run(capsys, "keygen", "--golden", "--n", "3", "--out", str(key_file))
        pkg_file = tmp_path / "packages.json"
        run(capsys, "encrypt", "--key", str(key_file), "--in", "MATH",
            "--out", str(pkg_file), "--emit-column-ratio")
        document = json.loads(pkg_file.read_text())
        (package,) = document["packages"]
        package["column_ratio"] = "1" * 5000 + ".51"
        package["c"][1] = str(int(package["c"][1]) + 1)
        pkg_file.write_text(json.dumps(document))
        code, out, err = run(capsys, "correct", "--key", str(key_file), "--in", str(pkg_file))
        assert code == 1 and out == ""
        assert "error[FormatError]" in err

    @pytest.mark.parametrize("max_delta", ["-3", "0"])
    def test_corrupt_rejects_max_delta_below_one(self, tmp_path, capsys, max_delta):
        key_file = self.make_key(tmp_path, capsys)
        pkg_file, bad_file = tmp_path / "packages.json", tmp_path / "bad.json"
        run(capsys, "encrypt", "--key", str(key_file), "--in", "MATH", "--out", str(pkg_file))
        code, _, err = run(capsys, "corrupt", "--in", str(pkg_file), "--out", str(bad_file),
                           "--spec", "single", "--seed", "1", "--max-delta", max_delta)
        assert code == 1 and not bad_file.exists()
        assert "error[CipherError]" in err and "max_delta" in err

    @pytest.mark.parametrize(
        "broken",
        ["missing-in", "missing-key", "binary-in", "binary-stdin", "binary-stdin-message",
         "unwritable-out"],
    )
    def test_unusable_files_are_reported(self, tmp_path, capsys, monkeypatch, broken):
        key_file = self.make_key(tmp_path, capsys)
        pkg_file = tmp_path / "packages.json"
        run(capsys, "encrypt", "--key", str(key_file), "--in", "MATH", "--out", str(pkg_file))
        bad_path = str(tmp_path / "missing.json")
        argv = ["verify", "--key", str(key_file), "--in", bad_path]
        if broken == "missing-key":
            argv = ["verify", "--key", bad_path, "--in", str(pkg_file)]
        elif broken == "binary-in":
            (tmp_path / "missing.json").write_bytes(b"\xff\xfe")
        elif broken.startswith("binary-stdin"):
            bad_path = "-"
            argv[0], argv[-1] = "encrypt" if broken.endswith("message") else "verify", bad_path
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff"), "utf-8"))
        elif broken == "unwritable-out":
            bad_path = str(tmp_path / "no-such-dir" / "bad.json")
            argv = ["corrupt", "--in", str(pkg_file), "--out", bad_path,
                    "--spec", "single", "--seed", "1"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "error[CipherError]" in err and repr(bad_path) in err

    def test_ciphertext_past_the_digit_limit_is_a_format_error(self, tmp_path, capsys):
        # det U = 1, and both rows of M(500) have 14,280 bits, within the
        # 4 * 3,571-bit limit, but ZZZZ's c11 = 25 * (A(501) + B(501)) has
        # 14,285 bits: 3,572 hex digits
        key_file = tmp_path / "key.json"
        code, _, _ = run(capsys, "keygen", "--alpha", "380000000", "--beta", "1",
                         "--gamma", "379999999", "--delta", "1", "--n", "500",
                         "--out", str(key_file))
        assert code == 0
        code, out, err = run(capsys, "encrypt", "--key", str(key_file), "--in", "ZZZZ")
        assert code == 1 and out == ""
        assert "error[FormatError]: block 0: " in err and "3571-character limit" in err

    def test_integer_past_the_digit_limit_names_the_limit(self, tmp_path, capsys):
        key_file = self.make_key(tmp_path, capsys)
        pkg_file = tmp_path / "packages.json"
        run(capsys, "encrypt", "--key", str(key_file), "--in", "MATH", "--out", str(pkg_file))
        document = json.loads(pkg_file.read_text())
        document["packages"][0]["c"][0] = "7" * 5000
        pkg_file.write_text(json.dumps(document))
        code, out, err = run(capsys, "verify", "--key", str(key_file), "--in", str(pkg_file))
        assert code == 1 and out == ""
        assert "error[FormatError]" in err and "3571-character limit" in err
        assert "7" * 100 not in err

    def test_unknown_symbol_error_category(self, tmp_path, capsys):
        key_file = self.make_key(tmp_path, capsys)
        code, _, err = run(capsys, "encrypt", "--key", str(key_file), "--in", "math")
        assert code == 1
        assert "error[UnknownSymbol]" in err


class TestAttackCommand:
    def test_golden_attack(self, tmp_path, capsys):
        key_file = tmp_path / "key.json"
        run(capsys, "keygen", "--golden", "--n", "17", "--out", str(key_file))
        code, out, _ = run(capsys, "attack", "--oracle-key", str(key_file),
                           "--family", "golden")
        assert code == 0
        assert json.loads(out)["n"] == 17

    def test_kgolden_attack(self, tmp_path, capsys):
        key_file = tmp_path / "key.json"
        run(capsys, "keygen", "--k-golden", "3", "--n", "8", "--out", str(key_file))
        code, out, _ = run(capsys, "attack", "--oracle-key", str(key_file),
                           "--family", "kgolden")
        assert code == 0
        payload = json.loads(out)
        assert (payload["k"], payload["n"]) == (3, 8)

    def test_attack_fails_against_seeded_key(self, tmp_path, capsys):
        key_file = tmp_path / "key.json"
        run(capsys, "keygen", "--arnolds-cat", "--n", "9", "--out", str(key_file))
        code, out, _ = run(capsys, "attack", "--oracle-key", str(key_file),
                           "--family", "golden")
        assert code == 1
        assert json.loads(out)["failure"] == "NotGoldenOracle"


class TestRatiosCommand:
    def test_orbit_table(self, capsys):
        code, out, _ = run(capsys, "ratios", "--t", "1", "--d", "-1",
                           "--a0", "1.5", "--steps", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("fixed point: 1.618033988749")
        assert len(lines) == 2 + 6  # header rows plus orbit
        last = float(lines[-1].split()[-1])
        assert abs(last - 1.618033988749895) < 2e-3

    # "1ex" has an exponent part that is not an int: the digit-limit test
    # reads it as 0 and leaves the refusal to Fraction
    @pytest.mark.parametrize("a0", ["0", "abc", "1/0", "1ex"])
    def test_bad_a0_is_reported(self, capsys, a0):
        code, out, err = run(capsys, "ratios", "--t", "3", "--d", "1", "--a0", a0)
        assert code == 1 and out == ""
        assert err.startswith(f"error[CipherError]: --a0 must be a nonzero rational, got {a0!r}: ")

    @pytest.mark.parametrize("a0", ["1e5000", "1e-5000"])
    def test_a0_exponent_past_the_digit_limit_is_refused(self, capsys, a0):
        # refused before Fraction builds 10**5000: no term of the orbit could print
        code, out, err = run(capsys, "ratios", "--t", "3", "--d", "1", "--a0", a0)
        assert code == 1 and out == ""
        assert err == ("error[CipherError]: --a0 exponent must be at most "
                       f"{_MAX_DECIMAL_DIGITS} in magnitude, got {a0!r}\n")

    @pytest.mark.parametrize(
        "t, steps",
        [("1000", "1500"), ("9" * 400, "2"), ("9" * 4299, "2"),
         ("1" + "0" * 1000, str(MAX_ORBIT_STEPS))],
        ids=["term-past-digit-limit", "float-overflow", "fixed-point-past-digit-limit",
             "wide-terms-at-the-cap"],
    )
    def test_orbit_too_large_to_print_is_reported(self, capsys, t, steps):
        code, out, err = run(capsys, "ratios", "--t", t, "--d", "1",
                             "--a0", "5/3", "--steps", steps)
        assert code == 1 and out == ""
        assert "error[CipherError]" in err

    @pytest.mark.parametrize("steps", [-1, MAX_ORBIT_STEPS + 1])
    def test_steps_outside_the_cap_are_refused(self, capsys, steps):
        code, out, err = run(capsys, "ratios", "--t", "3", "--d", "1",
                             "--a0", "3/2", "--steps", str(steps))
        assert code == 1 and out == ""
        assert err == f"error[CipherError]: --steps must be in 0..{MAX_ORBIT_STEPS}, got {steps}\n"

    def test_steps_at_the_cap_print_the_orbit(self, capsys):
        code, out, _ = run(capsys, "ratios", "--t", "3", "--d", "1",
                           "--a0", "3/2", "--steps", str(MAX_ORBIT_STEPS))
        assert code == 0
        assert len(out.splitlines()) == 2 + MAX_ORBIT_STEPS + 1

    def test_rational_a0(self, capsys):
        code, out, _ = run(capsys, "ratios", "--t", "3", "--d", "1",
                           "--a0", "3/2", "--steps", "3")
        assert code == 0
        assert "7/3" in out
