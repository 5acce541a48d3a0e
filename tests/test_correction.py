import dataclasses
import functools
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicipher import correction
from unicipher.channel import _MODE_POSITIONS, ENTRY_MODES, CorruptionSpec, corrupt_package
from unicipher.cipher import (
    Alphabet,
    CipherKey,
    CipherPackage,
    ColumnRatioCheck,
    PlaintextMatrix,
    _checked,
    _package_rows,
    _row_plaintext,
    _verdict,
    decrypt,
    decrypt_message,
    encrypt,
    encrypt_message,
    verify_package,
)
from unicipher.correction import ErrorClass, _points, correct
from unicipher.errors import CheckNumberMismatch, CipherError, InvalidKey, NegativePlaintext
from unicipher.errors import NonIntegralPlaintext, UnknownSymbol
from unicipher.matrix import FORWARD_BITS, KeyMatrix, Mat2, SeedPair, line_step
from unicipher.ratios import round_half_even_ratio
from unicipher.sampling import random_cipher_key, random_key_matrix, random_plaintext

from test_kernel import intact, outcome, ref_bad_rows, ref_decrypt, ref_verify, shear, tamper


def brute_force_solutions(a, b, c, lo=-500, hi=500):
    return {(x, y) for x in range(lo, hi) for y in range(lo, hi) if a * x - b * y == c}


class TestDiophantine:
    """_points as the solver of the linear Diophantine equation a*x - b*y = c,
    the line u*x + v*y = w with (u, v, w) = (a, -b, c)."""

    def test_row_example_family(self):
        points = _points(162, -263, -440, 1349)
        assert points[:2] == [(33, 22), (33 + 263, 22 + 162)]

    def test_bounded_example_family(self):
        points = _points(172, -450, 176, 2226)
        assert points[:2] == [(158, 60), (158 + 225, 60 + 86)]

    def test_no_solution(self):
        # gcd(2, 4) does not divide 3, whatever the box
        assert _points(2, -4, 3, 26) == [] and _points(2, -4, 3, None) == []

    def test_degenerate_rejected(self):
        # 0*x + 0*y = 5 has no point, whatever the box
        assert _points(0, 0, 5, 26) == [] and _points(0, 0, 5, None) == []

    def test_family_matches_brute_force(self):
        assert _points(6, -10, 4, 50) == sorted(brute_force_solutions(6, 10, 4, 0, 50))

    @given(st.integers(-300, 300), st.integers(-300, 300), st.integers(-300, 300))
    @settings(max_examples=200)
    def test_substitution_property(self, a, b, c):
        if a == 0 and b == 0:
            return
        points = _points(a, -b, c, 300)
        if c % math.gcd(a, b):
            assert points == []
        for x, y in points:
            assert a * x - b * y == c and 0 <= x < 300 and 0 <= y < 300

    @given(st.integers(-300, 300), st.integers(-300, 300), st.integers(-300, 300))
    @settings(max_examples=100)
    def test_base_is_normalized(self, a, b, c):
        """The points ascend by the normalized step: x by |b|/g > 0, or y by 1
        when b = 0, and the first has no point of the box before it."""
        if a == 0 and b == 0:
            return
        g = math.gcd(a, b)
        dx, dy = (abs(b) // g, (a if b > 0 else -a) // g) if b else (0, 1)
        points = _points(a, -b, c, 300)
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            assert (x1 - x0, y1 - y0) == (dx, dy)
        if points:
            x, y = points[0][0] - dx, points[0][1] - dy
            assert not (0 <= x < 300 and 0 <= y < 300)


class TestDiophantineAgainstReference:
    """_points on edge-case lines a*x - b*y = c and on wide operands, with and
    without its line_step, against the scan ref_points."""

    EDGE_CASES = [
        (0, 0, 5), (0, 0, 0),                               # degenerate
        (0, 7, 21), (0, -7, 21), (0, 7, 5), (0, 1, 0),      # a = 0
        (5, 0, 15), (-5, 0, 15), (5, 0, 7), (1, 0, -9),     # b = 0
        (6, 3, 9), (6, -3, 9), (-6, 3, -9), (7, 1, 4),      # |b|/g = 1
        (-7, -1, 4), (10**40, 10**20, 10**20),
        (162, 263, 0), (-162, 263, 0), (4, -6, 0),          # c = 0
        (2, 4, 3), (-6, 10, 5), (6, -10, -3), (12, 18, 1),  # g does not divide c
    ]

    @pytest.mark.parametrize("a,b,c", EDGE_CASES)
    def test_edge_cases(self, a, b, c):
        for bound in (1, 2, 26, 300):
            want = ref_points(a, -b, c, bound)
            for step in (None, line_step(a, -b)):
                assert list(_points(a, -b, c, bound, None, step)) == want, (bound, step)

    def test_random_wide_operands_in_every_sign(self):
        """u and v of 1 to 1,500 bits with a shared factor, in every sign, and w
        through a box point, beside it (w + 1, w + g) and negated."""
        rng = random.Random(8)
        seen, steps_against_bound = [0, 0], set()
        for _ in range(100):
            f = rng.getrandbits(rng.randint(1, 64)) or 1
            # a short cofactor of v now and then, so the x-step can fall below the bound
            a = f * (rng.getrandbits(rng.randint(1, 1500)) or 1)
            b = f * (rng.getrandbits(rng.randint(1, rng.choice((8, 1500)))) or 1)
            g = math.gcd(a, b)
            bound = rng.choice((1, 26, 256))
            x0, y0 = rng.randrange(bound), rng.randrange(bound)
            steps_against_bound.add(b // g >= bound)
            for u, v in ((a, b), (a, -b), (-a, b), (-a, -b)):
                w = u * x0 + v * y0
                for w in (w, w + 1, w + g, -w):
                    want = ref_points(u, v, w, bound)
                    for step in (None, line_step(u, v)):
                        assert _points(u, v, w, bound, None, step) == want, (u, v, w, bound)
                    seen[bool(want)] += 1
        assert steps_against_bound == {False, True} and min(seen) > 0


def ref_points(u, v, w, bound, limit=None):
    """Every (x, y) of u*x + v*y = w in [0, bound)^2 with lo <= s*x + t*y <= hi,
    by a scan over x."""
    s, t, lo, hi = limit or (0, 0, 0, None)
    found = []
    for x in range(bound):
        if v == 0:
            ys = range(bound) if u * x == w else ()
        else:
            y, r = divmod(w - u * x, v)
            ys = (y,) if r == 0 and 0 <= y < bound else ()
        found += [(x, y) for y in ys if lo <= s * x + t * y and (hi is None or s * x + t * y <= hi)]
    return found


class TestPointsAgainstScan:
    """_points, with and without its line_step, lists exactly the points a scan
    over x in [0, bound) finds: for steps m of x below, at and above the
    bound (the one-point rule), for w through a box point, beside one,
    negative and past the box, and with and without a limit."""

    @staticmethod
    def check_line(rng, u, v, bound, steps, seen):
        x0, y0 = rng.randrange(bound), rng.randrange(bound)
        w = u * x0 + v * y0
        past = (bound - 1) * (abs(u) + abs(v)) + rng.randint(1, 3)
        s, t = rng.choice(((0, 0), (1, 0), (rng.randint(0, 90), rng.randint(-90, 90))))
        f = s * x0 + t * y0
        limits = (None, (s, t, f, f), (s, t, f + 1, None), (s, t, f - 9, f + 9), (s, t, f + 1, f - 1))
        for w in (w, w + 1, w - 1, -abs(w) - 1, 0, past, -past):
            for limit in limits:
                want = ref_points(u, v, w, bound, limit)
                for step in steps:
                    assert _points(u, v, w, bound, limit, step) == want, (u, v, w, bound, limit, step)
                seen[bool(want)] += 1

    def test_columns_of_keys(self):
        rng = random.Random(29)
        seen, steps_against_bound = [0, 0], set()
        for n in (1, 2, 3, 5, 10, 30, 60, 100):
            keys = [CipherKey.golden(n), CipherKey.arnolds_cat(n)]
            keys += [random_cipher_key(rng, n_lo=n, n_hi=n) for _ in range(3)]
            for key in keys:
                cm = key.coding_matrix
                m11, m12, m21, m22 = cm.matrix.entries()
                for (a, b), step in zip(((m11, m21), (m12, m22)), cm.column_lines):
                    m = step[1]
                    bounds = {3, 26, 256}
                    if m is not None and m <= 300:
                        bounds |= {max(m - 1, 1), m, m + 1}
                    for bound in sorted(bounds):
                        if m is not None:
                            steps_against_bound.add((m > bound) - (m < bound))
                        self.check_line(rng, a, b, bound, (None, step), seen)
        assert steps_against_bound == {-1, 0, 1} and min(seen) > 0

    def test_lines_in_every_sign(self):
        """Det-P lines (u, v) = (ky, -kx) or (-ky, kx) have entries of either sign."""
        rng = random.Random(31)
        seen, steps_against_bound = [0, 0], set()
        for _ in range(300):
            u, v = rng.randint(-40, 40), rng.randint(-40, 40)
            if u == v == 0:
                continue
            step = line_step(u, v)
            m = step[1]
            k = m or 1
            bound = rng.choice((1, 2, 26, k, k + 1, max(k - 1, 1)))
            if m is not None:
                steps_against_bound.add((m > bound) - (m < bound))
            self.check_line(rng, u, v, bound, (None, step), seen)
        assert steps_against_bound == {-1, 0, 1} and min(seen) > 0


def test_points_of_the_whole_box():
    # u = v = 0 with w = 0 is the whole box, listed only up to MAX_CANDIDATES points
    assert _points(0, 0, 0, 317) is None  # 317**2 > MAX_CANDIDATES >= 316**2
    assert len(list(_points(0, 0, 0, 316))) == 316**2
    assert sorted(_points(0, 0, 0, 3, (1, 1, 2, 3))) == [(0, 2), (1, 1), (1, 2), (2, 0), (2, 1)]
    assert _points(0, 0, 0, 3, (1, 1, 5, 4)) == []


class TestUnscannedLines:
    """Each place where correct meets a line it does not scan logs
    search-range-too-wide for the class, and the block is ambiguous."""

    def test_single_on_a_coincident_line(self):
        # golden n = 1 is [[1, 1], [1, 0]]: the real plaintext rows are
        # (4, -1) and (0, 4), so det P = 16 is the line x = 4, which is also
        # the top row's line through c12 = 4, and no bound ends it
        report = correct(CipherPackage(Mat2(3, 4, 4, 0), 16), CipherKey.golden(1))
        assert report.residual_failure == "ambiguous: single not scanned"
        assert report.attempts[1:] == (("single", "search-range-too-wide"),)

    def test_diagonal_top_line(self):
        # the diagonal class keeps c12 = 4 of the top row: x * 1 + y * 0 = 4;
        # the weight both ties and holds that unscanned class, and says both
        report = correct(CipherPackage(Mat2(6, 4, 2, 2), 6), CipherKey.golden(1))
        assert report.residual_failure == (
            "ambiguous: candidate repairs tie in anti-diagonal; diagonal not scanned"
        )
        assert report.attempts[1:3] == (
            ("single", "no-single-candidate"), ("diagonal", "search-range-too-wide"),
        )

    def test_row_top_det_line(self):
        key = CipherKey.golden(3)
        (pkg,) = encrypt_message("FHCD", key)
        bad, _ = corrupt_package(pkg, CorruptionSpec("row_top", 1))
        assert bad.c == Mat2(20, 20, 12, 7)
        report = correct(bad, key, plaintext_bound=2**64)
        assert report.residual_failure == "ambiguous: row-top not scanned"
        assert ("row-top", "search-range-too-wide") in report.attempts
        # column-left holds the weight's only candidate: nothing ties, and the
        # unscanned row-top class is what keeps it from being the repair
        assert ("column-left", "ambiguous: row-top not scanned") in report.attempts


class TestSingle:
    def test_worked_example_two(self):
        # only the bottom row is intact, so weight 1 is two solves: the top
        # row's two one-entry lines, each against the det-P line
        key = CipherKey.arnolds_cat(4)
        pkg = CipherPackage(Mat2(770, 494, 1846, 705), 126)
        report = correct(pkg, key)
        assert report.assumed_class is ErrorClass.SINGLE
        assert report.position == (0, 1)
        assert report.candidates_examined == 2
        assert report.repaired == Mat2(770, 294, 1846, 705)

    def test_first_candidate_rejected_by_divisibility(self):
        # position (0,0) solves x = (126 + 494*1846)/705, which is not integral
        assert (126 + 494 * 1846) % 705 != 0

    def test_all_positions_when_no_row_flagged(self):
        key = CipherKey.golden(10)
        original = CipherPackage(Mat2(1068, 660, 2076, 1283), 84)
        bad = CipherPackage(Mat2(1068, 660, 2076, 1284), 84)
        report = correct(bad, key)
        assert report.success and report.repaired == original.c
        assert report.position == (1, 1)

    def test_no_candidate(self):
        key = CipherKey.arnolds_cat(4)
        pkg = CipherPackage(Mat2(771, 495, 1846, 705), 126)
        report = correct(pkg, key)
        assert not report.success
        assert dict(report.attempts)["single"] == "no-single-candidate"


class TestDiagonal:
    def test_diagonal_repair_of_example_one(self):
        key = CipherKey.golden(10)
        bad = CipherPackage(Mat2(9999, 660, 2076, 9999), 84)
        assert 660 * 2076 + 84 == 1370244  # the product the unknowns must hit
        report = correct(bad, key)
        assert report.assumed_class is ErrorClass.DIAGONAL
        assert report.repaired == Mat2(1068, 660, 2076, 1283)

    def test_anti_diagonal_repair(self):
        key = CipherKey.golden(10)
        bad = CipherPackage(Mat2(1068, 9999, 9999, 1283), 84)
        assert 1068 * 1283 - 84 == 1370160
        report = correct(bad, key)
        assert report.assumed_class is ErrorClass.ANTI_DIAGONAL
        assert report.repaired == Mat2(1068, 660, 2076, 1283)

    def test_non_positive_target(self):
        key = CipherKey.golden(10)
        # no P with non-negative entries has det P = -10**7 beside the kept entries
        bad = CipherPackage(Mat2(9999, 660, 2076, 9999), -10**7)
        report = correct(bad, key)
        assert not report.success and not report.ambiguous
        assert dict(report.attempts)["diagonal"] == "no-pair-candidate"


class TestColumn:
    def test_left_column_repair(self):
        key = CipherKey.golden(10)
        bad = CipherPackage(Mat2(9999, 660, 9999, 1283), 84)
        report = correct(bad, key)
        assert report.assumed_class is ErrorClass.COLUMN_LEFT
        assert report.repaired == Mat2(1068, 660, 2076, 1283)

    def test_right_column_repair(self):
        key = CipherKey.golden(10)
        bad = CipherPackage(Mat2(1068, 9999, 2076, 9999), 84)
        report = correct(bad, key)
        assert report.assumed_class is ErrorClass.COLUMN_RIGHT
        assert report.repaired == Mat2(1068, 660, 2076, 1283)

    def test_gcd_obstruction_reported(self):
        # with c12 and c22 kept even, c11*2 - 4*c21 = det C is even, but
        # det M(10) * det P = 85 is odd: no member, so no candidate
        key = CipherKey.golden(10)
        bad = CipherPackage(Mat2(9999, 4, 9999, 2), 85)
        report = correct(bad, key)
        assert not report.success and not report.ambiguous
        assert dict(report.attempts)["column-left"] == "no-pair-candidate"


class TestRow:
    def test_golden_row_repair_with_ratio(self):
        key = CipherKey.golden(6)
        pkg = CipherPackage(
            Mat2(9999, 9999, 263, 162), -440,
            ColumnRatioCheck("0.9"),
        )
        report = correct(pkg, key)
        assert report.assumed_class is ErrorClass.ROW_TOP
        assert report.repaired == Mat2(296, 184, 263, 162)

    def test_cat_row_repair_with_ratio(self):
        key = CipherKey.arnolds_cat(4)
        pkg = CipherPackage(
            Mat2(1325, 321, 733, 280), -82,
            ColumnRatioCheck("0.5"),
        )
        report = correct(pkg, key)
        assert report.assumed_class is ErrorClass.ROW_TOP
        assert report.repaired == Mat2(1450, 554, 733, 280)

    def test_missing_ratio_is_structural_failure(self):
        # with neither a grid nor a bound the det-P line of the top row is
        # unbounded: never scanned, and weight 2 cannot rule the row out
        key = CipherKey.arnolds_cat(4)
        pkg = CipherPackage(Mat2(1325, 321, 733, 280), -82)
        report = correct(pkg, key)
        assert not report.success and report.ambiguous
        assert dict(report.attempts)["row-top"] == "column-ratio-missing"
        assert report.residual_failure == "ambiguous: row-top not scanned"
        # a bound ends the line; without the ratio two of its points tie
        report = correct(pkg, key, plaintext_bound=26)
        assert not report.success and report.ambiguous
        assert report.residual_failure == "ambiguous: candidate repairs tie in row-top"

    def test_tied_candidates_are_ambiguous_not_picked(self):
        # with p21 = 0, det P does not depend on p12, and a 2-digit c21/c11 admits
        # more than one top row; the original is [8060, 4982], not the nearest one
        key = CipherKey(KeyMatrix(Mat2(1, 1, 1, 0)), SeedPair(2, 16), 6, (0, 3, 2, 1))
        pkg = CipherPackage(
            Mat2(8096, 3758, 2926, 1824), 437,
            ColumnRatioCheck("0.36"),
        )
        report = correct(pkg, key, plaintext_bound=26)
        assert report.repaired is None
        assert report.ambiguous
        # weight 2 stops at its second passing candidate: row-bottom is never examined
        assert report.attempts[-1] == ("row-top", "ambiguous: candidate repairs tie")

    def test_zero_row_tie_stops_at_the_second_candidate(self):
        # beside a zero top row det P is 0 for every bottom row, so the whole
        # 256 x 256 box ties; the scan lists it lazily and stops at the second
        key = random_cipher_key(random.Random(1), n_lo=100, n_hi=100)
        pkg = encrypt(PlaintextMatrix(Mat2(0, 0, 200, 7)), key)
        c = pkg.c
        bad = CipherPackage(Mat2(c.a11, c.a12, c.a21 + 5, c.a22 - 3), pkg.det_p)
        report = correct(bad, key, plaintext_bound=256)
        assert report.ambiguous and report.candidates_examined == 2
        assert report.residual_failure == "ambiguous: candidate repairs tie in row-bottom"

    def test_row_bottom_beside_an_intact_top_row_solves_no_across_row_class(self):
        # at n = 100 both columns step x by far more than 256, so every
        # kept-entry line holds at most one box point and, beside the intact
        # top row, the four across-row classes cannot hold a candidate: they
        # are logged with no solve, and only the three det-P line points of
        # the bottom row are examined (seven with the four meets' solves)
        rng = random.Random(1)
        key = random_cipher_key(rng, n_lo=100, n_hi=100)
        assert min(m for _, m, _ in key.coding_matrix.column_lines) >= 256
        pkg = encrypt(random_plaintext(rng, alphabet_size=256), key, emit_column_ratio=True)
        bad, _ = corrupt_package(pkg, CorruptionSpec("row_bottom", seed=rng.randrange(2**30)))
        report = correct(bad, key, plaintext_bound=256)
        assert report.assumed_class is ErrorClass.ROW_BOTTOM and report.repaired == pkg.c
        assert report.candidates_examined == 3
        assert report.attempts[1:] == (
            ("single", "no-single-candidate"), ("diagonal", "no-pair-candidate"),
            ("anti-diagonal", "no-pair-candidate"), ("column-left", "no-pair-candidate"),
            ("column-right", "no-pair-candidate"), ("row-top", "no-pair-candidate"),
            ("row-bottom", "repaired"),
        )

    @pytest.mark.parametrize("family, bound, mode, listed", [
        ("random", 256, "single", 0),
        ("random", 256, "diagonal", 2),
        ("random", 256, "column_left", 2),
        ("random", 256, "row_top", 0),
        ("random", 256, "row_bottom", 0),
        ("golden", 26, "row_top", 2),
        ("golden", 26, "row_bottom", 2),
    ])
    def test_top_row_lines_are_listed_once_where_weight_2_begins(
            self, monkeypatch, family, bound, mode, listed):
        # a kept-entry line is listed by a _points call with its step: none
        # when a single settles at weight 1, or when the one-point rule holds
        # (n = 100, bound 256) beside an intact row; both top-row lines once
        # otherwise, as beside a golden n = 3 row, whose lines step x by 1 or 2
        steps = []

        def counting(*args, step=None, **kwargs):
            steps.append(step)
            return _points(*args, step=step, **kwargs)

        monkeypatch.setattr(correction, "_points", counting)
        rng = random.Random(1)
        key = random_cipher_key(rng, n_lo=100, n_hi=100) if family == "random" else CipherKey.golden(3)
        pkg = encrypt(random_plaintext(rng, alphabet_size=bound), key, emit_column_ratio=True)
        bad, _ = corrupt_package(pkg, CorruptionSpec(mode, seed=rng.randrange(2**30)))
        report = correct(bad, key, plaintext_bound=bound)
        assert report.assumed_class.value == mode.replace("_", "-") and report.repaired == pkg.c
        assert sum(step is not None for step in steps) == listed

    def test_bounds_leave_ten_candidates(self):
        # alphabet-derived bounds alone keep k = 0..9 feasible: not decisive
        feasible = _points(172, -450, 176, 2226, (0, 1, 0, 850))
        assert len(feasible) == 10
        assert feasible[0] == (158, 60)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 9: beside a zero P-row a one-entry change passes every check")
def test_zero_row_change_never_decrypts_silently_wrong():
    """Golden n = 3 encrypts MHAA with the column ratio to [[50, 31], [0, 0]].
    P's bottom row is zero, so det P is 0 whatever the top row holds, and the
    ratio check reads 0.  A +/-1 or +/-2 change to c11 or c12 must then be
    refused by decrypt, or repaired by correct to a block that decrypts to
    MHAA; no change may decrypt to another message without an error."""
    key = CipherKey.golden(3)
    (pkg,) = encrypt_message("MHAA", key, emit_column_ratio=True)
    assert pkg.c == Mat2(50, 31, 0, 0)
    silent = []
    for entry in range(2):
        for delta in (-2, -1, 1, 2):
            entries = list(pkg.c.entries())
            entries[entry] += delta
            bad = CipherPackage(Mat2(*entries), pkg.det_p, pkg.column_ratio)
            for c in {bad.c, correct(bad, key).repaired}:
                try:
                    text = decrypt_message([CipherPackage(c, pkg.det_p, pkg.column_ratio)], key)
                except CipherError:
                    continue
                if text != "MHAA":
                    silent.append((c, text))
    assert not silent, silent


# --- reference intact test ---------------------------------------------------
# The repair check that the intact test (_row_plaintext, then _checked) replaced:
# every check an intact ciphertext must pass, each tested on its own.  Rows,
# verify and decryption use test_kernel's references.


def ref_repair_passes(mat: Mat2, key: CipherKey, det_p: int, grid, bound) -> bool:
    """All checks an intact ciphertext must satisfy, in exact arithmetic: grid
    is the transmitted column ratio c21/c11 as (R, D), or None."""
    c11, c12, c21, c22 = mat.entries()
    if c11 < 0 or c12 < 0 or c21 < 0 or c22 < 0:
        return False
    if c11 * c22 - c12 * c21 != key.coding_matrix.det * det_p:
        return False
    if ref_bad_rows(mat, key):
        return False
    if grid is not None:
        r, d = grid
        if c11 <= 0 or not (2 * r - 1) * c11 <= 2 * d * c21 <= (2 * r + 1) * c11:
            return False
    try:
        entries = ref_decrypt(CipherPackage(mat, det_p), key)
    except (NonIntegralPlaintext, NegativePlaintext, CheckNumberMismatch):
        return False
    return bound is None or max(entries) < bound


def grid_of(pkg: CipherPackage):
    """The package's column-ratio grid (R, D), or None when it sends no ratio."""
    return None if pkg.column_ratio is None else pkg.column_ratio.grid


@given(
    st.integers(0, 2**32),
    st.sampled_from(("golden", "cat", "random")),
    st.one_of(st.integers(1, 24), st.just(100)),
    st.sampled_from((None, 0, 1, 2, 3)),
    st.sampled_from((26, 256, None)),
    st.sampled_from(("clean", "channel", "tamper", "shear")),
)
@settings(max_examples=400, deadline=None)
def test_intact_matches_reference(seed, family, n, digits, bound, damage):
    """The intact test accepts exactly the blocks that verify clean and pass every
    reference repair check, and returns their decrypted entries."""
    rng = random.Random(seed)
    if family == "golden":
        key = CipherKey.golden(n)
    elif family == "cat":
        key = CipherKey.arnolds_cat(n)
    else:
        key = random_cipher_key(rng, n_lo=n, n_hi=n)
    # a few symbols past the bound, so the bound check rejects some blocks
    p = random_plaintext(rng, alphabet_size=300 if bound is None else bound + 4)
    pkg = encrypt(p, key, emit_column_ratio=digits is not None, ratio_digits=digits or 0)
    if damage == "channel":
        pkg, _ = corrupt_package(pkg, CorruptionSpec("random", seed=rng.randrange(2**30)))
    elif damage != "clean":
        pkg = {"tamper": tamper, "shear": shear}[damage](pkg, rng)
    cm, grid = key.coding_matrix, grid_of(pkg)
    expected = verify_package(pkg, key).clean and ref_repair_passes(
        pkg.c, key, pkg.det_p, grid, bound
    )
    entries = intact(pkg.c, pkg.det_p, cm, grid, bound)
    assert (entries is not None) == expected
    if expected:
        assert entries == ref_decrypt(pkg, key)


# Plaintexts are drawn a few symbols past each bound; with no bound, from
# [0, 2**65), so about half the entries are 2**FORWARD_BITS or more, which
# only exact division recovers.
_DRAW = {26: 30, 256: 260, 2**64: 2**64 + 4, None: 2**65}


def shift_by_modulus(pkg: CipherPackage, rng: random.Random, cm) -> CipherPackage:
    """Add a small multiple of the forward table's modulus 2**(FORWARD_BITS + s)
    to one entry: the residues, and so the lifted P, stay the same, and only
    the exact forward product sees it."""
    modulus = 2**FORWARD_BITS if cm.forward is None else cm.forward[1] + 1
    entries = list(pkg.c.entries())
    entries[rng.randrange(4)] += rng.choice((-2, -1, 1, 2)) * modulus
    return CipherPackage(Mat2(*entries), pkg.det_p, pkg.column_ratio, pkg.block_index, pkg.pad_len)


def forward_key(family: str, n: int, rng: random.Random) -> CipherKey:
    """A golden, cat, even-det cat or random key at exponent n.  The even-det
    family is the cat multiplier with seed (0, 2**k), so det M(n) = 4**k."""
    if family == "golden":
        return CipherKey.golden(n)
    if family == "cat":
        return CipherKey.arnolds_cat(n)
    if family == "cat_even":
        return CipherKey(KeyMatrix(Mat2(2, 1, 1, 1)), SeedPair(0, 2 ** rng.randint(1, 100)), n)
    return random_cipher_key(rng, n_lo=n, n_hi=n)


@given(
    st.integers(0, 2**32),
    st.sampled_from(("golden", "cat", "cat_even", "random")),
    st.sampled_from((1, 10, 60, 150, 300, 500)),
    st.sampled_from((None, 0, 2)),
    st.sampled_from((26, 256, 2**64, None)),
    st.sampled_from(("clean", "channel", "tamper", "shear", "shift_by_modulus")),
)
@settings(max_examples=300, deadline=None)
def test_forward_product_matches_reference(seed, family, n, digits, bound, damage):
    """Above FORWARD_MIN_BITS (cat keys from n = 185, golden keys from
    n = 370, most random keys from n = 100) _row_plaintext and
    verify_package use the 2-adic forward product; below it (n = 1, 10 and
    60 for every family) they divide exactly, and verify_package solves P
    before it falls back to det C and the intervals on every key.  Both
    must still agree with the exact references."""
    rng = random.Random(seed)
    key = forward_key(family, n, rng)
    cm = key.coding_matrix
    p = random_plaintext(rng, alphabet_size=_DRAW[bound])
    pkg = encrypt(p, key, emit_column_ratio=digits is not None, ratio_digits=digits or 0)
    if damage == "channel":
        pkg, _ = corrupt_package(pkg, CorruptionSpec("random", seed=rng.randrange(2**30)))
    elif damage == "shift_by_modulus":
        pkg = shift_by_modulus(pkg, rng, cm)
    elif damage != "clean":
        pkg = {"tamper": tamper, "shear": shear}[damage](pkg, rng)
    grid = grid_of(pkg)
    verified = ref_verify(pkg, key)
    assert verify_package(pkg, key) == verified
    expected = verified.clean and ref_repair_passes(pkg.c, key, pkg.det_p, grid, bound)
    entries = intact(pkg.c, pkg.det_p, cm, grid, bound)
    assert (entries is not None) == expected
    if expected:
        assert entries == ref_decrypt(pkg, key)


@pytest.mark.parametrize("family", ["cat", "cat_even", "random"])
@pytest.mark.parametrize("i", range(4))
def test_negative_entry_on_a_big_key_matches_reference(family, i):
    """A negative ciphertext entry reaches the forward product as its residue
    (Python's &), fails the exact check and falls to the same verdicts as the
    exact references, in verify_package, the intact test and decrypt."""
    rng = random.Random(i)
    key = forward_key(family, 500, rng)
    cm = key.coding_matrix
    assert cm.forward is not None
    pkg = encrypt(PlaintextMatrix(Mat2(12, 0, 19, 7)), key, emit_column_ratio=True)
    for entries in (list(pkg.c.entries()), [0, 0, 0, 0]):
        entries[i] = -pkg.c.entries()[i]
        bad = CipherPackage(Mat2(*entries), pkg.det_p, pkg.column_ratio)
        assert verify_package(bad, key) == ref_verify(bad, key)
        for bound in (26, 2**64, None):
            assert intact(bad.c, bad.det_p, cm, grid_of(bad), bound) is None
            assert not ref_repair_passes(bad.c, key, bad.det_p, grid_of(bad), bound)
        assert outcome(lambda: decrypt(bad, key).p.entries()) == outcome(ref_decrypt, bad, key)


def tiny_key(rng: random.Random, n: int) -> CipherKey:
    """A key with entries and seeds at most 3, as test_pins_lose_no_candidate
    draws them, so M(n) can have zero entries."""
    while True:
        try:
            seed = SeedPair(rng.randint(0, 3), rng.randint(0, 3))
            return CipherKey(random_key_matrix(rng, max_entry=3), seed, n)
        except InvalidKey:
            pass


def box_entry(rng: random.Random, bound) -> int:
    """0, bound - 1 or any entry below bound; without a bound, 0, a small entry
    or one of 2**FORWARD_BITS or more, which only exact division solves."""
    if bound is None:
        return rng.choice((0, rng.randrange(300), 2**FORWARD_BITS + rng.randrange(2**FORWARD_BITS)))
    return rng.choice((0, bound - 1, rng.randrange(bound)))


@pytest.mark.parametrize("family,n", [
    ("tiny", 1), ("tiny", 3),
    *((family, n) for family in ("golden", "cat", "random") for n in (10, 100)),
    *((family, 500) for family in ("golden", "cat", "cat_even", "random")),
])
@pytest.mark.parametrize("bound", (3, 26, 256, 2**64, None))
def test_candidate_needs_no_second_solve(family, n, bound):
    """correct builds each candidate as rows @ M(n) from rows in the box and
    asks only _checked: solving the candidate must give those rows back, so
    the full intact test and _checked on the rows agree, for det_p equal
    to det P or not and for the true column-ratio grid, a shifted one and
    none."""
    rng = random.Random(f"{family} {n} {bound}")
    for _ in range(4):
        key = tiny_key(rng, n) if family == "tiny" else forward_key(family, n, rng)
        cm = key.coding_matrix
        for _ in range(25):
            rows = tuple((box_entry(rng, bound), box_entry(rng, bound)) for _ in range(2))
            c = Mat2(*rows[0], *rows[1]) @ cm.matrix
            assert _row_plaintext(c.a11, c.a12, cm) == rows[0]
            assert _row_plaintext(c.a21, c.a22, cm) == rows[1]
            assert _package_rows(c, cm) == rows
            if c.a11 > 0:
                digits = rng.randint(0, 3)
                value = round_half_even_ratio(c.a21, c.a11, digits)
                r, d = ColumnRatioCheck(value).grid
            else:
                r, d = 0, 1
            det_p = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
            for grid in (None, (r, d), (r + 1, d)):
                for claimed in (det_p, det_p + 1):
                    assert intact(c, claimed, cm, grid, bound) == _checked(c, rows, claimed, grid)


# --- brute-force oracle -------------------------------------------------------
# Every P-row in the box, times M(n), is a candidate ciphertext row.  The
# oracle keeps the pairs of rows within Hamming distance 2 of C that have
# det P = det_p and pass the intact test, at their lowest distance: one codeword is
# the repair, several are a tie, none is no repair.


@functools.lru_cache(maxsize=16)
def box_rows(cm, bound):
    """Every P-row (x, y) in the box with its ciphertext row (x, y) @ M(n)."""
    m11, m12, m21, m22 = cm.matrix.entries()
    return tuple(((x, y), (x * m11 + y * m21, x * m12 + y * m22))
                 for x in range(bound) for y in range(bound))


@functools.lru_cache(maxsize=4096)
def rows_by_distance(cm, bound, c1, c2):
    """Per distance d = 0, 1, 2: the box_rows whose ciphertext row is at
    distance d from (c1, c2).  Cached, since many received blocks share a
    row; the caller only reads it."""
    split = ([], [], [])
    for p, row in box_rows(cm, bound):
        split[(row[0] != c1) + (row[1] != c2)].append((p, row))
    return split


def oracle_codewords(pkg, key, bound):
    cm = key.coding_matrix
    c11, c12, c21, c22 = pkg.c.entries()
    grid = grid_of(pkg)
    # by_distance[i][d]: the P-rows whose ciphertext row is at distance d from row i of C
    by_distance = rows_by_distance(cm, bound, c11, c12), rows_by_distance(cm, bound, c21, c22)
    for weight in range(3):
        found = set()
        for d0 in range(weight + 1):
            for (x0, y0), top in by_distance[0][d0]:
                for (x1, y1), bottom in by_distance[1][weight - d0]:
                    if x0 * y1 - y0 * x1 == pkg.det_p:
                        cand = Mat2(*top, *bottom)
                        if intact(cand, pkg.det_p, cm, grid, bound) is not None:
                            found.add(cand)
        if found:
            return found
    return set()


def oracle_outcome(sent, received, key, bound):
    """correct's outcome, after checking it is the oracle's."""
    codewords = oracle_codewords(received, key, bound)
    report = correct(received, key, plaintext_bound=bound)
    if len(codewords) == 1:
        assert report.repaired == next(iter(codewords)), (key, received)
        return "exact" if report.repaired == sent.c else "beyond-radius"
    assert report.repaired is None, (key, received)
    assert report.ambiguous == (len(codewords) > 1), (key, received)
    return "ambiguous" if codewords else "uncorrectable"


def oracle_key(rng, family):
    perm = list(range(4))
    rng.shuffle(perm)
    if family == "golden":
        return CipherKey.golden(rng.randint(1, 10), tuple(perm))
    if family == "cat":
        return CipherKey.arnolds_cat(rng.randint(1, 10), tuple(perm))
    return random_cipher_key(rng, n_lo=4, n_hi=24)


class TestPairAgainstBruteForce:
    @pytest.mark.parametrize("mode", sorted(_MODE_POSITIONS))
    def test_pins_lose_no_candidate(self, mode):
        # tiny keys, seeds and alphabet: M(n) can have zero entries, lines hold
        # several box points and zero rows are common, so the degenerate
        # solves and det lines are reached; every outcome is the oracle's
        rng = random.Random(mode)
        for _ in range(100):
            key = None
            while key is None:
                try:
                    key = CipherKey(
                        random_key_matrix(rng, max_entry=3),
                        SeedPair(rng.randint(0, 3), rng.randint(0, 3)), rng.randint(1, 3),
                    )
                except InvalidKey:
                    pass
            pkg = encrypt(random_plaintext(rng, alphabet_size=3), key,
                          emit_column_ratio=rng.random() < 0.8, ratio_digits=rng.choice((1, 2)))
            bad, _ = corrupt_package(pkg, CorruptionSpec(mode, seed=rng.randrange(2**30)))
            oracle_outcome(pkg, bad, key, 3)

    # Outcomes at bound 26 with random corruption.  Golden keys: 200 blocks
    # per n, a 2-digit column ratio and random perms; README quotes these.
    GOLDEN = {
        1: {"exact": 180, "ambiguous": 19, "beyond-radius": 1},
        2: {"exact": 194, "ambiguous": 5, "beyond-radius": 1},
        3: {"exact": 199, "ambiguous": 1},
        4: {"exact": 198, "ambiguous": 2},
        5: {"exact": 199, "ambiguous": 1},
        6: {"exact": 200},
        7: {"exact": 196, "ambiguous": 4},
        8: {"exact": 200},
        9: {"exact": 200},
        10: {"exact": 197, "ambiguous": 3},
    }
    # (column ratio sent, outcome): cat keys n 1..10 and random keys n 4..24
    FAMILIES = {
        "cat": {
            (True, "exact"): 199, (True, "ambiguous"): 1,
            (False, "exact"): 151, (False, "ambiguous"): 49,
        },
        "random": {(True, "exact"): 200, (False, "exact"): 156, (False, "ambiguous"): 44},
    }

    def test_golden_keys_match_the_oracle(self):
        rng = random.Random(26)
        tally = {}
        for n in range(1, 11):
            for _ in range(200):
                perm = list(range(4))
                rng.shuffle(perm)
                key = CipherKey.golden(n, tuple(perm))
                pkg = encrypt(random_plaintext(rng), key, emit_column_ratio=True)
                bad, _ = corrupt_package(pkg, CorruptionSpec("random", seed=rng.randrange(2**30)))
                outcome = oracle_outcome(pkg, bad, key, 26)
                counts = tally.setdefault(n, {})
                counts[outcome] = counts.get(outcome, 0) + 1
        assert tally == self.GOLDEN

    @pytest.mark.parametrize("family", ["cat", "random"])
    def test_families_match_the_oracle(self, family):
        # cat n 1..10 and random keys n 4..24, half the blocks without the ratio
        rng = random.Random(family)
        tally = {}
        for i in range(400):
            key = oracle_key(rng, family)
            pkg = encrypt(random_plaintext(rng), key, emit_column_ratio=i % 2 == 0)
            bad, _ = corrupt_package(pkg, CorruptionSpec("random", seed=rng.randrange(2**30)))
            outcome = (i % 2 == 0, oracle_outcome(pkg, bad, key, 26))
            tally[outcome] = tally.get(outcome, 0) + 1
        assert tally == self.FAMILIES[family]


# Every change of the one-point test: each row moved by +-1 or +-2 on both
# entries, and each entry moved alone by the same deltas.
DELTAS = (-2, -1, 1, 2)
ONE_POINT_CHANGES = [
    *(((0, dx), (1, dy)) for dx in DELTAS for dy in DELTAS),
    *(((2, dx), (3, dy)) for dx in DELTAS for dy in DELTAS),
    *(((k, d),) for k in range(4) for d in DELTAS),
]


@pytest.mark.parametrize("family,n,bound,one_point", [
    ("golden", 5, 3, True), ("golden", 7, 3, True), ("golden", 10, 3, True),
    ("cat", 3, 4, True), ("cat", 4, 4, True),
    ("golden", 3, 3, False),  # M(3) = [[3, 2], [2, 1]]: column 0 steps x by 2
])
def test_one_point_rule_loses_no_candidate(family, n, bound, one_point):
    """correct skips the across-row classes beside an intact row when both
    columns' kept-entry lines hold at most one box point: the oracle must
    agree on every block in the box, every row change and every single
    change, with and without a 2-digit column ratio."""
    key = CipherKey.golden(n) if family == "golden" else CipherKey.arnolds_cat(n)
    assert all(m is not None and m >= bound for _, m, _ in key.coding_matrix.column_lines) \
        == one_point
    tally = {}
    for block in itertools.product(range(bound), repeat=4):
        for with_ratio in (False, True):
            pkg = encrypt(PlaintextMatrix(Mat2(*block)), key, emit_column_ratio=with_ratio)
            for change in ONE_POINT_CHANGES:
                e = list(pkg.c.entries())
                for k, d in change:
                    e[k] += d
                bad = CipherPackage(Mat2(*e), pkg.det_p, pkg.column_ratio)
                outcome = oracle_outcome(pkg, bad, key, bound)
                tally[outcome] = tally.get(outcome, 0) + 1
    assert tally["exact"] > 0 and tally["ambiguous"] > 0


class TestPipeline:
    def test_example_two_narrative(self):
        key = CipherKey.arnolds_cat(4)
        pkg = CipherPackage(Mat2(770, 494, 1846, 705), 126)
        outcome = verify_package(pkg, key)
        assert outcome.bad_rows == frozenset({0})
        report = correct(pkg, key)
        assert report.assumed_class is ErrorClass.SINGLE
        assert report.position == (0, 1)
        assert report.candidates_examined == 2
        assert report.repaired == Mat2(770, 294, 1846, 705)

    def test_clean_package_short_circuits(self):
        key = CipherKey.golden(10)
        pkg = CipherPackage(Mat2(1068, 660, 2076, 1283), 84)
        report = correct(pkg, key)
        assert report.assumed_class is ErrorClass.NONE
        assert report.repaired == pkg.c
        assert report.candidates_examined == 0

    def test_triple_error_is_uncorrectable(self):
        key = CipherKey.golden(10)
        pkg = CipherPackage(Mat2(9991, 8882, 7773, 1283), 84)
        report = correct(pkg, key)
        assert not report.success
        assert report.residual_failure.startswith("uncorrectable")
        assert len(report.attempts) >= 6

    def test_empty_pair_stages_name_the_pinned_range(self):
        key = CipherKey.golden(10)
        report = correct(CipherPackage(Mat2(9991, 8882, 7773, 1283), 84), key)
        assert report.attempts[1] == ("single", "no-single-candidate")
        assert report.attempts[2:] == tuple(
            (name, "no-pair-candidate") for name in (
                "diagonal", "anti-diagonal", "column-left", "column-right", "row-top", "row-bottom"
            )
        )

    def test_full_row_pipeline_with_ratio(self):
        key = CipherKey.arnolds_cat(4)
        pkg = CipherPackage(
            Mat2(1325, 321, 733, 280), -82,
            ColumnRatioCheck("0.5"),
        )
        report = correct(pkg, key)
        assert report.assumed_class is ErrorClass.ROW_TOP
        assert report.repaired == Mat2(1450, 554, 733, 280)
        tried = [name for name, _ in report.attempts]
        assert tried[:2] == ["verify", "single"]

    def test_accepted_repairs_always_satisfy_all_checks(self):
        rng = random.Random(99)
        for _ in range(120):
            key = random_cipher_key(rng, n_lo=4, n_hi=20)
            p = random_plaintext(rng)
            pkg = encrypt(p, key, emit_column_ratio=True)
            spec = CorruptionSpec("random", seed=rng.randrange(2**30))
            bad, _ = corrupt_package(pkg, spec)
            report = correct(bad, key, plaintext_bound=26)
            if report.success:
                fixed = CipherPackage(report.repaired, bad.det_p, bad.column_ratio,
                                      bad.block_index, bad.pad_len)
                assert verify_package(fixed, key).clean
                from unicipher.cipher import decrypt

                plain = decrypt(fixed, key)
                assert all(0 <= v < 26 for v in plain.p.entries())

    @pytest.mark.parametrize("mode,klass", [
        ("single", ErrorClass.SINGLE),
        ("diagonal", ErrorClass.DIAGONAL),
        ("antidiagonal", ErrorClass.ANTI_DIAGONAL),
        ("column_left", ErrorClass.COLUMN_LEFT),
        ("column_right", ErrorClass.COLUMN_RIGHT),
        ("row_top", ErrorClass.ROW_TOP),
        ("row_bottom", ErrorClass.ROW_BOTTOM),
    ])
    def test_seeded_class_trials(self, mode, klass):
        import zlib

        rng = random.Random(zlib.crc32(mode.encode()))
        exact = 0
        trials = 150
        for _ in range(trials):
            key = random_cipher_key(rng, n_lo=4, n_hi=24)
            p = random_plaintext(rng)
            pkg = encrypt(p, key, emit_column_ratio=True)
            bad, diff = corrupt_package(pkg, CorruptionSpec(mode, seed=rng.randrange(2**30)))
            report = correct(bad, key, plaintext_bound=26)
            if report.success:
                assert report.repaired == pkg.c, "accepted repair must match the original"
                assert report.assumed_class is klass
                if klass is ErrorClass.SINGLE:
                    assert report.position == diff.entries[0][0]
                exact += 1
        assert exact >= trials * 0.97

    def test_clean_means_every_repair_check_passes(self):
        # A row error can keep det P and both row intervals; only the column
        # ratio and divisibility show it.  Before `correct` applied every
        # repair check to the received block, 4 of these 4,000 golden blocks
        # were passed through as clean although a repair check rejects them.
        rng = random.Random(10)
        passed_through = 0
        for _ in range(4000):
            perm = list(range(4))
            rng.shuffle(perm)
            key = CipherKey.golden(rng.randint(1, 10), tuple(perm))
            pkg = encrypt(random_plaintext(rng), key, emit_column_ratio=True)
            bad, _ = corrupt_package(pkg, CorruptionSpec("random", seed=rng.randrange(2**30)))
            report = correct(bad, key, plaintext_bound=26)
            if report.assumed_class is ErrorClass.NONE and report.success:
                passed_through += not ref_repair_passes(bad.c, key, bad.det_p, grid_of(bad), 26)
        assert passed_through == 0

    def test_ratio_is_sent_when_only_c12_is_zero(self):
        # golden n = 1 has M = [[1, 1], [1, 0]], so p11 = 0 gives c12 = 0; the
        # ratio reads c21/c11 only.  Without it correct repairs all 200 of
        # these blocks wrongly.  In the other 19 a diagonal change fits as
        # well as the row change, so the two weight-2 candidates tie.
        key = CipherKey.golden(1)
        pkg = encrypt(PlaintextMatrix(Mat2(0, 5, 3, 7)), key, emit_column_ratio=True)
        assert pkg.c == Mat2(5, 0, 10, 3) and pkg.column_ratio.value == "2.00"
        outcomes = {}
        for seed in range(200):
            bad, _ = corrupt_package(pkg, CorruptionSpec("row_bottom", seed=seed))
            r = correct(bad, key, plaintext_bound=26)
            if r.success:
                outcome = f"{r.assumed_class.value} {'exact' if r.repaired == pkg.c else 'wrong'}"
            else:
                outcome = "ambiguous" if r.ambiguous else "uncorrectable"
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        assert outcomes == {"row-bottom exact": 181, "ambiguous": 19}

    def test_row_without_ratio_never_silently_wrong(self):
        rng = random.Random(4242)
        for _ in range(150):
            key = random_cipher_key(rng, n_lo=4, n_hi=24)
            p = random_plaintext(rng)
            pkg = encrypt(p, key, emit_column_ratio=False)
            mode = rng.choice(("row_top", "row_bottom"))
            bad, _ = corrupt_package(pkg, CorruptionSpec(mode, seed=rng.randrange(2**30)))
            report = correct(bad, key, plaintext_bound=26)
            if report.success:
                assert report.repaired == pkg.c


@pytest.mark.parametrize("bound,error", [
    (True, TypeError), (2.5, TypeError), (26.0, TypeError), ("26", TypeError),
    (0, ValueError), (-5, ValueError),
])
def test_plaintext_bound_follows_the_integer_rule(bound, error):
    # golden n = 5 MATH with one entry changed (corrupt --spec single --seed 3):
    # the bound 26 repairs it; True once read as 1 and answered uncorrectable,
    # 0 and -5 answered uncorrectable, and 2.5 raised from range()
    key = CipherKey.golden(5)
    (pkg,) = encrypt_message("MATH", key)
    bad, _ = corrupt_package(pkg, CorruptionSpec("single", 3))
    assert correct(bad, key, plaintext_bound=26).repaired == pkg.c
    assert not correct(bad, key, plaintext_bound=1).success
    with pytest.raises(error, match="plaintext_bound"):
        correct(bad, key, plaintext_bound=bound)

# P = [[5, 7], [2, 3]] under the cat multiplier with seed (2, 4): det M(n) = 20,
# so C @ adj M can miss divisibility; at n = 500 rows solve 2-adically (s = 2).
REJECTED_P = Mat2(5, 7, 2, 3)


def rejected_block(failure: str, key: CipherKey, with_ratio: bool) -> CipherPackage:
    """Block 2 of a message, built to fail the check named by failure first."""
    m = key.coding_matrix.matrix
    c, det_p = REJECTED_P @ m, REJECTED_P.det()
    if failure == "non-integral":
        c = Mat2(c.a11, c.a12 + 1, c.a21, c.a22)
    elif failure == "negative":
        c = Mat2(5, -1, 2, 3) @ m
    elif failure == "det":
        det_p += 1
    check = None
    if with_ratio:
        c21 = c.a21 + c.a11 if failure == "ratio" else c.a21
        check = ColumnRatioCheck(round_half_even_ratio(c21, c.a11, 2))
    return CipherPackage(c, det_p, check, 2)


def cat_key_det_20(n: int) -> CipherKey:
    key = CipherKey(KeyMatrix(Mat2(2, 1, 1, 1)), SeedPair(2, 4), n)
    assert key.coding_matrix.det == 20 and (key.coding_matrix.forward is not None) == (n == 500)
    return key


class TestRejectionThroughBothReaders:
    """Each rejection outcome reads the same from decryption (the error,
    prefixed with the block) and from correct (its first log entry), in
    either order on one C, whose rows both readers share."""

    @pytest.mark.parametrize("n", (3, 500))
    @pytest.mark.parametrize("failure,with_ratio,error", [
        ("non-integral", False, NonIntegralPlaintext),
        ("non-integral", True, NonIntegralPlaintext),
        ("negative", False, NegativePlaintext),
        ("negative", True, NegativePlaintext),
        ("det", False, CheckNumberMismatch),
        ("det", True, CheckNumberMismatch),
        ("ratio", True, CheckNumberMismatch),
    ])
    def test_failed_check(self, failure, with_ratio, error, n):
        key = cat_key_det_20(n)
        with pytest.raises(error) as reference:
            ref_decrypt(rejected_block(failure, key, with_ratio), key)
        text = str(reference.value)
        assert text.startswith("block 2: ")
        assert ("entry (0, 0)" in text) == (failure == "non-integral")
        logged = ("verify", f"{error.__name__}: {text.removeprefix('block 2: ')}")
        pkg = rejected_block(failure, key, with_ratio)
        assert outcome(decrypt, pkg, key) == (error, text)
        report = correct(pkg, key)
        assert report.attempts[0] == logged
        pkg = rejected_block(failure, key, with_ratio)
        assert correct(pkg, key) == report
        assert outcome(decrypt, pkg, key) == (error, text)

    @pytest.mark.parametrize("n", (3, 500))
    @pytest.mark.parametrize("with_ratio", (False, True))
    def test_intact_block_over_the_bound(self, with_ratio, n):
        key = cat_key_det_20(n)
        pkg = rejected_block("bound", key, with_ratio)
        report = correct(pkg, key, plaintext_bound=4)
        assert report.attempts[0] == (
            "verify", "UnknownSymbol: plaintext entry 7 is not below the bound 4"
        )
        assert correct(pkg, key, plaintext_bound=8).attempts == (("verify", "clean"),)
        # decryption checks no bound: the block decrypts, and rendering names the index
        assert decrypt(pkg, key) == PlaintextMatrix(REJECTED_P)
        with pytest.raises(UnknownSymbol, match="^index 5 is outside the alphabet$"):
            decrypt_message([pkg], key, Alphabet("ABCD"))

    def test_golden_block_over_the_bound(self):
        # golden n = 3 has det -1, so every row is integral
        key = CipherKey.golden(3)
        (pkg,) = encrypt_message("FHCD", key)
        assert pkg.c == REJECTED_P @ key.coding_matrix.matrix
        assert correct(pkg, key, plaintext_bound=4).attempts[0] == (
            "verify", "UnknownSymbol: plaintext entry 7 is not below the bound 4"
        )


def all_residues_error(c: Mat2, cm) -> CipherError:
    """The error of a block with a row that does not solve, as _verdict once
    decided it: all four entries of C·adj M reduced mod det, in row-major
    order, the first that det does not divide naming NonIntegralPlaintext."""
    det = cm.det
    c11, c12, c21, c22 = (e % det for e in c.entries())
    j11, j12, j21, j22 = (e % det for e in cm.adj)
    residues = (c11 * j11 + c12 * j21, c11 * j12 + c12 * j22,
                c21 * j11 + c22 * j21, c21 * j12 + c22 * j22)
    for i, e in enumerate(residues):
        if e % det:
            return NonIntegralPlaintext(
                f"entry {divmod(i, 2)} of C·adj M is not divisible by det {det}"
            )
    return NegativePlaintext(
        "decryption produced negative entries; ciphertext corrupt or key wrong"
    )


@pytest.mark.parametrize("n", (3, 10, 500))
@pytest.mark.parametrize("u,seed", [
    ((2, 1, 1, 1), (2, 4)),  # det 20
    ((2, 1, 1, 1), (4, 2)),  # det -4
    ((2, 1, 1, 1), (5, 2)),  # det -11
    ((1, 1, 1, 0), (2, 4)),  # det -20 at odd n, 20 at even n
    ((2, 1, 1, 1), (0, 1024)),  # det 4**10
    ("random", None),
])
def test_unsolved_rows_name_the_error_of_all_four_residues(u, seed, n):
    """_verdict reduces only the unsolved rows mod det.  On one and two such
    rows, made by small changes, negated entries and shifts by the forward
    table's modulus, on keys that divide exactly (n = 3, 10) and keys with
    a forward table (n = 500), it and decrypt name the error that reducing
    all four entries names."""
    rng = random.Random(f"{u} {seed} {n}")
    if u == "random":
        key = random_cipher_key(rng, n_lo=n, n_hi=n)
    else:
        key = CipherKey(KeyMatrix(Mat2(*u)), SeedPair(*seed), n)
    cm = key.coding_matrix
    assert (cm.forward is not None) == (n == 500)
    modulus = 2**FORWARD_BITS if cm.forward is None else cm.forward[1] + 1
    seen = set()
    for _ in range(60):
        pkg = encrypt(random_plaintext(rng, alphabet_size=256), key,
                      emit_column_ratio=rng.random() < 0.5)
        entries = list(pkg.c.entries())
        for i in rng.choice(((0,), (1,), (0, 1))):
            k = 2 * i + rng.randrange(2)
            damage = rng.choice(("change", "negate", "shift"))
            if damage == "change":
                entries[k] += rng.choice((-1, 1)) * rng.randint(1, 1000)
            elif damage == "negate":
                entries[k] = -entries[k]
            else:
                entries[k] += rng.choice((-2, -1, 1, 2)) * modulus
        bad = CipherPackage(Mat2(*entries), pkg.det_p, pkg.column_ratio, rng.randrange(5))
        unsolved = _package_rows(bad.c, cm).count(None)
        if not unsolved:
            continue
        expected = all_residues_error(bad.c, cm)
        seen.add((unsolved, type(expected)))
        for bound in (None, 256):
            verdict = _verdict(bad, cm, bound)
            assert (type(verdict), str(verdict)) == (type(expected), str(expected))
        block = f"block {bad.block_index}: {expected}"
        assert outcome(decrypt, bad, key) == (type(expected), block)
        assert outcome(decrypt, dataclasses.replace(bad), key) == (type(expected), block)
    assert {1, 2} <= {rows for rows, _ in seen}
    assert NonIntegralPlaintext in {error for _, error in seen} or abs(cm.det) == 1


class TestRecordedOutcomes:
    """Repair outcomes on seeded corpora, pinned to the values the code gave
    when they were recorded.  A change to correction that moves any of them
    must say which outcomes it changed, and why, before updating these.
    Per corpus, DIGEST hashes the report fields its test lists, OUTCOMES the
    same fields but candidates_examined, and EXAMINED totals that count, so
    a change that only examines fewer candidates moves DIGEST and EXAMINED
    and must leave OUTCOMES as it is."""

    TALLY = {
        "single": 73, "diagonal": 76, "anti-diagonal": 69, "column-left": 84,
        "column-right": 56, "row-top": 65, "row-bottom": 86, "ambiguous": 3,
    }
    DIGEST = "16d3642f44920301c3241e51b0bb5c790e25735c5cc10bcd04830bd5d36c93f9"
    OUTCOMES = "b192af0631da6217b805a85bed418565bc086c7f2c3c00849646457035eab8c1"
    EXAMINED = 1_181

    def test_random_n100_corpus(self):
        rng = random.Random(100)
        digest, outcomes, tally, examined = hashlib.sha256(), hashlib.sha256(), {}, 0
        for _ in range(64):
            key = random_cipher_key(rng, n_lo=100, n_hi=100)
            for _ in range(8):
                pkg = encrypt(random_plaintext(rng, alphabet_size=256), key,
                              emit_column_ratio=True)
                bad, _ = corrupt_package(pkg, CorruptionSpec("random", seed=rng.randrange(2**30)))
                r = correct(bad, key, plaintext_bound=256)
                fields = (
                    r.assumed_class.value, r.candidates_examined,
                    r.repaired and r.repaired.entries(), r.position, r.residual_failure,
                    r.ambiguous, r.attempts,
                )
                digest.update(repr(fields).encode())
                outcomes.update(repr(fields[:1] + fields[2:]).encode())
                examined += r.candidates_examined
                outcome = r.assumed_class.value if r.success else (
                    "ambiguous" if r.ambiguous else "uncorrectable")
                tally[outcome] = tally.get(outcome, 0) + 1
        assert tally == self.TALLY
        assert outcomes.hexdigest() == self.OUTCOMES
        assert examined == self.EXAMINED
        assert digest.hexdigest() == self.DIGEST

    # The same fields over small keys: golden n 1..10, cat n 1..6 and the tiny
    # keys of TestPairAgainstBruteForce, at bounds None, 3 and 26, without a
    # column ratio and with 2 digits, in each of the seven corruption modes.
    SMALL_DIGEST = "669ac0a8fae05c92334f840a996415920e27d7a8199c79431fe502bb03932683"
    SMALL_OUTCOMES = "deadf75b8da84e5f994fd58a218f92161698a5a6e8d590490742071adcd99b37"
    SMALL_EXAMINED = 12_678

    def test_small_key_corpus(self):
        rng = random.Random(110)
        keys = [CipherKey.golden(n) for n in range(1, 11)]
        keys += [CipherKey.arnolds_cat(n) for n in range(1, 7)]
        keys += [tiny_key(rng, rng.randint(1, 3)) for _ in range(24)]
        digest, outcomes, seen, examined = hashlib.sha256(), hashlib.sha256(), set(), 0
        for k, key in enumerate(keys):
            tiny = k >= 16
            for bound in (None, 3, 26):
                size = 3 if tiny or bound == 3 else 26
                for with_ratio in (False, True):
                    for mode in ENTRY_MODES:
                        pkg = encrypt(random_plaintext(rng, alphabet_size=size), key,
                                      emit_column_ratio=with_ratio)
                        bad, _ = corrupt_package(pkg, CorruptionSpec(mode, rng.randrange(2**30)))
                        r = correct(bad, key, plaintext_bound=bound)
                        fields = (
                            r.assumed_class.value, r.candidates_examined,
                            r.repaired and r.repaired.entries(), r.position,
                            r.residual_failure, r.ambiguous, r.attempts,
                        )
                        digest.update(repr(fields).encode())
                        outcomes.update(repr(fields[:1] + fields[2:]).encode())
                        examined += r.candidates_examined
                        seen.update(reason for _, reason in r.attempts)
                        # weight 2 opens with the diagonal class, whose top rows are the
                        # points of the line keeping c12; a weight-2 tie that logs fewer
                        # than its six classes stopped at its second candidate
                        m, weight_two = key.coding_matrix.matrix, len(r.attempts) > 2
                        if weight_two and len(_points(m.a12, m.a22, bad.c.a12, bound) or ()) > 1:
                            seen.add("multi-point line")
                        if weight_two and r.ambiguous and len(r.attempts) < 8 \
                                and "tie" in r.residual_failure:
                            seen.add("stopped tie")
        assert {"multi-point line", "search-range-too-wide", "column-ratio-missing",
                "stopped tie"} <= seen
        assert outcomes.hexdigest() == self.SMALL_OUTCOMES
        assert examined == self.SMALL_EXAMINED
        assert digest.hexdigest() == self.SMALL_DIGEST
