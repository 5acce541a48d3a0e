"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Randomized criteria use
fixed seeds, so every number below is reproducible.
"""

import random
import time
from fractions import Fraction

from unicipher.attacks import EncryptionOracle, attack_golden, attack_k_golden
from unicipher.channel import CorruptionSpec, corrupt_package
from unicipher.cipher import (
    CipherKey,
    CipherPackage,
    ColumnRatioCheck,
    PlaintextMatrix,
    decrypt,
    encrypt,
    verify_package,
    VerifyStatus,
)
from unicipher.correction import ErrorClass, _points, correct
from unicipher.errors import NoMatchInBounds, NotGoldenOracle
from unicipher.matrix import Mat2, build_coding_matrix
from unicipher.ratios import (
    ConvergenceMode,
    FixedPoints,
    RatioParams,
    convergence_profile,
    exponential_rate,
    round_half_even_ratio,
)
from unicipher.sampling import (
    random_cipher_key,
    random_key_matrix,
    random_plaintext,
    random_seed_pair,
)

SUITE_SEED = 20260809


def conclude(label: str, failures: list[str], elapsed: float | None = None) -> None:
    status = "PASS" if not failures else "FAIL"
    timing = f"  [{elapsed:.3f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {label}: {status}{timing}")
    assert not failures, "; ".join(failures)


def check(failures: list[str], condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def test_criterion_01_basic_replay():
    failures: list[str] = []

    def run_once() -> float:
        start = time.perf_counter()
        key = CipherKey.golden(10)
        pkg = encrypt(PlaintextMatrix(Mat2(12, 0, 19, 7)), key)
        plain = decrypt(pkg, key)
        elapsed = time.perf_counter() - start
        check(failures, pkg.c == Mat2(1068, 660, 2076, 1283), f"ciphertext {pkg.c}")
        check(failures, pkg.det_p == 84, f"check number {pkg.det_p}")
        check(failures, pkg.c.det() == 84, "ciphertext determinant must equal 84")
        check(failures, plain.p == Mat2(12, 0, 19, 7), f"decryption {plain.p}")
        return elapsed

    best = min(run_once() for _ in range(20))
    check(failures, best < 1e-3, f"best runtime {best * 1e3:.3f} ms >= 1 ms")
    conclude("1 (encrypt/decrypt replay, golden n=10)", failures, best)


def test_criterion_02_single_error_replay():
    failures: list[str] = []
    key = CipherKey.arnolds_cat(4)
    received = CipherPackage(Mat2(770, 494, 1846, 705), 126)
    outcome = verify_package(received, key)
    check(failures, outcome.status is VerifyStatus.BOTH, f"verify status {outcome.status}")
    check(failures, outcome.bad_rows == frozenset({0}), f"flagged rows {set(outcome.bad_rows)}")
    # first candidate: solving for the top-left entry gives 912050/705, not an
    # integer; its value ~1294 sits beside the ratio estimate phi*494 ~ 1293
    numerator = 126 + 494 * 1846
    check(failures, numerator == 912050, f"determinant solve numerator {numerator}")
    check(failures, numerator % 705 != 0, "first candidate should fail divisibility")
    phi = FixedPoints(key.u.m.trace(), key.u.m.det()).phi_plus
    check(failures, round(phi * 494) == 1293, "ratio estimate")
    report = correct(received, key)
    check(failures, report.assumed_class is ErrorClass.SINGLE, f"class {report.assumed_class}")
    check(failures, report.position == (0, 1), f"position {report.position}")
    check(failures, report.candidates_examined == 2, f"candidates {report.candidates_examined}")
    check(failures, report.repaired == Mat2(770, 294, 1846, 705), f"repair {report.repaired}")
    plain = decrypt(CipherPackage(report.repaired, 126), key)
    check(failures, plain.p == Mat2(14, 0, 28, 9), f"plaintext {plain.p}")
    check(failures, plain.p.det() == 126, "repaired plaintext determinant")
    conclude("2 (single-error replay, cat n=4)", failures)


def test_criterion_03_row_family_table():
    failures: list[str] = []
    points = _points(162, -263, -440, 1349)
    check(failures, len(points) == 6, f"{len(points)} points, expected 6")
    check(failures, points[0] == (33, 22), f"base {points[0]}")
    step = (points[1][0] - points[0][0], points[1][1] - points[0][1])
    check(failures, step == (263, 162), f"step {step}")
    check(failures, points[-1] == (1348, 832), f"last point {points[-1]}")
    table = ["1.50000", "1.60870", "1.61561", "1.61811", "1.61940", "1.62019"]
    ratios = []
    for k, (x, y) in enumerate(points):
        check(failures, 162 * x - 263 * y == -440, f"k={k} does not satisfy the equation")
        ratio = Fraction(x, y)
        ratios.append(ratio)
        shown = round_half_even_ratio(x, y, 5)
        check(failures, shown == table[k], f"k={k} ratio {shown} != {table[k]}")
    # the k=3 ratio hugs the fixed point tighter than the true k=1 solution:
    # with r1 < tau < r3, r3 is closer iff the midpoint sits below tau
    golden = FixedPoints(1, -1)
    midpoint = (ratios[1] + ratios[3]) / 2
    check(failures, golden.compare_plus(ratios[1]) < 0 < golden.compare_plus(ratios[3]),
          "ratios should straddle the fixed point")
    check(failures, golden.compare_plus(midpoint) < 0, "k=3 should sit closer than k=1")
    conclude("3 (row Diophantine family and its misleading ratios)", failures)


def test_criterion_04_bounds_example():
    failures: list[str] = []
    # a 26-letter block's largest ciphertext entries: 25 * the column sums of M(4)
    m11, m12, m21, m22 = CipherKey.arnolds_cat(4).coding_matrix.matrix.entries()
    (xlo, xhi), (ylo, yhi) = (0, 25 * (m11 + m21)), (0, 25 * (m12 + m22))
    check(failures, (xlo, xhi) == (0, 2225), f"x range ({xlo}, {xhi})")
    check(failures, (ylo, yhi) == (0, 850), f"y range ({ylo}, {yhi})")
    feasible = _points(172, -450, 176, xhi + 1, (0, 1, ylo, yhi))
    check(failures, len(feasible) == 10, f"{len(feasible)} feasible members, expected 10")
    conclude("4 (alphabet bounds leave ten candidates)", failures)


def test_criterion_05_row_repairs_with_column_ratio():
    failures: list[str] = []
    # bottom row intact, top row lost; a one-digit ratio picks the member
    golden_pkg = CipherPackage(
        Mat2(9999, 9999, 263, 162), -440, ColumnRatioCheck("0.9")
    )
    report = correct(golden_pkg, CipherKey.golden(6))
    check(failures, report.assumed_class is ErrorClass.ROW_TOP, f"class {report.assumed_class}")
    check(failures, report.repaired == Mat2(296, 184, 263, 162), f"golden repair {report.repaired}")

    cat_key = CipherKey.arnolds_cat(4)
    cat_pkg = CipherPackage(
        Mat2(1325, 321, 733, 280), -82, ColumnRatioCheck("0.5")
    )
    report = correct(cat_pkg, cat_key)
    check(failures, report.repaired == Mat2(1450, 554, 733, 280), f"cat repair {report.repaired}")
    attempts = dict(report.attempts)
    check(failures, attempts.get("single") == "no-single-candidate",
          "single-error methods should fail first")
    check(failures, attempts.get("row-top") == "repaired", "row strategy should win")
    # 280 * 1450 - 733 * 554 = -82 exactly: the 554 (not 544) ending survives
    check(failures, 280 * 1450 - 733 * 554 == -82, "determinant identity for (1450, 554)")
    check(failures, 280 * 1450 - 733 * 544 != -82, "the 544 variant fails the identity")
    plain = decrypt(CipherPackage(report.repaired, -82), cat_key)
    check(failures, plain.p == Mat2(14, 20, 9, 7), f"decrypted plaintext {plain.p}")
    conclude("5 (row repairs guided by the column ratio)", failures)


def test_criterion_06_column_ratio_examples():
    failures: list[str] = []
    m3 = CipherKey.arnolds_cat(3).coding_matrix.matrix
    check(failures, m3 == Mat2(21, 8, 13, 5), f"coding matrix {m3}")
    c1 = PlaintextMatrix(Mat2(7, 8, 3, 5)).p @ m3
    c2 = PlaintextMatrix(Mat2(56, 45, 3, 5)).p @ m3
    check(failures, c1 == Mat2(251, 96, 128, 49), f"C1 {c1}")
    check(failures, c2 == Mat2(1761, 673, 128, 49), f"C2 {c2}")
    r1 = Fraction(c1.a11, c1.a21)  # first-column ratio, top over bottom
    r2 = Fraction(c2.a11, c2.a21)
    shown1 = round_half_even_ratio(c1.a11, c1.a21, 2)
    shown2 = round_half_even_ratio(c2.a11, c2.a21, 1)
    check(failures, shown1 == "1.96", f"C1 ratio displays as {float(r1):.4f}")
    check(failures, shown2 == "13.8", f"C2 ratio displays as {float(r2):.4f}")
    check(failures, abs(float(r1) - 1.96) / 1.96 <= 0.01, f"C1 ratio {float(r1):.4f}")
    check(failures, abs(float(r2) - 13.8) / 13.8 <= 0.01, f"C2 ratio {float(r2):.4f}")
    conclude("6 (column ratios 1.96 and 13.8)", failures)


def test_criterion_07_convergence_properties():
    failures: list[str] = []
    start = time.perf_counter()
    rng = random.Random(SUITE_SEED)
    lambda_samples = 0
    for _ in range(200):
        d = rng.choice((1, -1))
        if d == 1:
            t = rng.randint(2, 12)
            fp = FixedPoints(t, d)
            while True:
                a0 = Fraction(rng.randint(1, 400), rng.randint(1, 40))
                if fp.compare_minus(a0) > 0:
                    break
            expected = (
                ConvergenceMode.MONOTONE_DECREASING
                if fp.compare_plus(a0) >= 0
                else ConvergenceMode.MONOTONE_INCREASING
            )
        else:
            t = rng.randint(1, 12)
            a0 = Fraction(rng.randint(1, 400), rng.randint(1, 40))
            expected = ConvergenceMode.ALTERNATING_SPLIT
        profile = convergence_profile(RatioParams(t, d, a0), 48)
        check(failures, profile.mode is expected,
              f"(t={t}, d={d}, a0={a0}) got {profile.mode}, expected {expected}")
        if t >= 3:
            lambda_samples += 1
            rate = exponential_rate(profile.errors[1:])
            check(failures, rate < 1.0, f"(t={t}, d={d}, a0={a0}) rate {rate}")
    elapsed = time.perf_counter() - start
    check(failures, lambda_samples >= 50, f"only {lambda_samples} geometric-decay samples")
    check(failures, elapsed < 5.0, f"runtime {elapsed:.2f}s >= 5s")
    conclude("7 (convergence classes and geometric decay, 200 samples)", failures)


def test_criterion_08_roundtrip_invariants():
    failures: list[str] = []
    start = time.perf_counter()
    rng = random.Random(SUITE_SEED)
    for i in range(1000):
        key = random_cipher_key(rng, n_lo=1, n_hi=24)
        p = random_plaintext(rng)
        pkg = encrypt(p, key, emit_column_ratio=(i % 2 == 0))
        if pkg.c.det() != key.coding_matrix.det * p.p.det():
            failures.append(f"trial {i}: determinant identity broken")
            break
        if decrypt(pkg, key).p != p.p:
            failures.append(f"trial {i}: roundtrip broken")
            break
        if not verify_package(pkg, key).clean:
            failures.append(f"trial {i}: clean package flagged")
            break
    elapsed = time.perf_counter() - start
    check(failures, elapsed < 10.0, f"runtime {elapsed:.2f}s >= 10s")
    conclude("8 (1000 roundtrip/check-number trials)", failures)


def _correction_trials(mode: str, trials: int, with_rho: bool, seed: int):
    rng = random.Random(seed)
    exact = wrong = reported = 0
    for _ in range(trials):
        key = random_cipher_key(rng, n_lo=4, n_hi=24)
        p = random_plaintext(rng)
        pkg = encrypt(p, key, emit_column_ratio=with_rho, ratio_digits=2)
        bad, _ = corrupt_package(pkg, CorruptionSpec(mode, seed=rng.randrange(2**30)))
        report = correct(bad, key, plaintext_bound=26)
        if report.success:
            if report.repaired == pkg.c:
                exact += 1
            else:
                wrong += 1
        else:
            reported += 1
    return exact, wrong, reported


def test_criterion_09_correction_suite():
    failures: list[str] = []
    start = time.perf_counter()
    trials = 1000
    for mode in ("single", "diagonal", "antidiagonal", "column_left", "column_right"):
        exact, wrong, reported = _correction_trials(mode, trials, True, SUITE_SEED)
        print(f"  {mode:13s}: exact {exact}/{trials}, wrong {wrong}, reported {reported}")
        check(failures, wrong == 0, f"{mode}: {wrong} silent wrong repairs")
        check(failures, exact >= trials * 0.99, f"{mode}: recovery {exact}/{trials}")
    # the two row examples must repair exactly (checked in criterion 5 too)
    report = correct(
        CipherPackage(Mat2(1325, 321, 733, 280), -82,
                      ColumnRatioCheck("0.5")),
        CipherKey.arnolds_cat(4),
    )
    check(failures, report.repaired == Mat2(1450, 554, 733, 280), "cat row example")
    report = correct(
        CipherPackage(Mat2(9999, 9999, 263, 162), -440,
                      ColumnRatioCheck("0.9")),
        CipherKey.golden(6),
    )
    check(failures, report.repaired == Mat2(296, 184, 263, 162), "golden row example")
    for mode in ("row_top", "row_bottom"):
        exact, wrong, reported = _correction_trials(mode, trials, True, SUITE_SEED)
        rate = exact / trials
        print(f"  {mode:13s}: measured recovery rate {rate:.1%} "
              f"(exact {exact}, wrong {wrong}, reported {reported})")
        check(failures, rate >= 0.95, f"{mode}: recovery rate {rate:.1%} < 95%")
        check(failures, wrong == 0, f"{mode}: {wrong} silent wrong repairs")
    for mode in ("row_top", "row_bottom"):
        exact, wrong, reported = _correction_trials(mode, trials, False, SUITE_SEED + 1)
        print(f"  {mode:13s} (no ratio): wrong {wrong}, reported {reported}")
        check(failures, wrong == 0, f"{mode} without ratio: {wrong} silent wrong repairs")
    elapsed = time.perf_counter() - start
    check(failures, elapsed < 60.0, f"runtime {elapsed:.2f}s >= 60s")
    conclude("9 (seeded correction trials, 1000 per class)", failures, elapsed)


def test_criterion_10_attack_suite():
    failures: list[str] = []
    start = time.perf_counter()
    for n in range(2, 61):
        # the paper's claim: one chosen plaintext recovers the exponent
        queried = []
        inner = EncryptionOracle.from_key(CipherKey.golden(n))
        result = attack_golden(EncryptionOracle(lambda p: queried.append(p) or inner.query(p)))
        check(failures, result.n == n and len(queried) == 1, f"golden n={n} missed")
    for k in range(1, 11):
        for n in range(2, 41):
            oracle = EncryptionOracle.from_key(CipherKey.k_golden(k, n))
            result = attack_k_golden(oracle, k_max=10, n_max=60)
            check(failures, (result.k, result.n) == (k, n), f"k-sequence ({k}, {n}) missed")
    rng = random.Random(SUITE_SEED)
    for i in range(100):
        key = random_cipher_key(rng, n_lo=2, n_hi=20, allow_bare_power=False)
        oracle = EncryptionOracle.from_key(key)
        try:
            got = attack_golden(oracle, n_max=80)
            failures.append(f"oracle {i}: golden attack claimed n={got.n}")
        except NotGoldenOracle:
            pass
        try:
            got = attack_k_golden(oracle, k_max=10, n_max=60)
            failures.append(f"oracle {i}: k attack claimed {(got.k, got.n)}")
        except NoMatchInBounds:
            pass
    elapsed = time.perf_counter() - start
    check(failures, elapsed < 30.0, f"runtime {elapsed:.2f}s >= 30s")
    conclude("10 (attack recovery and resistance)", failures, elapsed)


def test_criterion_11_structure_theorems():
    failures: list[str] = []
    start = time.perf_counter()
    matched = 0
    for a in range(7):
        for b in range(7):
            for c in range(7):
                for d in range(7):
                    u = Mat2(a, b, c, d)
                    sq = u @ u
                    if sq.a12 == u.a11 and sq.a22 == u.a21:
                        matched += 1
                        # only [[a, 1], [c, 0]] or a singular u tiles its own square
                        check(
                            failures,
                            (u.a12 == 1 and u.a22 == 0) or u.det() == 0,
                            f"{u} tiles its square but is neither bare-power nor singular",
                        )
    check(failures, matched >= 49, f"sweep matched only {matched} matrices")
    rng = random.Random(SUITE_SEED)
    for _ in range(500):
        key = random_key_matrix(rng)
        seed_pair = random_seed_pair(rng)
        n = rng.randint(0, 32)
        m0 = build_coding_matrix(key, seed_pair, 0).matrix
        lhs = m0 @ (Mat2(key.m.trace(), 1, -key.m.det(), 0) ** n)
        rhs = (key.m ** n) @ m0
        if lhs != rhs:
            failures.append(f"shift representation broke for {key.m}, n={n}")
            break
        if rhs != build_coding_matrix(key, seed_pair, n).matrix:
            failures.append(f"recurrence disagrees with power form for {key.m}, n={n}")
            break
    elapsed = time.perf_counter() - start
    check(failures, elapsed < 10.0, f"runtime {elapsed:.2f}s >= 10s")
    conclude("11 (structure sweep and shift representation)", failures, elapsed)
