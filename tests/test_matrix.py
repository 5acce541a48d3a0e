import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicipher.cipher import CipherKey
from unicipher.errors import DegenerateConvergenceWarning, InvalidKey
from unicipher.matrix import (
    DEFAULT_MAX_EXPONENT,
    FORWARD_BITS,
    FORWARD_MIN_BITS,
    KeyMatrix,
    Mat2,
    SeedPair,
    build_coding_matrix,
    coding_entries,
    line_step,
)
from unicipher.sampling import random_cipher_key, random_key_matrix, random_seed_pair

from test_kernel import row_interval


# --- independent oracles -----------------------------------------------------

def naive_mul(x: Mat2, y: Mat2) -> Mat2:
    xr, yr = x.rows(), y.rows()
    out = [[sum(xr[i][k] * yr[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    return Mat2(*out[0], *out[1])


def naive_pow(x: Mat2, n: int) -> Mat2:
    out = Mat2(1, 0, 0, 1)
    for _ in range(n):
        out = naive_mul(out, x)
    return out


def fibonacci(count: int) -> list[int]:
    seq = [0, 1]
    while len(seq) < count:
        seq.append(seq[-1] + seq[-2])
    return seq


small_entries = st.integers(min_value=-999, max_value=999)
small_mats = st.builds(Mat2, small_entries, small_entries, small_entries, small_entries)


def seeded_key(seed: int, **kwargs) -> KeyMatrix:
    return random_key_matrix(random.Random(seed), **kwargs)


# --- Mat2 arithmetic ---------------------------------------------------------

class TestMat2:
    def test_mul_matches_worked_example(self):
        p = Mat2(12, 0, 19, 7)
        q10 = Mat2(89, 55, 55, 34)
        assert p @ q10 == Mat2(1068, 660, 2076, 1283)

    def test_mul_identity(self):
        x = Mat2(4, 7, 2, 6)
        assert x @ Mat2(1, 0, 0, 1) == x
        assert Mat2(1, 0, 0, 1) @ x == x

    def test_mul_square(self):
        cat = Mat2(2, 1, 1, 1)
        assert cat @ cat == naive_mul(cat, cat) == Mat2(5, 3, 3, 2)

    @given(small_mats, small_mats)
    def test_mul_matches_naive_oracle(self, x, y):
        assert x @ y == naive_mul(x, y)

    def test_det_examples(self):
        assert Mat2(12, 0, 19, 7).det() == 84
        assert Mat2(1, 0, 0, 1).det() == 1
        assert Mat2(770, 294, 1846, 705).det() == 126

    @given(small_mats, small_mats)
    def test_det_is_multiplicative(self, x, y):
        assert (x @ y).det() == x.det() * y.det()

    @given(small_mats)
    def test_adjugate_identity(self, x):
        d = x.det()
        assert x @ x.adjugate() == Mat2(d, 0, 0, d)

    def test_pow_examples(self):
        q = Mat2(1, 1, 1, 0)
        assert q ** 10 == Mat2(89, 55, 55, 34)
        assert Mat2(3, 9, 2, 5) ** 0 == Mat2(1, 0, 0, 1)
        assert Mat2(2, 1, 1, 1) ** 4 == naive_pow(Mat2(2, 1, 1, 1), 4) == Mat2(34, 21, 21, 13)
        # long bit patterns: all ones below the top bit (255, 511) and a lone top bit (256, 512)
        for x in (q, Mat2(2, 1, 1, 1)):
            for n in (255, 256, 511, 512):
                assert x ** n == naive_pow(x, n)

    @given(small_mats, st.integers(min_value=0, max_value=9))
    def test_pow_matches_naive_oracle(self, x, n):
        assert x ** n == naive_pow(x, n)

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            Mat2(1, 0, 0, 1) ** -1

    def test_matmul_needs_a_matrix(self):
        with pytest.raises(TypeError):
            Mat2(1, 0, 0, 1) @ 3

    def test_entries_must_be_int(self):
        with pytest.raises(TypeError):
            Mat2(1.5, 0, 0, 1)
        with pytest.raises(TypeError):
            Mat2(True, 0, 0, 1)


class FormattedInt(int):
    """An int that prints as text no JSON reader accepts, as the canonical writer formats it."""

    def __format__(self, spec):
        return 'x"y'


@pytest.mark.parametrize("make", [lambda v: Mat2(v, 2, 3, 4), lambda v: SeedPair(v, 1)],
                         ids=["Mat2", "SeedPair"])
def test_only_plain_ints_are_accepted(make):
    assert make(5) == make(5)
    for bad in (FormattedInt(5), True):
        with pytest.raises(TypeError):
            make(bad)


@pytest.mark.parametrize("make", [
    lambda n: Mat2(2, 1, 1, 1) ** n,
    lambda n: build_coding_matrix(KeyMatrix(Mat2(2, 1, 1, 1)), SeedPair(0, 1), n),
    lambda n: CipherKey.arnolds_cat(n),
], ids=["Mat2.__pow__", "build_coding_matrix", "CipherKey"])
def test_exponents_follow_the_plain_int_rule(make):
    assert make(3) == make(3)
    for bad in (FormattedInt(3), True, 3.0):
        with pytest.raises(TypeError):
            make(bad)


# --- bare-power classification ----------------------------------------------

class TestPowerForm:
    def test_examples(self):
        # the shape [[k, 1], [1, 0]] is admitted where the det -1 rule (trace > 2,
        # both diagonal entries >= 1) refuses: trace 1, and a zero diagonal entry
        assert KeyMatrix(Mat2(1, 1, 1, 0)).m.trace() == 1
        assert KeyMatrix(Mat2(3, 1, 1, 0)).m.a22 == 0
        # off that shape the det rules decide: det +1 with trace > 2 passes
        # silently, and det -1 with trace 2 is refused, though its top-left
        # entry of 1 would pass the shape's own rule
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert KeyMatrix(Mat2(2, 1, 1, 1)).m.det() == 1
            assert KeyMatrix(Mat2(3, 1, 2, 1)).m.det() == 1
        with pytest.raises(InvalidKey, match="det -1 keys need"):
            KeyMatrix(Mat2(1, 1, 2, 1))

    @given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
    def test_shifted_column_structure_forces_the_form(self, a, b, c, d):
        # if u^2 carries u's first column in its second, u is [[a, 1], [c, 0]] or singular
        u = Mat2(a, b, c, d)
        sq = u @ u
        if sq.a12 == u.a11 and sq.a22 == u.a21:
            assert (u.a12 == 1 and u.a22 == 0) or u.det() == 0


# --- key admissibility --------------------------------------------------------

class TestKeyMatrix:
    def test_rejects_non_unimodular(self):
        with pytest.raises(InvalidKey):
            KeyMatrix(Mat2(2, 0, 0, 1))

    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidKey):
            KeyMatrix(Mat2(2, -1, -1, 1))

    def test_rejects_low_trace_det_minus_one(self):
        with pytest.raises(InvalidKey):
            KeyMatrix(Mat2(1, 2, 1, 1))  # det -1, trace 2

    def test_bare_power_family_is_admissible(self):
        assert KeyMatrix(Mat2(1, 1, 1, 0)).m.det() == -1
        assert KeyMatrix(Mat2(7, 1, 1, 0)).m.det() == -1

    def test_bare_power_needs_positive_alpha(self):
        with pytest.raises(InvalidKey):
            KeyMatrix(Mat2(0, 1, 1, 0))

    def test_trace_two_warns(self):
        with pytest.warns(DegenerateConvergenceWarning):
            KeyMatrix(Mat2(1, 1, 0, 1))

    def test_cat_matrix_is_silent(self):
        key = KeyMatrix(Mat2(2, 1, 1, 1))
        assert key.m.trace() == 3 and key.m.det() == 1


class TestSeedPair:
    def test_rejects_negative_and_all_zero(self):
        with pytest.raises(InvalidKey):
            SeedPair(-1, 1)
        with pytest.raises(InvalidKey):
            SeedPair(0, 0)


# --- coding matrices -----------------------------------------------------------

class TestCodingMatrices:
    def test_golden_examples(self):
        fib = fibonacci(14)
        golden = {n: CipherKey.golden(n).coding_matrix.matrix for n in (1, 6, 10)}
        assert golden[10] == Mat2(89, 55, 55, 34)
        assert golden[1] == Mat2(1, 1, 1, 0)
        n = 6
        assert golden[n] == Mat2(fib[n + 1], fib[n], fib[n], fib[n - 1])
        assert golden[n] == Mat2(13, 8, 8, 5)

    def test_golden_det_alternates(self):
        for n in range(1, 31):
            cm = CipherKey.golden(n).coding_matrix
            assert cm.matrix.det() == (-1) ** n == cm.det

    def test_k_golden_examples(self):
        def k_golden(k, n):
            return CipherKey.k_golden(k, n).coding_matrix.matrix

        assert k_golden(1, 10) == CipherKey.golden(10).coding_matrix.matrix
        assert k_golden(2, 2) == Mat2(2, 1, 1, 0) @ Mat2(2, 1, 1, 0) == Mat2(5, 2, 2, 1)
        assert k_golden(3, 1) == Mat2(3, 1, 1, 0)

    def test_k_golden_rejects_bad_arguments(self):
        with pytest.raises(InvalidKey):
            CipherKey.k_golden(0, 3)
        with pytest.raises(InvalidKey):
            CipherKey.k_golden(2, 0)

    def test_build_cat_example(self):
        # A: 0,1,3,8,21,55  B: 1,1,2,5,13,34 under t=3, d=1
        cat = KeyMatrix(Mat2(2, 1, 1, 1))
        cm = build_coding_matrix(cat, SeedPair(0, 1), 4)
        a = [0, 1]
        b = [1, 1]
        for _ in range(4):
            a.append(3 * a[-1] - a[-2])
            b.append(3 * b[-1] - b[-2])
        assert cm.matrix == Mat2(a[5], a[4], b[5], b[4]) == Mat2(55, 21, 34, 13)

    def test_build_n_zero_gives_seed_matrix(self):
        cat = KeyMatrix(Mat2(2, 1, 1, 1))
        cm = build_coding_matrix(cat, SeedPair(3, 4), 0)
        assert cm.matrix == Mat2(2 * 3 + 4, 3, 3 + 4, 4)

    def test_build_cat_n3(self):
        cat = KeyMatrix(Mat2(2, 1, 1, 1))
        assert build_coding_matrix(cat, SeedPair(0, 1), 3).matrix == Mat2(21, 8, 13, 5)

    def test_exponent_cap(self):
        cat = KeyMatrix(Mat2(2, 1, 1, 1))
        with pytest.raises(InvalidKey):
            build_coding_matrix(cat, SeedPair(1, 1), DEFAULT_MAX_EXPONENT + 1)
        build_coding_matrix(cat, SeedPair(1, 1), DEFAULT_MAX_EXPONENT)

    def test_mu_examples(self):
        # det M(0) = A(1)*B(0) - A(0)*B(1)
        cat = KeyMatrix(Mat2(2, 1, 1, 1))
        assert build_coding_matrix(cat, SeedPair(0, 1), 0).det == 1
        assert build_coding_matrix(cat, SeedPair(1, 1), 0).det == (2 - 1) * 1 + 1 - 1 == 1
        u = KeyMatrix(Mat2(3, 2, 4, 3))
        assert build_coding_matrix(u, SeedPair(2, 3), 0).det == 0 * 6 + 2 * 9 - 4 * 4
        assert build_coding_matrix(u, SeedPair(2, 3), 5).det == 2 * u.m.det() ** 5

    @pytest.mark.parametrize(
        "u, seed",
        [
            ((1, 1, 1, 0), (0, 1)),  # golden
            ((3, 1, 1, 0), (0, 1)),  # k-golden, k = 3
            ((2, 1, 1, 1), (0, 1)),  # Arnold's cat
            ((2, 1, 3, 1), (2, 3)),  # det -1
            ((3, 2, 4, 3), (5, 0)),  # zero-component seed
        ],
        ids=["golden", "k_golden_3", "cat", "det_minus_1", "zero_seed"],
    )
    def test_build_equals_coding_entries_walk(self, u, seed):
        # The walk is the independent reference: M(n) by the recurrence, one
        # step at a time, for every exponent up to the cap.
        key, sp = KeyMatrix(Mat2(*u)), SeedPair(*seed)
        seed_det = build_coding_matrix(key, sp, 0).det
        walk = coding_entries(*u, *seed)
        for n, entries in zip(range(DEFAULT_MAX_EXPONENT + 1), walk):
            cm = build_coding_matrix(key, sp, n)
            assert cm.matrix == Mat2(*entries)
            assert cm.matrix.det() == seed_det * key.m.det() ** n == cm.det

    @given(st.integers(0, 10**9), st.integers(min_value=0, max_value=64))
    @settings(max_examples=120, deadline=None)
    def test_shift_matrix_representation(self, seed, n):
        # M(n) = M0 @ S^n with S = [[t, 1], [-d, 0]] reproduces U^n @ M0 exactly
        rng = random.Random(seed)
        key = random_key_matrix(rng)
        sp = random_seed_pair(rng)
        m0 = build_coding_matrix(key, sp, 0).matrix
        lhs = m0 @ (Mat2(key.m.trace(), 1, -key.m.det(), 0) ** n)
        assert lhs == build_coding_matrix(key, sp, n).matrix

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_recurrence_invariant(self, seed):
        rng = random.Random(seed)
        key = random_key_matrix(rng)
        sp = random_seed_pair(rng)
        t, d = key.m.trace(), key.m.det()
        for n in rng.sample(range(1, 40), 5):
            cur = build_coding_matrix(key, sp, n)
            prev = build_coding_matrix(key, sp, n - 1)
            assert cur.matrix.a11 == t * cur.matrix.a12 - d * prev.matrix.a12
            assert cur.matrix.a21 == t * cur.matrix.a22 - d * prev.matrix.a22


def assert_view_matches_matrix(cm):
    """The stored det, adjugate and forward table, recomputed from the entries,
    and the row-ratio interval of the entries."""
    m = cm.matrix
    assert cm.det == m.det()
    assert cm.adj == m.adjugate().entries()
    if cm.det and max(m.entries()).bit_length() > FORWARD_MIN_BITS:
        s, mask, k11, k12, k21, k22, lim = cm.forward
        # det = 2^s * odd, and k * odd = adj mod 2^(FORWARD_BITS + s)
        odd, modulus = cm.det // 2**s, 2 ** (FORWARD_BITS + s)
        assert cm.det % 2**s == 0 and odd % 2 == 1 and mask == modulus - 1
        k = (k11, k12, k21, k22)
        assert all(0 <= ki < modulus and (ki * odd - e) % modulus == 0 for ki, e in zip(k, cm.adj))
        # the first column of M(n) is (A(n+1), B(n+1))
        assert lim == min(m.a11, m.a21) * 2**FORWARD_BITS
    else:
        assert cm.forward is None
    if m.a12 <= 0 or m.a22 <= 0:
        assert row_interval(m) is None
        return
    (lo_num, lo_den), (hi_num, hi_den) = row_interval(m)
    assert lo_den > 0 and hi_den > 0
    interval = sorted((Fraction(m.a11, m.a12), Fraction(m.a21, m.a22)))
    assert [Fraction(lo_num, lo_den), Fraction(hi_num, hi_den)] == interval


class TestStoredView:
    @given(st.integers(0, 10**9))
    @settings(max_examples=120, deadline=None)
    def test_random_keys(self, seed):
        rng = random.Random(seed)
        assert_view_matches_matrix(random_cipher_key(rng, n_lo=1, n_hi=64).coding_matrix)
        # seeds with a zero component give non-positive entries at small n
        key, a0 = random_key_matrix(rng), rng.randint(0, 1)
        sp = SeedPair(a0, rng.randint(1 - a0, 3))
        for n in range(4):
            assert_view_matches_matrix(build_coding_matrix(key, sp, n))

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_big_keys(self, seed):
        key = random_cipher_key(random.Random(seed), n_lo=100, n_hi=500)
        assert_view_matches_matrix(key.coding_matrix)

    def test_forward_table_needs_big_entries(self):
        # golden entries pass FORWARD_MIN_BITS at n = 370 (257 bits)
        assert CipherKey.golden(369).coding_matrix.forward is None
        cm = CipherKey.golden(370).coding_matrix
        assert cm.forward[:2] == (0, 2**FORWARD_BITS - 1)
        assert_view_matches_matrix(cm)
        cm = build_coding_matrix(KeyMatrix(Mat2(2, 1, 1, 1)), SeedPair(0, 1), 500)
        assert cm.forward[:2] == (0, 2**FORWARD_BITS - 1)
        # an even det: seed (0, 2**64) on the cat key gives det M(n) = 2**128,
        # so s = 128 and the table works mod 2**192
        cm = build_coding_matrix(KeyMatrix(Mat2(2, 1, 1, 1)), SeedPair(0, 2**64), 500)
        assert cm.det == 2**128 and cm.forward[:2] == (128, 2 ** (FORWARD_BITS + 128) - 1)
        assert_view_matches_matrix(cm)
        # a negative det: seed (1, 0) on [[3, 2], [1, 1]] gives det M(n) = -1
        cm = build_coding_matrix(KeyMatrix(Mat2(3, 2, 1, 1)), SeedPair(1, 0), 500)
        assert cm.det == -1 and cm.forward[0] == 0
        assert_view_matches_matrix(cm)

    def test_golden_n1_has_no_bounds(self):
        cm = CipherKey.golden(1).coding_matrix
        assert row_interval(cm.matrix) is None
        assert_view_matches_matrix(cm)


def test_column_lines_are_gcd_step_and_inverse():
    """column_lines holds, per column (a, b) of M(n), g = gcd(a, b), m = b/g
    and the inverse of a/g mod m, with m and the inverse None when b = 0
    (the right column of golden n = 1 is (1, 0))."""
    rng = random.Random(23)
    keys = [CipherKey.golden(1), CipherKey(KeyMatrix(Mat2(2, 1, 1, 1)), SeedPair(2, 4), 7)]
    for n in (1, 2, 3, 10, 57, 100):
        keys += [CipherKey.golden(n), CipherKey.arnolds_cat(n)]
        keys += [random_cipher_key(rng, n_lo=n, n_hi=n) for _ in range(6)]
    zero_steps = gcd_above_one = 0
    for key in keys:
        cm = key.coding_matrix
        m11, m12, m21, m22 = cm.matrix.entries()
        assert len(cm.column_lines) == 2
        for (a, b), (g, m, inv) in zip(((m11, m21), (m12, m22)), cm.column_lines):
            assert g == math.gcd(a, b) and (g, m, inv) == line_step(a, b)
            gcd_above_one += g > 1
            if b == 0:
                zero_steps += 1
                assert m is None and inv is None
            else:
                assert m == b // g and inv == pow(a // g, -1, m)
                assert 0 <= inv < m and (a // g * inv - 1) % m == 0
    assert CipherKey.golden(1).coding_matrix.column_lines[1] == (1, None, None)
    assert zero_steps and gcd_above_one


def test_random_cipher_key_is_always_admissible():
    rng = random.Random(7)
    for _ in range(200):
        key = random_cipher_key(rng)
        assert key.u.m.det() in (1, -1)
        assert key.coding_matrix.det != 0
