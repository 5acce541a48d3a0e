import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicipher.cipher import CipherKey, PlaintextMatrix, encrypt
from unicipher.errors import ComplexFixedPoints, DivisionByZeroInOrbit
from unicipher.matrix import Mat2
from unicipher.ratios import (
    ConvergenceMode,
    FixedPoints,
    RatioParams,
    convergence_profile,
    exponential_rate,
    ratio_orbit,
    round_half_even_ratio,
)
from unicipher.sampling import random_cipher_key, random_plaintext

from test_kernel import row_interval

TAU = (1 + math.sqrt(5)) / 2


class TestFixedPoints:
    def test_cat_value(self):
        fp = FixedPoints(3, 1)
        assert abs(fp.phi_plus - (3 + math.sqrt(5)) / 2) < 1e-15
        assert abs(fp.phi_plus - (1 + TAU)) < 1e-12

    def test_golden_value(self):
        fp = FixedPoints(1, -1)
        assert abs(fp.phi_plus - TAU) < 1e-15
        assert abs(fp.phi_minus - (1 - TAU)) < 1e-15

    def test_double_root(self):
        fp = FixedPoints(2, 1)
        assert fp.phi_plus == fp.phi_minus == 1.0
        assert fp.compare_plus(Fraction(1)) == 0

    def test_complex_roots_rejected(self):
        with pytest.raises(ComplexFixedPoints):
            FixedPoints(1, 1)
        with pytest.raises(ComplexFixedPoints):
            RatioParams(1, 1, Fraction(1))

    def test_ratio_params_hold_one_fixed_points(self):
        params = RatioParams(3, 1, Fraction(10))
        assert params.fixed is params.fixed
        assert params.fixed == FixedPoints(3, 1)
        assert params == RatioParams(3, 1, Fraction(10)) and "fixed" not in repr(params)

    @given(st.integers(-20, 20), st.integers(-20, 20))
    def test_roots_satisfy_polynomial(self, t, d):
        if t * t < 4 * d:
            with pytest.raises(ComplexFixedPoints):
                FixedPoints(t, d)
            return
        fp = FixedPoints(t, d)
        for root in (fp.phi_plus, fp.phi_minus):
            assert abs(root * root - t * root + d) < 1e-9 * max(1.0, root * root)
        assert abs(fp.phi_plus * fp.phi_minus - d) < 1e-9 * max(1, abs(d))
        assert abs(fp.phi_plus + fp.phi_minus - t) < 1e-12 * max(1, abs(t))

    @given(st.integers(-20, 20), st.integers(-20, 20), st.fractions())
    def test_exact_comparisons_agree_with_floats(self, t, d, q):
        if t * t < 4 * d:
            return
        fp = FixedPoints(t, d)
        fq = float(q)
        for cmp, ref in ((fp.compare_plus(q), fp.phi_plus), (fp.compare_minus(q), fp.phi_minus)):
            if abs(fq - ref) > 1e-6 * max(1.0, abs(fq), abs(ref)):
                assert cmp == (1 if fq > ref else -1)

    def test_decimal_expansion(self):
        # 15 digits of the golden ratio
        assert FixedPoints(1, -1).phi_plus_decimal(15) == "1.618033988749894"
        assert FixedPoints(3, 1).phi_plus_decimal(12) == "2.618033988749"


class TestRatioIteration:
    def test_cat_orbit(self):
        orbit = tuple(itertools.islice(ratio_orbit(RatioParams(3, 1, Fraction(1))), 4))
        assert orbit == (1, 2, Fraction(5, 2), Fraction(13, 5))

    def test_fixed_point_is_constant(self):
        orbit = tuple(itertools.islice(ratio_orbit(RatioParams(2, 1, Fraction(1))), 6))
        assert set(orbit) == {Fraction(1)}

    def test_fibonacci_ratio_orbit(self):
        orbit = tuple(itertools.islice(ratio_orbit(RatioParams(1, -1, Fraction(1))), 5))
        assert orbit == (1, 2, Fraction(3, 2), Fraction(5, 3), Fraction(8, 5))

    def test_orbit_hitting_zero_raises(self):
        # 3 - 2 / (2/3) = 0
        with pytest.raises(DivisionByZeroInOrbit):
            list(itertools.islice(ratio_orbit(RatioParams(3, 2, Fraction(2, 3))), 3))

    def test_zero_start_rejected(self):
        with pytest.raises(ValueError):
            RatioParams(3, 1, Fraction(0))


class TestConvergenceProfile:
    def test_decreasing_from_above(self):
        profile = convergence_profile(RatioParams(3, 1, Fraction(10)), 40)
        assert profile.mode is ConvergenceMode.MONOTONE_DECREASING
        assert profile.errors[-1] < 1e-12

    def test_increasing_from_between(self):
        profile = convergence_profile(RatioParams(3, 1, Fraction(1)), 40)
        assert profile.mode is ConvergenceMode.MONOTONE_INCREASING

    @pytest.mark.parametrize("a0,steps,mode", [
        (Fraction(2), 8, ConvergenceMode.MONOTONE_DECREASING),  # at phi+
        (Fraction(1), 8, ConvergenceMode.DIVERGENT),  # at phi-
    ])
    def test_constant_orbits(self, a0, steps, mode):
        profile = convergence_profile(RatioParams(3, 2, a0), steps)
        assert len(set(profile.orbit)) == 1 and len(profile.orbit) == steps + 1
        assert profile.mode is mode

    @pytest.mark.parametrize("steps", (-1, 0, 1, 2))
    def test_refuses_fewer_than_three_steps(self, steps):
        # (3, 2) from 3/2, between the fixed points, and the golden orbit from
        # 3/2, which alternates but reads monotone or divergent this early
        for params in (RatioParams(3, 2, Fraction(3, 2)), RatioParams(1, -1, Fraction(3, 2))):
            with pytest.raises(ValueError, match=f"at least 3 steps, got {steps}"):
                convergence_profile(params, steps)
        profile = convergence_profile(RatioParams(1, -1, Fraction(3, 2)), 3)
        assert profile.mode is ConvergenceMode.ALTERNATING_SPLIT

    def test_alternating_split(self):
        profile = convergence_profile(RatioParams(1, -1, Fraction(3)), 40)
        assert profile.mode is ConvergenceMode.ALTERNATING_SPLIT
        evens, odds = profile.orbit[0::2], profile.orbit[1::2]
        assert all(b < a for a, b in zip(evens, evens[1:]))
        assert all(b > a for a, b in zip(odds, odds[1:]))

    def test_mixed_orbit_that_settles_is_divergent(self):
        # 1/4, -1, 4, 11/4, 29/11, ...: the jump through 0 leaves the even
        # terms neither rising nor falling, though the orbit then settles on phi+
        profile = convergence_profile(RatioParams(3, 1, Fraction(1, 4)), 8)
        assert profile.orbit[:5] == (Fraction(1, 4), -1, 4, Fraction(11, 4), Fraction(29, 11))
        assert profile.mode is ConvergenceMode.DIVERGENT
        assert profile.errors[-1] < profile.errors[4] < 0.02

    @given(st.integers(0, 10**9))
    @settings(max_examples=150, deadline=None)
    def test_matches_theorem_classes(self, seed):
        rng = random.Random(seed)
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
        assert convergence_profile(RatioParams(t, d, a0), 48).mode is expected

    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_decay_is_geometric_for_trace_three_plus(self, seed):
        rng = random.Random(seed)
        d = rng.choice((1, -1))
        t = rng.randint(3, 12)
        a0 = Fraction(rng.randint(1, 400), rng.randint(1, 40)) + 1
        profile = convergence_profile(RatioParams(t, d, a0), 48)
        rate = exponential_rate(profile.errors[1:])
        assert rate < 1.0


class TestRowRatioInterval:
    """The interval of M(n)'s row ratios as (num, den) pairs, low first (row_interval)."""

    def test_golden_n10(self):
        assert row_interval(CipherKey.golden(10).coding_matrix.matrix) == ((55, 34), (89, 55))

    def test_cat_interval_is_sorted(self):
        assert row_interval(CipherKey.arnolds_cat(4).coding_matrix.matrix) == ((34, 13), (55, 21))

    def test_single_point_interval(self):
        import warnings

        from unicipher.matrix import KeyMatrix, SeedPair, build_coding_matrix

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            identity_key = KeyMatrix(Mat2(1, 0, 0, 1))
        lo, hi = row_interval(build_coding_matrix(identity_key, SeedPair(2, 3), 4).matrix)
        assert Fraction(*lo) == Fraction(*hi) == 1

    @given(st.integers(0, 10**9))
    @settings(max_examples=150, deadline=None)
    def test_mediant_property(self, seed):
        # every honest ciphertext row ratio lies inside the closed interval
        rng = random.Random(seed)
        key = random_cipher_key(rng, n_lo=2, n_hi=24)
        p = random_plaintext(rng)
        lo, hi = (Fraction(*b) for b in row_interval(key.coding_matrix.matrix))
        c = p.p @ key.coding_matrix.matrix
        for c1, c2 in c.rows():
            assert lo <= Fraction(c1, c2) <= hi


class TestColumnRatio:
    """The paper's column ratios, bottom over top (c21/c11, c22/c12) unless named."""

    def test_final_example_values(self):
        c11, c12, c21, c22 = 1450, 554, 733, 280
        assert abs(float(Fraction(c21, c11)) - 0.5055) < 5e-4
        assert abs(float(Fraction(c22, c12)) - 0.5054) < 5e-4

    def test_top_over_bottom_examples(self):
        # first-column ratios c11/c21 of C1 = [[251, 96], [128, 49]] and C2 = [[1761, 673], [128, 49]]
        m3 = CipherKey.arnolds_cat(3).coding_matrix.matrix
        c1, c2 = Mat2(7, 8, 3, 5) @ m3, Mat2(56, 45, 3, 5) @ m3
        assert (c1, c2) == (Mat2(251, 96, 128, 49), Mat2(1761, 673, 128, 49))
        assert round(float(Fraction(c1.a11, c1.a21)), 2) == 1.96
        assert round(float(Fraction(c2.a11, c2.a21)), 1) == 13.8

    def test_closeness_shrinks_with_exponent(self):
        # |c21/c11 - c22/c12| = |det P| / (c11 * c12) decays as entries grow
        p = PlaintextMatrix(Mat2(14, 20, 9, 7))
        gaps = []
        for n in range(2, 21):
            c = encrypt(p, CipherKey.arnolds_cat(n)).c
            gaps.append(abs(Fraction(c.a21, c.a11) - Fraction(c.a22, c.a12)))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < Fraction(1, 10**10)


class TestRounding:
    def test_half_even(self):
        assert round_half_even_ratio(733, 1450, 2) == "0.51"
        assert round_half_even_ratio(1, 8, 2) == "0.12"
        assert round_half_even_ratio(3, 8, 2) == "0.38"
        assert round_half_even_ratio(-733, 1450, 2) == "-0.51"
        assert round_half_even_ratio(733, -1450, 2) == "-0.51"
        assert round_half_even_ratio(5, 2, 0) == "2"
        assert round_half_even_ratio(7, 2, 0) == "4"

    @given(st.fractions(), st.integers(0, 6))
    def test_round_trip_error_is_at_most_half_ulp(self, value, digits):
        text = round_half_even_ratio(value.numerator, value.denominator, digits)
        assert abs(Fraction(text) - value) <= Fraction(1, 2 * 10**digits)
