import itertools
import random
import time

import pytest

from unicipher import attacks
from unicipher.attacks import (
    UNIT_PROBE,
    EncryptionOracle,
    ParamBox,
    ResistanceStats,
    attack_golden,
    attack_k_golden,
    measure_unimodular_resistance,
)
from unicipher.cipher import CipherKey
from unicipher.errors import NoMatchInBounds, NotGoldenOracle
from unicipher.matrix import Mat2
from unicipher.sampling import random_cipher_key


def k_sequence(k, count):
    seq = [0, 1]
    while len(seq) < count:
        seq.append(k * seq[-1] + seq[-2])
    return seq


def brute_force_resistance(oracle, box, queries, cap):
    """Reference for measure_unimodular_resistance: M(n) = U**n @ M(0) by Mat2.__pow__."""
    observed = [oracle.query(p) for p in queries]
    counts = [0] * len(queries)
    enumerated = 0
    for alpha, beta, gamma, delta, a0, b0 in itertools.product(
        box.alphas, box.betas, box.gammas, box.deltas, box.seeds_a, box.seeds_b
    ):
        u = Mat2(alpha, beta, gamma, delta)
        if u.det() not in (1, -1):
            continue
        m0 = Mat2(alpha * a0 + beta * b0, a0, gamma * a0 + delta * b0, b0)
        for n in sorted(set(box.exponents)):
            if enumerated >= cap:
                return ResistanceStats(tuple(counts), enumerated, True)
            enumerated += 1
            m = (u ** n) @ m0
            for q, (probe, want) in enumerate(zip(queries, observed)):
                if probe @ m != want:
                    break
                counts[q] += 1
    return ResistanceStats(tuple(counts), enumerated, False)


def counting_oracle(key):
    """An oracle for key that records every plaintext it is asked to encrypt."""
    inner = EncryptionOracle.from_key(key)
    calls = []
    return EncryptionOracle(lambda p: calls.append(p) or inner.query(p)), calls


class TestGoldenAttack:
    def test_unit_probe_exposes_coding_row(self):
        oracle = EncryptionOracle.from_key(CipherKey.golden(10))
        c = oracle.query(UNIT_PROBE)
        assert (c.a11, c.a12) == (89, 55)
        assert (c.a21, c.a22) == (0, 0)

    def test_recovers_n_ten(self):
        oracle, calls = counting_oracle(CipherKey.golden(10))
        result = attack_golden(oracle)
        assert result.n == 10 and result.matched_pair == (89, 55)
        assert calls == [UNIT_PROBE]

    def test_n_one_resolves_to_smallest(self):
        result = attack_golden(EncryptionOracle.from_key(CipherKey.golden(1)))
        assert result.n == 1 and result.matched_pair == (1, 1)

    def test_cat_oracle_is_not_golden(self):
        oracle = EncryptionOracle.from_key(CipherKey.arnolds_cat(4))
        assert oracle.query(UNIT_PROBE).rows()[0] == (55, 21)
        with pytest.raises(NotGoldenOracle):
            attack_golden(oracle)

    def test_every_exponent_in_range(self):
        for n in range(2, 61):
            result = attack_golden(EncryptionOracle.from_key(CipherKey.golden(n)))
            assert result.n == n

    def test_is_the_k1_scan(self):
        oracle = EncryptionOracle.from_key(CipherKey.golden(23))
        assert attack_golden(oracle) == attack_k_golden(oracle, k_max=1)

    def test_miss_stops_early(self, monkeypatch):
        # the top row of the cat key passes the Fibonacci pairs after a few
        # dozen steps, so a miss must not walk on to n_max
        pairs = 0
        walk = attacks.coding_entries

        def counting_entries(*args):
            nonlocal pairs
            for entries in walk(*args):
                pairs += 1
                yield entries

        monkeypatch.setattr(attacks, "coding_entries", counting_entries)
        oracle = EncryptionOracle.from_key(CipherKey.arnolds_cat(9))
        with pytest.raises(NotGoldenOracle):
            attack_golden(oracle, n_max=100_000)
        assert 0 < pairs <= 30


class TestKGoldenAttack:
    def test_k2_n3(self):
        seq = k_sequence(2, 6)
        assert seq[:5] == [0, 1, 2, 5, 12]
        result = attack_k_golden(EncryptionOracle.from_key(CipherKey.k_golden(2, 3)))
        assert (result.k, result.n) == (2, 3)
        assert result.matched_pair == (12, 5)

    def test_k1_matches_golden(self):
        oracle = EncryptionOracle.from_key(CipherKey.golden(9))
        assert attack_k_golden(oracle).n == attack_golden(oracle).n == 9

    def test_unimodular_oracle_defeats_it(self):
        oracle = EncryptionOracle.from_key(CipherKey.arnolds_cat(4))
        with pytest.raises(NoMatchInBounds):
            attack_k_golden(oracle, k_max=10, n_max=50)

    def test_grid_sweep(self):
        for k in range(1, 8):
            for n in (2, 5, 11):
                oracle = EncryptionOracle.from_key(CipherKey.k_golden(k, n))
                result = attack_k_golden(oracle)
                assert (result.k, result.n) == (k, n)

    def test_miss_walks_at_most_two_sequences(self, monkeypatch):
        # the top row's quotient leaves two candidate k, however large k_max is
        walks = 0
        walk = attacks.coding_entries

        def counting_entries(*args):
            nonlocal walks
            walks += 1
            yield from walk(*args)

        monkeypatch.setattr(attacks, "coding_entries", counting_entries)
        oracle = EncryptionOracle.from_key(CipherKey.arnolds_cat(9))
        with pytest.raises(NoMatchInBounds):
            attack_k_golden(oracle, k_max=10**6)
        assert 0 < walks <= 2

    def test_matches_ascending_k_scan(self):
        # reference: every (k, n) of the k-sequences up to the largest bounds,
        # listed in ascending k, then n; the first within bounds is the answer
        k_top, n_top = 20, 29
        matches = {}
        for k in range(1, k_top + 1):
            seq = k_sequence(k, n_top + 2)
            for n in range(n_top + 1):
                matches.setdefault((seq[n + 1], seq[n]), []).append((k, n))
        rng = random.Random(17)
        rows = {(x, y) for x in range(-3, 40) for y in range(-3, 20)} | set(matches)
        for _ in range(40):
            c = random_cipher_key(rng, n_lo=1, n_hi=12).coding_matrix.matrix
            rows.add((c.a11, c.a12))
        for row in sorted(rows):
            oracle = EncryptionOracle(lambda p, c=Mat2(row[0], row[1], 0, 0): c)
            for k_max in (0, 1, 2, 7, k_top):
                for n_max in (0, 1, 9, n_top):
                    want = next((kn for kn in matches.get(row, ())
                                 if kn[0] <= k_max and kn[1] <= n_max), None)
                    try:
                        result = attack_k_golden(oracle, k_max=k_max, n_max=n_max)
                        got = (result.k, result.n)
                    except NoMatchInBounds:
                        got = None
                    assert got == want, (row, k_max, n_max)


class TestUnimodularResistance:
    def test_seeded_keys_yield_failures_not_wrong_answers(self):
        rng = random.Random(31337)
        for _ in range(40):
            key = random_cipher_key(rng, n_lo=2, n_hi=20, allow_bare_power=False)
            assert key.u.m.a22 >= 1
            oracle = EncryptionOracle.from_key(key)
            with pytest.raises(NotGoldenOracle):
                attack_golden(oracle, n_max=80)
            with pytest.raises(NoMatchInBounds):
                attack_k_golden(oracle, k_max=10, n_max=60)

    def test_golden_box_pins_one_candidate(self):
        oracle = EncryptionOracle.from_key(CipherKey.golden(10))
        box = ParamBox((1,), (1,), (1,), (0,), (0,), (1,), range(0, 41))
        stats = measure_unimodular_resistance(oracle, box)
        assert stats.consistent_counts == (1,)
        assert not stats.truncated

    def test_empty_box(self):
        oracle = EncryptionOracle.from_key(CipherKey.golden(4))
        box = ParamBox((), (1,), (1,), (0,), (0,), (1,), range(4))
        stats = measure_unimodular_resistance(oracle, box)
        assert stats.consistent_counts == (0,)
        assert stats.enumerated == 0

    def test_wider_box_is_a_measurement(self):
        key = CipherKey.arnolds_cat(4)
        oracle = EncryptionOracle.from_key(key)
        box = ParamBox(range(1, 4), range(0, 3), range(0, 3), range(0, 3),
                       range(0, 3), range(1, 3), range(1, 7))
        stats = measure_unimodular_resistance(oracle, box)
        assert stats.consistent_counts[0] >= 1  # the true key is in the box
        assert stats.enumerated > 0

    def test_second_query_narrows(self):
        key = CipherKey.arnolds_cat(4)
        oracle = EncryptionOracle.from_key(key)
        probes = (UNIT_PROBE, Mat2(0, 0, 1, 0))
        box = ParamBox(range(0, 4), range(0, 4), range(0, 4), range(0, 4),
                       range(0, 3), range(0, 3), range(1, 7))
        stats = measure_unimodular_resistance(oracle, box, queries=probes)
        assert stats.consistent_counts[1] <= stats.consistent_counts[0]
        assert stats.consistent_counts[1] >= 1

    def test_cap_truncates(self):
        oracle = EncryptionOracle.from_key(CipherKey.arnolds_cat(4))
        box = ParamBox(range(0, 6), range(0, 6), range(0, 6), range(0, 6),
                       range(0, 6), range(0, 6), range(1, 9))
        stats = measure_unimodular_resistance(oracle, box, cap=500)
        assert stats.truncated
        assert stats.enumerated >= 500

    def test_cap_bounds_the_work_on_a_wide_box(self):
        # 80**4 multipliers: listing every det +/-1 one first would take seconds
        oracle = EncryptionOracle.from_key(CipherKey.arnolds_cat(4))
        side = range(80)
        box = ParamBox(side, side, side, side, range(3), range(3), range(1, 9))
        start = time.perf_counter()
        stats = measure_unimodular_resistance(oracle, box, cap=5)
        assert time.perf_counter() - start < 1.0
        assert stats.enumerated == 5 and stats.truncated

    # 5 distinct exponents per seeded multiplier: a cap of 272 stops partway
    # through one, after the first keys consistent with all three probes
    @pytest.mark.parametrize("cap", [10_000_000, 272])
    def test_matches_brute_force_reference(self, cap):
        oracle = EncryptionOracle.from_key(CipherKey.arnolds_cat(3))
        probes = (UNIT_PROBE, Mat2(0, 0, 1, 0), Mat2(1, 1, 0, 0))
        box = ParamBox(range(0, 3), range(0, 3), range(0, 3), range(0, 3),
                       range(0, 2), range(0, 2), (5, 0, 3, 3, 1, 2, 0))
        stats = measure_unimodular_resistance(oracle, box, queries=probes, cap=cap)
        assert stats == brute_force_resistance(oracle, box, probes, cap)
        assert stats.truncated == (cap == 272)
        assert stats.consistent_counts[2] >= 1

    @staticmethod
    def random_box(rng):
        """Small box that often holds a golden or cat key: axes sometimes
        empty, exponents unsorted and repeated."""
        def axis():
            return rng.sample(range(3), rng.choices(range(4), weights=(1, 3, 6, 10))[0])

        exponents = [rng.randint(0, 6) for _ in range(rng.choice((0, 1, 4, 8)))]
        return ParamBox(*(axis() for _ in range(6)), exponents)

    def test_matches_brute_force_on_random_boxes(self):
        rng = random.Random(2025)
        probes = (UNIT_PROBE, Mat2(0, 0, 1, 0), Mat2(1, 1, 0, 0))
        seen = {"no unit": 0, "no exponent": 0, "capped": 0, "consistent": 0}
        for _ in range(320):
            key = rng.choice((CipherKey.golden, CipherKey.arnolds_cat))(rng.randint(1, 6))
            oracle = EncryptionOracle.from_key(key)
            box = self.random_box(rng)
            queries = probes[: rng.randint(1, 3)]
            total = brute_force_resistance(oracle, box, queries, 10**9).enumerated
            cap = rng.randint(0, total + 1)
            stats = measure_unimodular_resistance(oracle, box, queries, cap)
            assert stats == brute_force_resistance(oracle, box, queries, cap), (box, cap)
            seen["no unit"] += not any(
                a * d - b * c in (1, -1) for a, b, c, d in
                itertools.product(box.alphas, box.betas, box.gammas, box.deltas)
            )
            seen["no exponent"] += not box.exponents
            seen["capped"] += stats.truncated
            seen["consistent"] += stats.consistent_counts[-1] > 0
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("box", [
        ParamBox((2,), (2,), (1,), (1,), range(3), range(3), range(1, 9)),  # det 0
        ParamBox(range(0, 6, 2), (2,), (2,), range(0, 6, 2), (0,), (1,), (3,)),  # even det
        ParamBox((), (1,), (1,), (1,), (0,), (1,), (3,)),
        ParamBox((2,), (1,), (1,), (1,), (), (1,), (3,)),
        ParamBox((2,), (1,), (1,), (1,), (0,), (1,), ()),
    ], ids=["det-0", "even-det", "no-alpha", "no-seed-a", "no-exponent"])
    def test_box_with_nothing_to_weigh_makes_no_query(self, box):
        oracle, calls = counting_oracle(CipherKey.arnolds_cat(3))
        probes = (UNIT_PROBE, Mat2(0, 0, 1, 0))
        stats = measure_unimodular_resistance(oracle, box, probes)
        assert stats == ResistanceStats((0, 0), 0, False)
        assert calls == []

    @pytest.mark.parametrize("cap", [0, 1, 10_000_000])
    def test_admissible_box_queries_each_probe_once(self, cap):
        oracle, calls = counting_oracle(CipherKey.arnolds_cat(3))
        probes = (UNIT_PROBE, Mat2(0, 0, 1, 0), Mat2(1, 1, 0, 0))
        box = ParamBox(range(3), range(3), range(3), range(3), range(2), range(2), (3, 1))
        stats = measure_unimodular_resistance(oracle, box, probes, cap)
        assert calls == list(probes)
        assert stats.truncated == (cap < 10_000_000)

    def test_negative_exponent_rejected(self):
        oracle = EncryptionOracle.from_key(CipherKey.golden(1))
        admissible = ParamBox((1,), (1,), (1,), (0,), (0,), (1,), (-1, 0))
        inadmissible = ParamBox((2,), (2,), (1,), (1,), (0,), (1,), (3, -2))
        for box in (admissible, inadmissible):
            with pytest.raises(ValueError, match="exponents must be non-negative, got -"):
                measure_unimodular_resistance(oracle, box)
