"""Seeded random generators for keys, plaintexts, and trial harnesses.

Used by the randomized test suites and the experiment scripts; everything is
driven by a caller-supplied random.Random so runs are reproducible.
"""

from __future__ import annotations

import random

from .cipher import CipherKey, PlaintextMatrix
from .matrix import KeyMatrix, Mat2, SeedPair


def _divisor_pairs(n: int) -> list[tuple[int, int]]:
    pairs = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            pairs.append((d, n // d))
            if d != n // d:
                pairs.append((n // d, d))
        d += 1
    return pairs


def random_key_matrix(
    rng: random.Random, max_entry: int = 12, allow_bare_power: bool = True
) -> KeyMatrix:
    """Admissible key matrix with small entries.

    General-form keys are built by picking the diagonal and factoring the
    off-diagonal product the determinant demands; that keeps the trace out
    of the linear-convergence zone by construction.
    """
    if allow_bare_power and rng.random() < 0.25:
        return KeyMatrix(Mat2(rng.randint(1, max_entry), 1, 1, 0))
    d = rng.choice((1, -1))
    while True:
        alpha = rng.randint(1, max_entry)
        delta = rng.randint(1, max_entry)
        if d == -1 and alpha + delta <= 2:
            continue
        product = alpha * delta - d
        if product < 1:
            continue
        beta, gamma = rng.choice(_divisor_pairs(product))
        return KeyMatrix(Mat2(alpha, beta, gamma, delta))


def random_seed_pair(rng: random.Random) -> SeedPair:
    """Seed (a0, b0) with both components drawn uniformly from 1..20, a0 first."""
    return SeedPair(rng.randint(1, 20), rng.randint(1, 20))


def random_cipher_key(
    rng: random.Random, n_lo: int = 1, n_hi: int = 24, allow_bare_power: bool = True
) -> CipherKey:
    u = random_key_matrix(rng, allow_bare_power=allow_bare_power)
    seed = random_seed_pair(rng)
    perm = list(range(4))
    rng.shuffle(perm)
    return CipherKey(u, seed, rng.randint(n_lo, n_hi), tuple(perm))


def random_plaintext(rng: random.Random, alphabet_size: int = 26) -> PlaintextMatrix:
    """Block with entries drawn uniformly from 0..alphabet_size-1, each row
    keeping at least one nonzero (unless alphabet_size is 1)."""
    def row():
        while True:
            r = (rng.randrange(alphabet_size), rng.randrange(alphabet_size))
            if r != (0, 0) or alphabet_size == 1:
                return r

    (a, b), (c, d) = row(), row()
    return PlaintextMatrix(Mat2(a, b, c, d))
