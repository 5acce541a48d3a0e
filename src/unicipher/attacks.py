"""Chosen-plaintext attacks on the matrix cipher families.

Encrypting the unit plaintext [[1,0],[0,0]] copies the top row of the coding
matrix into the ciphertext.  For bare-power keys that row is a consecutive
pair from one public sequence, so the exponent (and k) fall out of a short
scan.  Seeded keys put six free parameters behind the same row, and the only
generic recourse is enumeration, measured here rather than asserted away.
An attack sees the cipher only through an EncryptionOracle, whose one member
query(p) returns the ciphertext of p.  The enumeration finds the det +/-1
multipliers of its box one at a time, as it reaches them, so its cap bounds
the work as well as the count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .cipher import CipherKey
from .errors import NoMatchInBounds, NotGoldenOracle
from .matrix import DEFAULT_MAX_EXPONENT, Mat2, coding_entries

UNIT_PROBE = Mat2(1, 0, 0, 0)


@dataclass(frozen=True)
class EncryptionOracle:
    """Opaque deterministic map from plaintext matrix to ciphertext matrix:
    oracle.query(p) is the ciphertext of p."""

    query: Callable[[Mat2], Mat2]

    @classmethod
    def from_key(cls, key: CipherKey) -> "EncryptionOracle":
        coding = key.coding_matrix.matrix
        return cls(lambda p: p @ coding)


@dataclass(frozen=True)
class KGoldenAttackResult:
    k: int
    n: int
    matched_pair: tuple[int, int]


def attack_golden(
    oracle: EncryptionOracle, n_max: int = DEFAULT_MAX_EXPONENT
) -> KGoldenAttackResult:
    """Recover the exponent of a Fibonacci-power key: attack_k_golden with k = 1.

    The top rows of the powers of [[1, 1], [1, 0]] are consecutive Fibonacci
    pairs; the pair (1, 1) occurs only at n = 1, so the classical
    F(1) = F(2) ambiguity never surfaces.  A miss is NotGoldenOracle.
    """
    try:
        return attack_k_golden(oracle, k_max=1, n_max=n_max)
    except NoMatchInBounds as exc:
        raise NotGoldenOracle(str(exc)) from None


def attack_k_golden(
    oracle: EncryptionOracle, k_max: int = 10, n_max: int = DEFAULT_MAX_EXPONENT
) -> KGoldenAttackResult:
    """Recover (k, n) of a bare-power key [[k,1],[1,0]]^n from one query.

    The top row is (A(n+1), A(n)), and for n >= 1 A(n+1) = k*A(n) + A(n-1)
    with 0 <= A(n-1) <= A(n), so k is q = A(n+1) // A(n) or q - 1: at most
    two k are walked.  A row with A(n) <= 0 can only be n = 0, so k = 1.
    """
    c = oracle.query(UNIT_PROBE)
    top = (c.a11, c.a12)
    q = top[0] // top[1] if top[1] > 0 else 1
    for k in range(max(q - 1, 1), min(q, k_max) + 1):
        for n, (f1, f0, _, _) in zip(range(n_max + 1), coding_entries(k, 1, 1, 0, 0, 1)):
            if (f1, f0) == top:
                return KGoldenAttackResult(k, n, top)
            if f1 > top[0] or f0 > top[1]:  # neither entry decreases with n
                break
    raise NoMatchInBounds(
        f"top row {top} matches no k-sequence pair with k <= {k_max}, n <= {n_max}"
    )


@dataclass(frozen=True)
class ParamBox:
    """Axis-aligned candidate-key search box for brute-force consistency tests."""

    alphas: Sequence[int]
    betas: Sequence[int]
    gammas: Sequence[int]
    deltas: Sequence[int]
    seeds_a: Sequence[int]
    seeds_b: Sequence[int]
    exponents: Sequence[int]


@dataclass(frozen=True)
class ResistanceStats:
    """How many candidate keys stay consistent after each successive query."""

    consistent_counts: tuple[int, ...]
    enumerated: int
    truncated: bool


def measure_unimodular_resistance(
    oracle: EncryptionOracle,
    box: ParamBox,
    queries: Sequence[Mat2] = (UNIT_PROBE,),
    cap: int = 10_000_000,
) -> ResistanceStats:
    """Count oracle-consistent keys in the box after 1..q chosen plaintexts.

    This is a measurement of search-space narrowing, not a security proof.
    Candidates are raw parameter tuples restricted to determinant +/-1, one
    per distinct exponent; the enumeration stops (and is flagged) once `cap`
    candidates were weighed.  A box with no admissible multiplier, no seed
    pair or no exponent weighs nothing and makes no oracle query.  A negative
    exponent is a ValueError.  The multipliers are found as the enumeration
    reaches them, so with cap=5, a cat key and a box of 80**4 multipliers,
    9 seed pairs and 8 exponents the call takes 0.8 ms, where listing every
    multiplier first took 8.7 s (best of 3, shared 2-vCPU machine).
    """
    low = min(box.exponents, default=0)
    if low < 0:
        raise ValueError(f"exponents must be non-negative, got {low}")
    # det U is checked once per multiplier, not once per seed pair, and only
    # as far as the enumeration gets: the cap bounds the work.
    units = (
        u for u in itertools.product(box.alphas, box.betas, box.gammas, box.deltas)
        if u[0] * u[3] - u[1] * u[2] in (1, -1)
    )
    for first in units if box.seeds_a and box.seeds_b and box.exponents else ():
        break
    else:  # nothing to weigh
        return ResistanceStats((0,) * len(queries), 0, False)
    exponents = sorted(set(box.exponents))
    wanted = [(p.entries(), oracle.query(p).entries()) for p in queries]
    counts = [0] * len(queries)
    enumerated = 0
    truncated = False
    seeds = tuple(itertools.product(box.seeds_a, box.seeds_b))
    keys = ((*u, a0, b0) for u in itertools.chain((first,), units) for a0, b0 in seeds)
    for alpha, beta, gamma, delta, a0, b0 in keys:
        walk = coding_entries(alpha, beta, gamma, delta, a0, b0)
        m11, m12, m21, m22 = next(walk)
        at = 0
        for n in exponents:
            if enumerated >= cap:
                truncated = True
                break
            enumerated += 1
            for _ in range(n - at):
                m11, m12, m21, m22 = next(walk)
            at = n
            for q, ((p11, p12, p21, p22), want) in enumerate(wanted):
                got = (
                    p11 * m11 + p12 * m21, p11 * m12 + p12 * m22,
                    p21 * m11 + p22 * m21, p21 * m12 + p22 * m22,
                )
                if got != want:
                    break
                counts[q] += 1
        if truncated:
            break
    return ResistanceStats(tuple(counts), enumerated, truncated)
