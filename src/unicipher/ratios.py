"""Ratio dynamics of the coding sequences.

Successive-term ratios obey a(n+1) = t - d / a(n).  Their fixed points, how
fast orbits settle onto the larger one, and the exact half-even rounding of
the transmitted column ratio live here; the row-ratio interval of a coding
matrix is a sign test in cipher.verify_package.  Anything that gates
correctness runs on exact rationals; floats appear only in estimates and
display.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import ComplexFixedPoints, DivisionByZeroInOrbit

# exponential_rate skips steps whose error is this small: float underflow, not a rate.
_RATE_FLOOR = 1e-250


class ConvergenceMode(Enum):
    MONOTONE_DECREASING = "monotone-decreasing"
    MONOTONE_INCREASING = "monotone-increasing"
    ALTERNATING_SPLIT = "alternating-split"
    DIVERGENT = "divergent"


@dataclass(frozen=True)
class FixedPoints:
    """Roots (t +/- sqrt(t^2 - 4d)) / 2 of x^2 - t*x + d.

    Held as the exact surd (t, discriminant); float views are derived.
    Rational comparisons are decided by sign analysis of (2q - t)^2 against
    the discriminant, never through floats.  Complex roots (t^2 < 4d) are
    ComplexFixedPoints.
    """

    t: int
    d: int

    def __post_init__(self):
        if self.discriminant < 0:
            raise ComplexFixedPoints(f"x^2 - {self.t}x + {self.d} has no real roots")

    @property
    def discriminant(self) -> int:
        return self.t * self.t - 4 * self.d

    @property
    def phi_plus(self) -> float:
        return (self.t + math.sqrt(self.discriminant)) / 2.0

    @property
    def phi_minus(self) -> float:
        return (self.t - math.sqrt(self.discriminant)) / 2.0

    def compare_plus(self, q) -> int:
        """Sign of q - phi_plus for rational q, computed exactly."""
        r = 2 * Fraction(q) - self.t
        if r < 0:
            return -1
        lhs, rhs = r * r, self.discriminant
        return (lhs > rhs) - (lhs < rhs)

    def compare_minus(self, q) -> int:
        """Sign of q - phi_minus for rational q, computed exactly: phi_plus +
        phi_minus = t, so q - phi_minus = -((t - q) - phi_plus)."""
        return -self.compare_plus(self.t - Fraction(q))

    def phi_plus_decimal(self, digits: int = 15) -> str:
        """phi_plus truncated to `digits` decimal places via integer sqrt."""
        scale = 10 ** digits
        root = math.isqrt(self.discriminant * scale * scale)
        return _fixed_point((self.t * scale + root) // 2, digits)


@dataclass(frozen=True)
class RatioParams:
    """Parameters of the ratio iteration a(n+1) = t - d / a(n)."""

    t: int
    d: int
    a0: Fraction
    fixed: FixedPoints = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a0", Fraction(self.a0))
        if self.a0 == 0:
            raise ValueError("a0 must be nonzero")
        # ComplexFixedPoints: the ratios diverge
        object.__setattr__(self, "fixed", FixedPoints(self.t, self.d))


def ratio_orbit(params: RatioParams) -> Iterator[Fraction]:
    """Exact orbit a0, a1, a2, ..., one term at a time and without end;
    DivisionByZeroInOrbit when the term after a zero is asked for."""
    a = params.a0
    for i in itertools.count():
        yield a
        if a == 0:
            raise DivisionByZeroInOrbit(f"orbit hit zero at step {i}")
        a = params.t - Fraction(params.d) / a


@dataclass(frozen=True)
class ConvergenceProfile:
    mode: ConvergenceMode
    orbit: tuple[Fraction, ...]
    errors: tuple[float, ...]


def _distance_to_phi_plus(a: Fraction, fp: FixedPoints) -> float:
    # |a - phi+| = |a^2 - t*a + d| / |a - phi-|; the numerator is exact.
    num = a * a - fp.t * a + fp.d
    if num == 0:
        if fp.compare_plus(a) == 0:
            return 0.0
        return math.sqrt(fp.discriminant)
    return abs(float(num)) / abs(float(a) - fp.phi_minus)


def _direction(seq: Sequence[Fraction]) -> str | None:
    """'down', 'up', 'flat', or None for a mixed sequence."""
    down = up = False
    for prev, cur in zip(seq, seq[1:]):
        if cur < prev:
            down = True
        elif cur > prev:
            up = True
    if down and up:
        return None
    if down:
        return "down"
    if up:
        return "up"
    return "flat"


def convergence_profile(params: RatioParams, steps: int) -> ConvergenceProfile:
    """Observed monotonicity class of the orbit a0..a(steps) plus its error decay.

    Classification is empirical and exact: a globally monotone orbit is
    monotone-decreasing/-increasing; an orbit whose even and odd
    subsequences are monotone in opposite directions is alternating-split;
    divergent names every other orbit, including one that converges after
    such a jump: a0 = 1/4 under t = 3, d = 1 runs 1/4, -1, 4, 11/4, 29/11,
    ..., through 0 and then down onto phi+.  steps must be at least 3, so
    that the even and odd terms each show a direction; a flat orbit is then
    a fixed point, phi+ (monotone-decreasing) or phi- (divergent).
    """
    if steps < 3:
        raise ValueError(f"convergence_profile needs at least 3 steps, got {steps}")
    orbit = tuple(itertools.islice(ratio_orbit(params), steps + 1))
    fp = params.fixed
    errors = tuple(_distance_to_phi_plus(a, fp) for a in orbit)
    whole = _direction(orbit)
    if whole == "flat":
        mode = (ConvergenceMode.MONOTONE_DECREASING if fp.compare_plus(orbit[0]) >= 0
                else ConvergenceMode.DIVERGENT)
    elif whole == "down":
        mode = ConvergenceMode.MONOTONE_DECREASING
    elif whole == "up":
        mode = ConvergenceMode.MONOTONE_INCREASING
    else:
        evens = _direction(orbit[0::2])
        odds = _direction(orbit[1::2])
        if {evens, odds} == {"down", "up"}:
            mode = ConvergenceMode.ALTERNATING_SPLIT
        else:
            mode = ConvergenceMode.DIVERGENT
    return ConvergenceProfile(mode, orbit, errors)


def exponential_rate(errors: Sequence[float]) -> float:
    """Worst observed per-step error ratio; < 1 means geometric decay.
    Steps from an error of at most _RATE_FLOOR, or to an error of 0, are skipped."""
    ratios = [
        nxt / cur
        for cur, nxt in zip(errors, errors[1:])
        if cur > _RATE_FLOOR and nxt > 0.0
    ]
    return max(ratios) if ratios else 0.0


def round_half_even_ratio(num: int, den: int, digits: int) -> str:
    """num/den rounded half-even to `digits` places, as a fixed-point decimal string."""
    if digits < 0:
        raise ValueError("digits must be >= 0")
    return _fixed_point(_round_half_even(num * 10**digits, den), digits)


def _round_half_even(num: int, den: int) -> int:
    """num/den rounded half-even to an integer, exactly: the floor quotient
    moves up when twice the remainder exceeds den, or equals it and the
    quotient is odd.  round_half_even_ratio and the sender's column ratio
    (cipher._encrypt_blocks) both round by it."""
    if den < 0:
        num, den = -num, -den
    scaled, rem = divmod(num, den)
    twice = 2 * rem
    if twice > den or (twice == den and scaled & 1):
        scaled += 1
    return scaled


def _fixed_point(scaled: int, digits: int) -> str:
    """scaled / 10**digits as a decimal string with exactly `digits` places."""
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else f"{sign}{text}"
