"""Single- and double-error repair for received ciphertext matrices.

The receiver holds det P (transmitted in clear), the coding matrix, and
optionally a rounded column ratio.  With the wrong entries as unknowns, the
determinant equation a11*a22 - a12*a21 = det M * det P is an exact integer
problem:

  * one wrong entry            -> a linear solve,
  * two in one product term    -> a factor scan of the known product
    (diagonal, anti-diagonal),
  * two in different terms     -> a linear Diophantine family, scanned over
    (a column, a row)             its parameter k.

Each unknown's integer range is the intersection of every exact check whose
other entry is known: non-negativity, the alphabet bound of its column, the
row-ratio interval and the column-ratio grid.  A range wider than
MAX_CANDIDATES is reported, never clipped.  A repair is accepted only if the
whole matrix is intact by cipher._intact, the question decryption asks, and
only if it is the one candidate that is: several are reported as ambiguity.
A row pair needs the transmitted column ratio; without it every family
member has a row ratio near the fixed point, so the determinant alone
cannot decide.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import gcd, inf

from .cipher import CipherKey, CipherPackage, _intact, _rejection, verify_package
from .errors import NoDiophantineSolution
from .matrix import Mat2

# The widest range of candidates one repair stage scans.
MAX_CANDIDATES = 100_000


class ErrorClass(Enum):
    NONE = "none"
    SINGLE = "single"
    DIAGONAL = "diagonal"
    ANTI_DIAGONAL = "anti-diagonal"
    COLUMN_LEFT = "column-left"
    COLUMN_RIGHT = "column-right"
    ROW_TOP = "row-top"
    ROW_BOTTOM = "row-bottom"


_ALL_POSITIONS = ((0, 0), (0, 1), (1, 0), (1, 1))
_ROW_POSITIONS = {0: _ALL_POSITIONS[:2], 1: _ALL_POSITIONS[2:]}
# Each pair names its unknown in the a11*a22 term first, where it has one.
_PAIRS = {
    ErrorClass.DIAGONAL: ((0, 0), (1, 1)),
    ErrorClass.ANTI_DIAGONAL: ((0, 1), (1, 0)),
    ErrorClass.COLUMN_LEFT: ((0, 0), (1, 0)),
    ErrorClass.COLUMN_RIGHT: ((1, 1), (0, 1)),
    ErrorClass.ROW_TOP: ((0, 0), (0, 1)),
    ErrorClass.ROW_BOTTOM: ((1, 1), (1, 0)),
}
_PAIR_CLASS = {frozenset(pair): cls for cls, pair in _PAIRS.items()}


def _with_entries(c: Mat2, updates: dict[tuple[int, int], int]) -> Mat2:
    e = list(c.entries())
    for (i, j), v in updates.items():
        e[2 * i + j] = v
    return Mat2(*e)


@dataclass(frozen=True)
class DiophantineFamily:
    """All integer solutions of a*x - b*y = c: (x, y) = base + k * step.

    Normalized so step_x > 0 with base_x in [0, step_x); when step_x = 0
    the roles fall to y.
    """

    base: tuple[int, int]
    step: tuple[int, int]

    def at(self, k: int) -> tuple[int, int]:
        return (self.base[0] + k * self.step[0], self.base[1] + k * self.step[1])


def _diophantine_gcd(a: int, b: int, c: int) -> int:
    """gcd(a, b); raises unless a*x - b*y = c has integer solutions."""
    if a == 0 and b == 0:
        raise ValueError("a and b cannot both be zero")
    g = gcd(a, b)
    if c % g:
        raise NoDiophantineSolution(f"gcd({a}, {b}) = {g} does not divide {c}")
    return g


def _family(a: int, b: int, c: int, g: int) -> DiophantineFamily:
    """The normalized family of a*x - b*y = c, with g = _diophantine_gcd(a, b, c)."""
    if b == 0:
        return DiophantineFamily((c // a, 0), (0, 1))
    m = abs(b) // g
    x = c // g * pow(a // g, -1, m) % m  # pow(., -1, 1) is 0
    return DiophantineFamily((x, (a * x - c) // b), (m, a // g if b > 0 else -a // g))


def solve_linear_diophantine(a: int, b: int, c: int) -> DiophantineFamily:
    """General integer solution family of a*x - b*y = c."""
    return _family(a, b, c, _diophantine_gcd(a, b, c))


@dataclass(frozen=True)
class CorrectionContext:
    """Everything a repair needs, computed once per package."""

    key: CipherKey
    det_p: int
    # transmitted c21/c11 as (R, D): the check is |c21/c11 - R/D| <= 1/(2D), D = 10**digits
    rho: tuple[int, int] | None = None
    plaintext_bound: int | None = None

    @classmethod
    def from_package(
        cls, pkg: CipherPackage, key: CipherKey, *, plaintext_bound: int | None = None
    ) -> "CorrectionContext":
        check = pkg.column_ratio
        return cls(key, pkg.det_p, None if check is None else check.grid, plaintext_bound)

    @property
    def expected_det(self) -> int:
        """det C of an intact block: det M(n) * det P."""
        return self.key.coding_matrix.det * self.det_p


def plaintext_bounds(ctx: CorrectionContext) -> tuple[tuple[int, int], tuple[int, int]]:
    """Inclusive ciphertext-entry ranges implied by a bounded alphabet.

    First-column entries cannot exceed (size-1) * (A(n+1) + B(n+1)), second
    column (size-1) * (A(n) + B(n)).
    """
    if ctx.plaintext_bound is None:
        raise ValueError("context has no plaintext bound")
    m11, m12, m21, m22 = ctx.key.coding_matrix.matrix.entries()
    s = ctx.plaintext_bound - 1
    return (0, s * (m11 + m21)), (0, s * (m12 + m22))


@dataclass(frozen=True)
class CorrectionReport:
    """Outcome of one repair attempt (or of the whole pipeline)."""

    assumed_class: ErrorClass
    candidates_examined: int
    repaired: Mat2 | None
    position: tuple[int, int] | None = None
    residual_failure: str | None = None
    ambiguous: bool = False
    attempts: tuple[tuple[str, str], ...] = ()

    @property
    def success(self) -> bool:
        return self.repaired is not None


def _failure(cls: ErrorClass, examined: int, reason: str, ambiguous: bool = False) -> CorrectionReport:
    return CorrectionReport(cls, examined, None, residual_failure=reason, ambiguous=ambiguous)


def _decide(cls: ErrorClass, examined: int, passing, fail: str, tie: str) -> CorrectionReport:
    """The one tie rule over (position, candidate) pairs: none fails, several
    distinct ones are ambiguous (tie names what they count), one is the repair."""
    distinct = {cand.entries() for _, cand in passing}
    if not distinct:
        return _failure(cls, examined, fail)
    if len(distinct) > 1:
        return _failure(cls, examined, f"ambiguous: {len(distinct)} {tie}", ambiguous=True)
    pos, cand = passing[0]
    return CorrectionReport(cls, examined, cand, position=pos)


# ---------------------------------------------------------------------------
# single error: four linear determinant equations

_SINGLE_NUM_DEN = {
    (0, 0): lambda c, E: (E + c.a12 * c.a21, c.a22),
    (0, 1): lambda c, E: (c.a11 * c.a22 - E, c.a21),
    (1, 0): lambda c, E: (c.a11 * c.a22 - E, c.a12),
    (1, 1): lambda c, E: (E + c.a12 * c.a21, c.a11),
}


def correct_single(c: Mat2, ctx: CorrectionContext, positions=None) -> CorrectionReport:
    """Try each candidate position: the determinant equation is linear in it.

    A candidate is kept only if the solution is a non-negative integer and
    the repaired matrix is intact.  Two distinct surviving repairs are
    reported as ambiguity, never guessed between.
    """
    positions = tuple(positions) if positions else _ALL_POSITIONS
    det_p, cm, rho, bound = ctx.det_p, ctx.key.coding_matrix, ctx.rho, ctx.plaintext_bound
    examined = 0
    passing: list[tuple[tuple[int, int], Mat2]] = []
    for pos in positions:
        num, den = _SINGLE_NUM_DEN[pos](c, ctx.expected_det)
        examined += 1
        if den == 0:
            continue
        q, r = divmod(num, den)
        if r or q < 0:
            continue
        cand = _with_entries(c, {pos: q})
        if _intact(cand, det_p, cm, rho, bound) is not None:
            passing.append((pos, cand))
    return _decide(
        ErrorClass.SINGLE, examined, passing, "no-single-candidate", "positions admit a repair"
    )


# ---------------------------------------------------------------------------
# two errors: one pin table, then a factor scan or a Diophantine family


def _pin(e: tuple[int, ...], ctx: CorrectionContext, caps, pos, other) -> tuple[int, int | float]:
    """Integer range [lo, hi] of the entry at pos, the other unknown at `other`.

    Intersects every exact check whose other entry is known; hi is inf when
    nothing bounds the entry from above.  Known entries are non-negative.
    caps is plaintext_bounds(ctx), or None without an alphabet bound.
    """
    i, j = pos
    lo, hi = 0, inf if caps is None else caps[j][1]
    bounds = ctx.key.coding_matrix.bounds
    if bounds is not None and (i, 1 - j) != other:
        # row-ratio interval; its four bound terms are positive for every admissible key
        (lo_num, lo_den), (hi_num, hi_den) = bounds
        v = e[2 * i + 1 - j]
        if v == 0:  # only the all-zero row passes
            hi = 0
        elif j == 0:  # lo <= pos / v <= hi
            lo = max(lo, -(-lo_num * v // lo_den))
            hi = min(hi, hi_num * v // hi_den)
        else:  # lo <= v / pos <= hi
            lo = max(lo, -(-v * hi_den // hi_num))
            hi = min(hi, v * lo_den // lo_num)
    if j == 0 and ctx.rho is not None and (1 - i, 0) != other:
        # column-ratio grid: (2R - 1) * c11 <= 2D * c21 <= (2R + 1) * c11, c11 > 0
        r, d = ctx.rho
        v = e[2 * (1 - i)]
        if i == 0:
            lo = max(lo, 1, -(-2 * d * v // (2 * r + 1)))
            if r > 0:
                hi = min(hi, 2 * d * v // (2 * r - 1))
        elif v == 0:
            hi = -1
        else:
            lo = max(lo, -(-(2 * r - 1) * v // (2 * d)))
            hi = min(hi, (2 * r + 1) * v // (2 * d))
    return lo, hi


def _k_range(base: int, step: int, lo: int, hi) -> tuple:
    """The k with lo <= base + k*step <= hi, for step >= 0."""
    if step == 0:
        return (-inf, inf) if lo <= base <= hi else (1, 0)
    return -((base - lo) // step), inf if hi == inf else (hi - base) // step


def correct_pair(c: Mat2, ctx: CorrectionContext, positions) -> CorrectionReport:
    """Repair two wrong entries at `positions` (a diagonal, a column or a row).

    Scans every value of the unknowns inside their pinned ranges and accepts
    the single candidate that is intact.  A row pair needs the
    transmitted column ratio (column-ratio-missing without a positive one).
    """
    cls = _PAIR_CLASS.get(frozenset(positions))
    if cls is None:
        raise ValueError(f"not a pair of distinct entries: {positions!r}")
    first, second = _PAIRS[cls]
    if cls in (ErrorClass.ROW_TOP, ErrorClass.ROW_BOTTOM) and (ctx.rho is None or ctx.rho[0] <= 0):
        return _failure(cls, 0, "column-ratio-missing")
    product = cls in (ErrorClass.DIAGONAL, ErrorClass.ANTI_DIAGONAL)
    fail = "no-factor-in-range" if product else "no-solution-in-range"
    e = c.entries()
    if min(e[2 * i + j] for i, j in _ALL_POSITIONS if (i, j) not in (first, second)) < 0:
        return _failure(cls, 0, fail)  # every candidate keeps the negative entry
    E = ctx.expected_det
    caps = None if ctx.plaintext_bound is None else plaintext_bounds(ctx)
    (xlo, xhi), (ylo, yhi) = _pin(e, ctx, caps, first, second), _pin(e, ctx, caps, second, first)
    if product:
        # x * y = target, the single-error numerator at `first`; y's range bounds x as well
        target = _SINGLE_NUM_DEN[first](c, E)[0]
        if target <= 0:
            return _failure(cls, 0, "non-positive-target")
        if yhi < 1:
            return _failure(cls, 0, fail)
        lo = max(xlo, 1, 0 if yhi == inf else -(-target // yhi))
        hi = min(xhi, target // max(ylo, 1))

        def member(x: int):
            y, r = divmod(target, x)
            return None if r else (x, y)

    else:
        # x * partner(x) - y * partner(y) = E; partners are known, so both steps are >= 0
        a, b = e[3 - 2 * first[0] - first[1]], e[3 - 2 * second[0] - second[1]]
        try:
            g = _diophantine_gcd(a, b, E)
        except ValueError:
            return _failure(cls, 0, "degenerate-equation")
        except NoDiophantineSolution as exc:
            return _failure(cls, 0, f"no-diophantine-solution: {exc}")
        if xlo > xhi or ylo > yhi:  # no k can land in an empty pin
            return _failure(cls, 0, fail)
        family = _family(a, b, E, g)
        (bx, by), (dx, dy) = family.base, family.step
        (klo_x, khi_x), (klo_y, khi_y) = _k_range(bx, dx, xlo, xhi), _k_range(by, dy, ylo, yhi)
        lo, hi = max(klo_x, klo_y), min(khi_x, khi_y)
        member = family.at
    if lo > hi:
        return _failure(cls, 0, fail)
    if hi - lo >= MAX_CANDIDATES:
        return _failure(cls, 0, "search-range-too-wide")
    det_p, cm, rho, bound = ctx.det_p, ctx.key.coding_matrix, ctx.rho, ctx.plaintext_bound
    passing = []
    for t in range(lo, hi + 1):
        xy = member(t)
        if xy is not None:
            cand = _with_entries(c, {first: xy[0], second: xy[1]})
            if _intact(cand, det_p, cm, rho, bound) is not None:
                passing.append((None, cand))
    return _decide(cls, hi - lo + 1, passing, fail, "candidate repairs tie")


# ---------------------------------------------------------------------------
# the pipeline


def correct(
    pkg: CipherPackage, key: CipherKey, *, plaintext_bound: int | None = None
) -> CorrectionReport:
    """Check, then escalate: single, diagonal, anti-diagonal, columns, rows.

    A block is clean only if it is intact, the question decryption asks.
    Otherwise the first log entry gives verify_package's status and the rows
    it flags out of their interval, or, when it flags nothing (a row error
    can keep det P and both intervals), the first failing check as decrypt
    names it.  The first stage with exactly one surviving candidate wins;
    flagged rows go first.  The report carries the full attempt log and the
    total candidate count.
    """
    ctx = CorrectionContext.from_package(pkg, key, plaintext_bound=plaintext_bound)
    if _intact(pkg.c, pkg.det_p, key.coding_matrix, ctx.rho, plaintext_bound) is not None:
        return CorrectionReport(ErrorClass.NONE, 0, pkg.c, attempts=(("verify", "clean"),))
    outcome = verify_package(pkg, key)
    flagged = sorted(outcome.bad_rows)
    if outcome.clean:
        error = _rejection(pkg, key.coding_matrix, plaintext_bound)
        verdict = f"{type(error).__name__}: {error}"
    else:
        verdict = f"{outcome.status.value}, flagged rows {flagged}"
    attempts: list[tuple[str, str]] = [("verify", verdict)]
    if len(flagged) > 1:
        attempts.append(("single", "skipped: both rows flagged"))
    rows = (ErrorClass.ROW_TOP, ErrorClass.ROW_BOTTOM)
    pairs = [ErrorClass.DIAGONAL, ErrorClass.ANTI_DIAGONAL, ErrorClass.COLUMN_LEFT,
             ErrorClass.COLUMN_RIGHT]
    pairs += [rows[r] for r in flagged] + [rows[r] for r in (0, 1) if r not in flagged]

    def stages():
        if len(flagged) <= 1:
            positions = _ROW_POSITIONS[flagged[0]] if flagged else _ALL_POSITIONS
            yield "single", correct_single(pkg.c, ctx, positions)
        for cls in pairs:
            yield cls.value, correct_pair(pkg.c, ctx, _PAIRS[cls])

    total = 0
    any_ambiguous = False
    for name, report in stages():
        total += report.candidates_examined
        if report.success:
            attempts.append((name, "repaired"))
            return replace(report, attempts=tuple(attempts), candidates_examined=total)
        attempts.append((name, report.residual_failure))
        any_ambiguous = any_ambiguous or report.ambiguous
    return CorrectionReport(
        ErrorClass.NONE,
        total,
        None,
        residual_failure="uncorrectable: all strategies exhausted",
        ambiguous=any_ambiguous,
        attempts=tuple(attempts),
    )
