"""Single- and double-error repair for received ciphertext matrices.

The receiver holds det P (transmitted in clear), the coding matrix, and
optionally a rounded column ratio.  Every repair strategy reduces to an
exact integer problem:

  * one wrong entry       -> a linear solve of the determinant equation,
  * two on a diagonal     -> a bounded factor search of a known product,
  * two in one column     -> a linear Diophantine family,
  * two in one row        -> the same family, but only the transmitted
                             column ratio can pick the right member.

Candidates are pre-filtered through exact rational constraints (row-ratio
interval, column-ratio grid, alphabet-implied entry bounds), so the scans
stay tiny even though the nominal search windows scale with the estimates.
A repair is accepted only if the whole matrix passes every check an intact
ciphertext must pass, including exact plaintext divisibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .cipher import CipherKey, CipherPackage, _decrypt_block, _row_in_interval, verify_package
from .errors import NegativePlaintext, NoDiophantineSolution, NonIntegralPlaintext
from .matrix import CodingMatrix, Mat2
from .ratios import BOTTOM_OVER_TOP


class ErrorClass(Enum):
    NONE = "none"
    SINGLE = "single"
    DIAGONAL = "diagonal"
    ANTI_DIAGONAL = "anti-diagonal"
    COLUMN_LEFT = "column-left"
    COLUMN_RIGHT = "column-right"
    ROW_TOP = "row-top"
    ROW_BOTTOM = "row-bottom"


_POS_FIELD = {(0, 0): "a11", (0, 1): "a12", (1, 0): "a21", (1, 1): "a22"}
_ROW_POSITIONS = {0: ((0, 0), (0, 1)), 1: ((1, 0), (1, 1))}
_ALL_POSITIONS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _with_entries(c: Mat2, updates: dict[tuple[int, int], int]) -> Mat2:
    return replace(c, **{_POS_FIELD[pos]: val for pos, val in updates.items()})


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


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with a*s + b*t = g and g = gcd(a, b) >= 0."""
    r0, r1, s0, s1, t0, t1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0 < 0:
        r0, s0, t0 = -r0, -s0, -t0
    return r0, s0, t0


def solve_linear_diophantine(a: int, b: int, c: int) -> DiophantineFamily:
    """General integer solution family of a*x - b*y = c."""
    if a == 0 and b == 0:
        raise ValueError("a and b cannot both be zero")
    g, s, t = _ext_gcd(a, -b)
    if c % g:
        raise NoDiophantineSolution(f"gcd({a}, {b}) = {g} does not divide {c}")
    scale = c // g
    x0, y0 = s * scale, t * scale
    dx, dy = -b // g, -a // g
    if dx < 0 or (dx == 0 and dy < 0):
        dx, dy = -dx, -dy
    if dx:
        shift = x0 // dx
    elif dy:
        shift = y0 // dy
    else:
        shift = 0
    return DiophantineFamily((x0 - shift * dx, y0 - shift * dy), (dx, dy))


@dataclass(frozen=True)
class SearchConfig:
    """How far from the estimates a repair search is allowed to roam."""

    min_window: int = 8
    window_fraction: Fraction = Fraction(1, 10)
    max_candidates: int = 100_000

    def window(self, estimate) -> int:
        return max(self.min_window, math.ceil(abs(Fraction(estimate)) * self.window_fraction))


@dataclass(frozen=True)
class CorrectionContext:
    """Everything a repair strategy needs, computed once per package."""

    key: CipherKey
    cm: CodingMatrix
    expected_det: int
    interval: tuple[Fraction, Fraction] | None
    rho: Fraction | None = None
    rho_digits: int | None = None
    plaintext_bound: int | None = None
    search: SearchConfig = SearchConfig()

    @classmethod
    def from_package(
        cls,
        pkg: CipherPackage,
        key: CipherKey,
        *,
        plaintext_bound: int | None = None,
        search: SearchConfig | None = None,
    ) -> "CorrectionContext":
        compiled = key._compiled
        interval = None
        if compiled.bounds is not None:
            lo, hi = compiled.bounds
            interval = (Fraction(*lo), Fraction(*hi))
        rho = rho_digits = None
        check = pkg.column_ratio
        if check is not None and check.orientation == BOTTOM_OVER_TOP:
            rho, rho_digits = check.fraction, check.digits
        return cls(
            key=key,
            cm=key.coding_matrix,
            expected_det=compiled.det * pkg.det_p,
            interval=interval,
            rho=rho,
            rho_digits=rho_digits,
            plaintext_bound=plaintext_bound,
            search=search if search is not None else SearchConfig(),
        )

    @property
    def phi(self) -> float:
        return self.cm.ratio_limit

    @property
    def phi_fraction(self) -> Fraction:
        return Fraction(self.cm.ratio_limit).limit_denominator(10**12)

    @property
    def rho_half_ulp(self) -> Fraction:
        return Fraction(1, 2 * 10 ** self.rho_digits)


def plaintext_bounds(ctx: CorrectionContext) -> tuple[tuple[int, int], tuple[int, int]]:
    """Inclusive ciphertext-entry ranges implied by a bounded alphabet.

    First-column entries cannot exceed (size-1) * (A(n+1) + B(n+1)), second
    column (size-1) * (A(n) + B(n)).
    """
    if ctx.plaintext_bound is None:
        raise ValueError("context has no plaintext bound")
    m = ctx.cm.matrix
    s = ctx.plaintext_bound - 1
    return (0, s * (m.a11 + m.a21)), (0, s * (m.a12 + m.a22))


def _decrypted_entries(mat: Mat2, ctx: CorrectionContext) -> tuple[int, ...] | None:
    """Plaintext entries if mat decrypts exactly and non-negatively, else None."""
    try:
        return _decrypt_block(mat, ctx.key._compiled)
    except (NonIntegralPlaintext, NegativePlaintext):
        return None


def _repair_passes(mat: Mat2, ctx: CorrectionContext) -> bool:
    """All checks an intact ciphertext must satisfy, in exact arithmetic."""
    if any(e < 0 for e in mat.entries()):
        return False
    if mat.det() != ctx.expected_det:
        return False
    bounds = ctx.key._compiled.bounds
    if bounds is not None and not (
        _row_in_interval(mat.a11, mat.a12, bounds) and _row_in_interval(mat.a21, mat.a22, bounds)
    ):
        return False
    if ctx.rho is not None:
        if mat.a11 <= 0:
            return False
        if abs(Fraction(mat.a21, mat.a11) - ctx.rho) > ctx.rho_half_ulp:
            return False
    entries = _decrypted_entries(mat, ctx)
    if entries is None:
        return False
    if ctx.plaintext_bound is not None and any(v >= ctx.plaintext_bound for v in entries):
        return False
    return True


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


# ---------------------------------------------------------------------------
# range plumbing: every scan enumerates an exact intersection of constraints

_EMPTY = "empty"


def _k_interval(base: int, step: int, vlo, vhi):
    """k-range with base + step*k inside [vlo, vhi]; None means unbounded."""
    if step == 0:
        ok = (vlo is None or base >= vlo) and (vhi is None or base <= vhi)
        return (None, None) if ok else _EMPTY
    if step > 0:
        klo = None if vlo is None else math.ceil(Fraction(vlo - base, step))
        khi = None if vhi is None else math.floor(Fraction(vhi - base, step))
    else:
        klo = None if vhi is None else math.ceil(Fraction(vhi - base, step))
        khi = None if vlo is None else math.floor(Fraction(vlo - base, step))
    if klo is not None and khi is not None and klo > khi:
        return _EMPTY
    return (klo, khi)


def _intersect(*ranges):
    lo = hi = None
    for r in ranges:
        if r is _EMPTY:
            return _EMPTY
        rlo, rhi = r
        if rlo is not None:
            lo = rlo if lo is None else max(lo, rlo)
        if rhi is not None:
            hi = rhi if hi is None else min(hi, rhi)
        if lo is not None and hi is not None and lo > hi:
            return _EMPTY
    return (lo, hi)


def _clip(bounds, center: int, cap: int):
    """Finite integer range around center, at most cap values wide."""
    if bounds is _EMPTY:
        return None
    lo, hi = bounds
    lo = center - cap // 2 if lo is None else math.ceil(lo)
    hi = center + cap // 2 if hi is None else math.floor(hi)
    if hi - lo + 1 > cap:
        lo = max(lo, center - cap // 2)
        hi = min(hi, lo + cap - 1)
    if lo > hi:
        return None
    return lo, hi


def _rank_and_pick(cls, original, passing, examined, fail_reason, primary=None):
    """Order passing candidates, return a report; a tied best is ambiguity.

    Default order: fewest changed entries, then smallest total change.
    `primary(mat)` prepends a strategy-specific key (e.g. estimate distance).
    """
    if not passing:
        return _failure(cls, examined, fail_reason)
    seen = {}
    for mat in passing:
        seen.setdefault(mat.entries(), mat)
    unique = list(seen.values())

    def key(mat: Mat2):
        deltas = [abs(a - b) for a, b in zip(mat.entries(), original.entries())]
        changed = sum(1 for d in deltas if d)
        base = (changed, sum(deltas))
        return (primary(mat),) + base if primary else base

    unique.sort(key=key)
    if len(unique) > 1 and key(unique[0]) == key(unique[1]):
        return _failure(
            cls, examined, f"ambiguous: {len(unique)} candidate repairs tie", ambiguous=True
        )
    return CorrectionReport(cls, examined, unique[0])


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
    the repaired matrix passes every intact-ciphertext check.  Two distinct
    surviving repairs are reported as ambiguity, never guessed between.
    """
    positions = tuple(positions) if positions else _ALL_POSITIONS
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
        if _repair_passes(cand, ctx):
            passing.append((pos, cand))
    distinct = {cand.entries() for _, cand in passing}
    if not distinct:
        return _failure(ErrorClass.SINGLE, examined, "no-single-candidate")
    if len(distinct) > 1:
        return _failure(
            ErrorClass.SINGLE,
            examined,
            f"ambiguous: {len(distinct)} positions admit a repair",
            ambiguous=True,
        )
    pos, cand = passing[0]
    return CorrectionReport(ErrorClass.SINGLE, examined, cand, position=pos)


# ---------------------------------------------------------------------------
# diagonal / anti-diagonal: factor a known product near the estimates


def _value_pin(known: int, interval, invert: bool):
    """Interval constraint on an unknown tied to `known` by a row ratio."""
    if interval is None or known <= 0:
        return (None, None)
    lo, hi = interval
    if invert:  # known / unknown must lie in [lo, hi]
        if lo <= 0:
            return (None, None)
        return (Fraction(known) / hi, Fraction(known) / lo)
    return (lo * known, hi * known)


def correct_diagonal(c: Mat2, ctx: CorrectionContext, anti: bool = False) -> CorrectionReport:
    """Repair the (1,1)/(2,2) pair, or with anti=True the (1,2)/(2,1) pair.

    Both cases fix the product of the two unknowns, so the scan trial-divides
    inside the exact window the interval and bound checks allow.
    """
    E = ctx.expected_det
    phi = ctx.phi_fraction
    bounds = plaintext_bounds(ctx) if ctx.plaintext_bound is not None else None
    if not anti:
        cls = ErrorClass.DIAGONAL
        target = c.a12 * c.a21 + E
        first_pos, partner_pos = (0, 0), (1, 1)
        est = phi * c.a12
        pin = _value_pin(c.a12, ctx.interval, invert=False)
        bound_pin = (0, bounds[0][1]) if bounds else (None, None)
    else:
        cls = ErrorClass.ANTI_DIAGONAL
        target = c.a11 * c.a22 - E
        first_pos, partner_pos = (0, 1), (1, 0)
        est = Fraction(c.a11) / phi if phi else Fraction(0)
        pin = _value_pin(c.a11, ctx.interval, invert=True)
        bound_pin = (0, bounds[1][1]) if bounds else (None, None)
    if target <= 0:
        return _failure(cls, 0, "non-positive-target")
    w = ctx.search.window(est)
    center = round(est)
    span = _intersect((1, target), pin, bound_pin, (center - w, center + w))
    rng = _clip(span, center, ctx.search.max_candidates)
    if rng is None:
        return _failure(cls, 0, "no-factor-near-estimate")
    examined = 0
    passing = []
    for x in range(rng[0], rng[1] + 1):
        examined += 1
        if x <= 0 or target % x:
            continue
        cand = _with_entries(c, {first_pos: x, partner_pos: target // x})
        if _repair_passes(cand, ctx):
            passing.append(cand)
    return _rank_and_pick(cls, c, passing, examined, "no-factor-near-estimate")


# ---------------------------------------------------------------------------
# column errors: one-parameter Diophantine family


def _scan_family(cls, c, ctx, family, spots, estimates, extra_pins, fail_reason, primary=None):
    """Enumerate family members inside the intersected exact constraints.

    spots: matrix positions of (X, Y); extra_pins: per-unknown value ranges.
    """
    (bx, by), (dx, dy) = family.base, family.step
    ranges = [
        _k_interval(bx, dx, 0, None),
        _k_interval(by, dy, 0, None),
        _k_interval(bx, dx, *extra_pins[0]),
        _k_interval(by, dy, *extra_pins[1]),
    ]
    if ctx.plaintext_bound is not None:
        cb = plaintext_bounds(ctx)
        col_x = cb[spots[0][1]]
        col_y = cb[spots[1][1]]
        ranges.append(_k_interval(bx, dx, col_x[0], col_x[1]))
        ranges.append(_k_interval(by, dy, col_y[0], col_y[1]))
    if dx:
        k_est = round(Fraction(estimates[0] - bx, dx))
    elif dy:
        k_est = round(Fraction(estimates[1] - by, dy))
    else:
        k_est = 0
    w = ctx.search.window(k_est)
    ranges.append((k_est - w, k_est + w))
    rng = _clip(_intersect(*ranges), k_est, ctx.search.max_candidates)
    if rng is None:
        return _failure(cls, 0, fail_reason)
    examined = 0
    passing = []
    for k in range(rng[0], rng[1] + 1):
        examined += 1
        x, y = family.at(k)
        cand = _with_entries(c, {spots[0]: x, spots[1]: y})
        if _repair_passes(cand, ctx):
            passing.append(cand)
    return _rank_and_pick(cls, c, passing, examined, fail_reason, primary=primary)


def correct_column(c: Mat2, ctx: CorrectionContext, side: str) -> CorrectionReport:
    """Repair a whole column via the linear Diophantine equation it satisfies.

    side 'left' solves x*c22 - c12*z = det target for (x, z); side 'right'
    solves c11*v - y*c21 = target for (v, y).  The surviving member must sit
    near the ratio estimates and pass all checks.
    """
    E = ctx.expected_det
    phi = ctx.phi_fraction
    if side == "left":
        cls = ErrorClass.COLUMN_LEFT
        a, b = c.a22, c.a12
        spots = ((0, 0), (1, 0))
        estimates = (phi * c.a12, phi * c.a22)
        pins = (
            _value_pin(c.a12, ctx.interval, invert=False),
            _value_pin(c.a22, ctx.interval, invert=False),
        )
    elif side == "right":
        cls = ErrorClass.COLUMN_RIGHT
        a, b = c.a11, c.a21
        spots = ((1, 1), (0, 1))
        estimates = (
            Fraction(c.a21) / phi if phi else Fraction(0),
            Fraction(c.a11) / phi if phi else Fraction(0),
        )
        pins = (
            _value_pin(c.a21, ctx.interval, invert=True),
            _value_pin(c.a11, ctx.interval, invert=True),
        )
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    try:
        family = solve_linear_diophantine(a, b, E)
    except ValueError:
        return _failure(cls, 0, "degenerate-equation")
    except NoDiophantineSolution as exc:
        return _failure(cls, 0, f"no-diophantine-solution: {exc}")
    return _scan_family(cls, c, ctx, family, spots, estimates, pins, "no-solution-near-estimate")


# ---------------------------------------------------------------------------
# row errors: the family alone cannot decide; the column ratio must


def correct_row(c: Mat2, ctx: CorrectionContext, row: int) -> CorrectionReport:
    """Repair a whole row, guided by the transmitted column ratio.

    Without that ratio every family member has a row ratio near the fixed
    point, so the row equation is unsolvable in principle and the strategy
    reports column-ratio-missing.  With it, the member nearest the ratio
    estimates wins (subject to all checks).
    """
    cls = ErrorClass.ROW_TOP if row == 0 else ErrorClass.ROW_BOTTOM
    if ctx.rho is None:
        return _failure(cls, 0, "column-ratio-missing")
    rho, h = ctx.rho, ctx.rho_half_ulp
    if rho <= 0:
        return _failure(cls, 0, "column-ratio-missing")
    grid_lo, grid_hi = rho - h, rho + h
    if row == 0:
        a, b = c.a22, c.a21
        spots = ((0, 0), (0, 1))
        estimates = (Fraction(c.a21) / rho, Fraction(c.a22) / rho)
        # transmitted ratio constrains x through c21 / x
        if grid_lo > 0:
            pin_x = (Fraction(c.a21) / grid_hi, Fraction(c.a21) / grid_lo)
        else:
            pin_x = (Fraction(c.a21) / grid_hi, None)
        pins = (pin_x, (None, None))
    else:
        a, b = c.a11, c.a12
        spots = ((1, 1), (1, 0))
        estimates = (rho * c.a12, rho * c.a11)
        # transmitted ratio constrains z through z / c11
        pins = ((None, None), (grid_lo * c.a11, grid_hi * c.a11))
    try:
        family = solve_linear_diophantine(a, b, ctx.expected_det)
    except ValueError:
        return _failure(cls, 0, "degenerate-equation")
    except NoDiophantineSolution as exc:
        return _failure(cls, 0, f"no-diophantine-solution: {exc}")

    ex, ey = estimates

    def distance(mat: Mat2) -> Fraction:
        vx = Fraction(getattr(mat, _POS_FIELD[spots[0]]))
        vy = Fraction(getattr(mat, _POS_FIELD[spots[1]]))
        return abs(vx - ex) + abs(vy - ey)

    return _scan_family(
        cls, c, ctx, family, spots, estimates, pins,
        "no-solution-near-estimate", primary=distance,
    )


# ---------------------------------------------------------------------------
# the pipeline


def correct(
    pkg: CipherPackage,
    key: CipherKey,
    *,
    plaintext_bound: int | None = None,
    search: SearchConfig | None = None,
) -> CorrectionReport:
    """Verify, then escalate: single, diagonal, anti-diagonal, columns, rows.

    The first strategy whose candidate survives every check wins.  Rows the
    interval check flagged are tried first within each stage.  The returned
    report carries the full attempt log and the total candidate count.
    """
    outcome = verify_package(pkg, key)
    if outcome.clean:
        return CorrectionReport(
            ErrorClass.NONE, 0, pkg.c, attempts=(("verify", "clean"),)
        )
    ctx = CorrectionContext.from_package(
        pkg, key, plaintext_bound=plaintext_bound, search=search
    )
    flagged = sorted(outcome.bad_rows)
    attempts: list[tuple[str, str]] = [
        ("verify", f"{outcome.status.value}, flagged rows {flagged}")
    ]
    total = 0
    any_ambiguous = False

    def run(name: str, report: CorrectionReport) -> CorrectionReport | None:
        nonlocal total, any_ambiguous
        total += report.candidates_examined
        if report.success:
            attempts.append((name, "repaired"))
            return replace(
                report, attempts=tuple(attempts), candidates_examined=total
            )
        attempts.append((name, report.residual_failure or "failed"))
        any_ambiguous = any_ambiguous or report.ambiguous
        return None

    if len(flagged) <= 1:
        positions = _ROW_POSITIONS[flagged[0]] if flagged else _ALL_POSITIONS
        done = run("single", correct_single(pkg.c, ctx, positions))
        if done:
            return done
    else:
        attempts.append(("single", "skipped: both rows flagged"))

    done = run("diagonal", correct_diagonal(pkg.c, ctx, anti=False))
    if done:
        return done
    done = run("anti-diagonal", correct_diagonal(pkg.c, ctx, anti=True))
    if done:
        return done
    for side in ("left", "right"):
        done = run(f"column-{side}", correct_column(pkg.c, ctx, side))
        if done:
            return done
    row_order = flagged + [r for r in (0, 1) if r not in flagged]
    for row in row_order:
        name = "row-top" if row == 0 else "row-bottom"
        done = run(name, correct_row(pkg.c, ctx, row))
        if done:
            return done
    return CorrectionReport(
        ErrorClass.NONE,
        total,
        None,
        residual_failure="uncorrectable: all strategies exhausted",
        ambiguous=any_ambiguous,
        attempts=tuple(attempts),
    )
