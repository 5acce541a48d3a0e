"""Minimum-weight repair of received ciphertext matrices, decoded in plaintext space.

Row i of C is row i of P times M(n).  The receiver holds M(n), det P
(transmitted in clear) and optionally a rounded column ratio, so a received
row has three kinds of candidate P-row, all inside the box [0, bound)^2, or
the non-negative quadrant without an alphabet bound, each named by what the
row keeps of its received entries:

  * 2, both: the intact row, R adj M / det M if integral and in the box;
  * j, entry j: a point of the line x*M[0][j] + y*M[1][j] = c_ij;
  * None, neither: a point of the det-P line through the other row.

A change pattern is the pair (top keeps, bottom keeps), and its candidates
sit at the Hamming weight of their change to C.  _TABLE lists the 10
patterns covered, per weight and in log order:

  * weight 1, single: (0, 2), (1, 2), (2, 0) and (2, 1);
  * weight 2: diagonal (1, 0), anti-diagonal (0, 1), column-left (1, 1),
    column-right (0, 0), row-top (None, 2) and row-bottom (2, None).

The four weight-3 patterns and the weight-4 one are not covered.  Beside
each pattern the table holds the log its weight writes if it ends there
with no candidate, and per class the log when that class holds the weight's
one candidate, all built once at import.  One loop reads the table: per
pattern it reads the anchor row's points from one per-block list of sources
(the intact top and bottom rows, then the top row's two kept-entry lines,
listed where weight 2 begins) and solves the other row beside each, its
kept entry's line meeting the det-P line in one solve, or its det-P line
cut to a k-interval by the box and the column-ratio grid.

Every candidate must be intact, as decryption asks, and sit at exactly its
weight, which four entry comparisons with C check.  A candidate is built as
rows @ M(n) from P-rows inside the box, and M(n) is invertible, so solving
it would only give those rows back: it is intact when cipher._checked (det
P and the column-ratio grid) passes on them.  Its entries are ints just
multiplied, so its Mat2 is built as cipher._package builds C, without a
second type check.  The decoder decides at the lowest weight with a passing
candidate: one is the repair, several are ambiguity, whatever their
classes.  The loop stops a weight at its second passing candidate; _settle
then logs and decides it, taking the log from the table when the weight
found nothing or one candidate and scanned every line, so only a tie or an
unscanned line builds log entries per block.  A line that nothing bounds, or
that holds more than MAX_CANDIDATES points, is never scanned: its class is
reported (column-ratio-missing for a row with neither a grid nor a bound),
and the weight that holds it is ambiguous, since that class cannot be ruled
out.

The one-point rule: a kept-entry line steps x by m = |M[1][j]| / gcd of
column j (CodingMatrix.column_lines), so with a bound and m >= bound it
holds at most one box point.  When both columns' lines are one-point and a
received row is intact in the box, that row is the one box point of each
of its lines, and it changes no entry; an across-row class changes one
entry of each row, so none can hold a candidate.  correct then skips the
two top-row line solves and the meets of those four classes, which still
log no-pair-candidate in their order.  candidates_examined counts the
solves and det-line points actually made, so a skipped class adds none.
On the repair_n100 corpus at seed 1, a block that reaches weight 2 (7,015
of 8,192) makes on average 1.7 _points calls, examines 2.3 candidates and
runs _checked 1.0 times, against 2.3 calls and 3.0 candidates without the
rule (BENCH_one_point_rows.json).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .cipher import CipherKey, CipherPackage, _checked, _object_new, _object_setattr
from .cipher import _package_rows, _verdict
from .errors import CipherError
from .matrix import Mat2, _require_int, line_step

# The most points one line scan lists.
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


# The decoder names classes by their ErrorClass values, since an Enum member
# hashes in Python code and a str in C; _CLASS maps each value to its member.
_CLASS = {cls.value: cls for cls in ErrorClass}
# The change patterns (module docstring) per weight, in log order: the log
# entry of a class with no candidate, then (class, top keeps, bottom keeps).
_WEIGHTS = (
    ("no-single-candidate", (
        ("single", 0, 2), ("single", 1, 2), ("single", 2, 0), ("single", 2, 1))),
    ("no-pair-candidate", (
        ("diagonal", 1, 0), ("anti-diagonal", 0, 1), ("column-left", 1, 1),
        ("column-right", 0, 0), ("row-top", None, 2), ("row-bottom", 2, None))),
)


def _weight_table(none: str, patterns) -> tuple:
    """One weight of _TABLE: its pattern rows, then the log per class that
    can hold the weight's one candidate.

    Per pattern: the class; where the anchor row's points come from, the
    intact row a (0 or 1) or the line of the top row keeping entry j (2 + j);
    the other row i and what it keeps; the change (four flags over C's
    row-major entries, True where it differs); and the log if the weight ends
    there with no candidate, each class read so far with the entry none.
    The one-candidate log has the holding class's "repaired" beside every
    other class's none.  Both are built once, at import, so _settle builds
    entries only for a tie or an unscanned line.
    """
    classes = tuple(dict.fromkeys(cls for cls, *_ in patterns))
    rows = []
    for cls, *keeps in patterns:
        a = int(keeps[1] == 2)
        rows.append((
            cls, a if keeps[a] == 2 else 2 + keeps[a], 1 - a, keeps[1 - a],
            tuple(k not in (2, j) for k in keeps for j in (0, 1)),
            tuple((c, none) for c in classes[:classes.index(cls) + 1]),
        ))
    repaired = {cls: tuple((c, "repaired" if c == cls else none) for c in classes)
                for cls in classes}
    return tuple(rows), repaired


_TABLE = tuple(_weight_table(none, patterns) for none, patterns in _WEIGHTS)


@dataclass(frozen=True)
class CorrectionReport:
    """Outcome of one repair: the class and change of the repair, or why there is none.

    The one value object with a hand-written __init__ (which dataclass
    keeps): it checks nothing and stores every field in one step, since
    correct builds one report per block inside repair's timed latency,
    where the generated __init__ costs about 0.5 us more.
    """

    assumed_class: ErrorClass
    candidates_examined: int
    repaired: Mat2 | None
    position: tuple[int, int] | None = None
    residual_failure: str | None = None
    ambiguous: bool = False
    attempts: tuple[tuple[str, str], ...] = ()

    def __init__(self, assumed_class, candidates_examined, repaired, position=None,
                 residual_failure=None, ambiguous=False, attempts=()):
        object.__setattr__(self, "__dict__", {
            "assumed_class": assumed_class, "candidates_examined": candidates_examined,
            "repaired": repaired, "position": position, "residual_failure": residual_failure,
            "ambiguous": ambiguous, "attempts": attempts,
        })

    @property
    def success(self) -> bool:
        return self.repaired is not None


def _points(u: int, v: int, w: int, bound, limit=None, step=None):
    """The points (x, y) of the line u*x + v*y = w in the box, and with
    lo <= s*x + t*y <= hi when limit = (s, t, lo, hi) is given (hi None: no end).

    u = v = 0 with w = 0 is the whole box, listed lazily.  None when nothing
    ends the range or it holds more than MAX_CANDIDATES points.  step is
    line_step(u, v) = (g, m, inv) when the caller has it (CodingMatrix.column_lines).
    The points are (x0, y0) + k * (m, -+u/g), with x0 = (w/g) * inv mod m
    and y0 = (w - u*x0) / v, or (w/u, 0) + k * (0, 1) when v = 0.  When
    m >= bound only k = 0 can lie in the box, so x0 is checked before y0 is
    divided out; otherwise the box and the limit cut k to an interval.
    """
    if u == 0 and v == 0:
        if w:
            return []
        if bound is None or bound * bound > MAX_CANDIDATES:
            return None
        s, t, lo, hi = limit or (0, 0, 0, None)
        if hi is not None and lo > hi:
            return []
        return (
            (x, y) for x in range(bound) for y in range(bound)
            if lo <= s * x + t * y and (hi is None or s * x + t * y <= hi)
        )
    g, m, inv = step or line_step(u, v)
    if w % g:
        return []
    if m is None:  # v = 0: x = w/u and y is free
        bx, by, dx, dy = w // u, 0, 0, 1
    else:
        bx = w // g * inv % m
        one_point = bound is not None and m >= bound
        if one_point and bx >= bound:
            return []
        by = (w - u * bx) // v
        if one_point:
            s, t, lo, hi = limit or (0, 0, 0, None)
            f = s * bx + t * by
            return [(bx, by)] if 0 <= by < bound and lo <= f and (hi is None or f <= hi) else []
        dx, dy = m, (-u if v > 0 else u) // g
    top = None if bound is None else bound - 1
    klo = khi = None
    for s, t, lo, hi in ((1, 0, 0, top), (0, 1, 0, top), *([limit] if limit else ())):
        f, df = s * bx + t * by, s * dx + t * dy
        if df < 0:
            f, df, lo, hi = -f, -df, None if hi is None else -hi, -lo
        if df == 0:
            if (lo is not None and f < lo) or (hi is not None and f > hi):
                return []
            continue
        if lo is not None:
            k = -((f - lo) // df)
            klo = k if klo is None else max(klo, k)
        if hi is not None:
            k = (hi - f) // df
            khi = k if khi is None else min(khi, k)
    if klo is None or khi is None or khi - klo >= MAX_CANDIDATES:
        return None
    return [(bx + k * dx, by + k * dy) for k in range(klo, khi + 1)]


def _det_line(i: int, known: tuple[int, int]) -> tuple[int, int]:
    """(u, v) with det P = u*x + v*y for row i = (x, y) of P beside the known other row."""
    kx, ky = known
    return (ky, -kx) if i == 0 else (-ky, kx)


def _grid_limit(i: int, e: tuple[int, ...], grid, m11: int, m21: int):
    """The column-ratio grid on row i's first entry s*x + t*y, the other row kept:
    c11 > 0 and (2R - 1) * c11 <= 2D * c21 <= (2R + 1) * c11."""
    r, d = grid
    if i == 0:  # c21 is known
        lo = max(1, -(-2 * d * e[2] // (2 * r + 1)))
        return m11, m21, lo, 2 * d * e[2] // (2 * r - 1) if r > 0 else None
    if e[0] <= 0:  # no c21 passes
        return m11, m21, 1, 0
    return m11, m21, -(-(2 * r - 1) * e[0] // (2 * d)), (2 * r + 1) * e[0] // (2 * d)


def _settle(quiet: tuple, repaired: dict, found: list, unscanned: dict, log: list,
            examined: int):
    """Log each class examined at one weight and decide it: the report of its
    one passing candidate, or of the tie or unscanned class that makes it
    ambiguous; else None, at once when the weight found nothing and scanned
    every class.  quiet and repaired are the weight's logs from _TABLE: the
    classes read, each with the no-candidate entry, and per class the log
    when it holds the one candidate.  found holds (block, class, change) per
    passing candidate; a single's position is the one entry its change flags.
    Only a tie or an unscanned class builds its entries here."""
    if not unscanned:
        if not found:
            log += quiet
            return None
        if len(found) == 1:
            ((block, cls, changed),) = found
            position = divmod(changed.index(True), 2) if cls == "single" else None
            return CorrectionReport(
                _CLASS[cls], examined, block, position, None, False, (*log, *repaired[cls]))
    classes = [cls for cls, _ in quiet]
    none = quiet[0][1]
    blocked = ", ".join([cls for cls in classes if cls in unscanned]) if unscanned else ""
    holding = [cls for _, cls, _ in found]
    if len(found) > 1:
        tying = ", ".join([cls for cls in classes if cls in holding])
        outcome = "ambiguous: candidate repairs tie"
        reason = f"{outcome} in {tying}" + (f"; {blocked} not scanned" if blocked else "")
    else:
        outcome = reason = f"ambiguous: {blocked} not scanned"
    log += [(cls, unscanned.get(cls) or (outcome if cls in holding else none)) for cls in classes]
    return CorrectionReport(ErrorClass.NONE, examined, None, None, reason, True, tuple(log))


def correct(
    pkg: CipherPackage, key: CipherKey, *, plaintext_bound: int | None = None
) -> CorrectionReport:
    """Decode at the lowest weight that has an intact candidate (see the module docstring).

    plaintext_bound is None (no upper end) or an int of at least 1.  A
    block is clean when cipher._verdict finds it intact below the bound;
    otherwise that verdict's error, as decrypt names it, is the first log
    entry, and one entry follows per class examined, in ErrorClass order,
    weight by weight.  The classes reuse the received rows that solve
    inside the box (cipher._package_rows keeps them on the received C,
    never on a repaired one).  One loop reads the pattern table (module
    docstring) weight by weight and stops a weight at its second passing
    candidate, since the block is then ambiguous whatever else it holds;
    _settle then logs it with the classes read so far.
    Its residual_failure names the tying classes, then the unscanned ones;
    a class holding the weight's only candidate logs the unscanned ones.
    Beside a row intact in the box, the one-point rule (module docstring)
    skips the across-row classes when both columns' kept-entry lines are
    one-point at the bound; that check runs once, where weight 2 begins and
    the top row's kept-entry lines are listed, and only with an intact row.
    candidates_examined counts the solves and the listed det-line points
    actually made.
    """
    if plaintext_bound is not None:
        _require_int("plaintext_bound", plaintext_bound)
        if plaintext_bound < 1:
            raise ValueError(f"plaintext_bound must be at least 1, got {plaintext_bound}")
    check = pkg.column_ratio
    cm, c, det_p, bound = key.coding_matrix, pkg.c, pkg.det_p, plaintext_bound
    grid = None if check is None else check.grid
    verdict = _verdict(pkg, cm, bound)
    if not isinstance(verdict, CipherError):
        return CorrectionReport(ErrorClass.NONE, 0, c, attempts=(("verify", "clean"),))
    attempts = [("verify", f"{type(verdict).__name__}: {verdict}")]
    e = c11, c12, c21, c22 = c.entries()
    top, bottom = _package_rows(c, cm)
    if bound is not None:
        top = None if top is None or top[0] >= bound or top[1] >= bound else top
        bottom = None if bottom is None or bottom[0] >= bound or bottom[1] >= bound else bottom
    # the anchor rows of each _TABLE source: the intact top and bottom rows
    # (one or none), then the top row's kept-entry lines, listed where weight 2 begins
    sources = [() if top is None else (top,), () if bottom is None else (bottom,)]
    m11, m12, m21, m22 = cm.matrix.entries()
    columns = ((m11, m21), (m12, m22))
    unscanned: dict[str, str] = {}
    found: list = []
    examined = 0

    def line(i: int, j: int) -> list | None:
        """The box points of row i that keep its entry j."""
        return _points(*columns[j], e[2 * i + j], bound, step=cm.column_lines[j])

    def meet(cls: str, i: int, j: int, known: tuple[int, int]) -> list:
        """Points of line(i, j) on the det-P line beside the known other row: one
        solve, or the whole line when the two coincide."""
        nonlocal examined
        u, v = _det_line(i, known)
        (a, b), r = columns[j], e[2 * i + j]
        den = a * v - b * u
        if den:
            examined += 1
            x, rx = divmod(r * v - b * det_p, den)
            y, ry = divmod(a * det_p - u * r, den)
            return [] if rx or ry else [(x, y)]
        if a * det_p != u * r or b * det_p != v * r:
            return []
        points = line(i, j)
        if points is None:
            unscanned[cls] = "search-range-too-wide"
            return []
        examined += len(points)
        return points

    def passes(cls: str, i: int, p, known, changed) -> bool:
        """Append the block of P with row i = p beside the known other row to
        found if it is intact and changes exactly the entries flagged in
        changed; True once found holds two, which stops the weight."""
        block_rows = (p, known) if i == 0 else (known, p)
        (x0, y0), (x1, y1) = block_rows
        if min(x0, y0, x1, y1) < 0 or (bound is not None and max(x0, y0, x1, y1) >= bound):
            return False
        a11, a12 = x0 * m11 + y0 * m21, x0 * m12 + y0 * m22
        a21, a22 = x1 * m11 + y1 * m21, x1 * m12 + y1 * m22
        if (a11 != c11, a12 != c12, a21 != c21, a22 != c22) != changed:
            return False
        # block_rows are in the box and the block is block_rows @ M(n) exactly,
        # so they are what solving it would give: only _checked is left.  Its
        # entries are ints just multiplied, so it is built as cipher._package
        # builds C, with the __dict__ Mat2's generated __init__ stores.
        block = _object_new(Mat2)
        _object_setattr(block, "__dict__", {"a11": a11, "a12": a12, "a21": a21, "a22": a22})
        if _checked(block, block_rows, det_p, grid) is None:
            return False
        found.append((block, cls, changed))
        return len(found) > 1

    stop = False
    for weight, (patterns, repaired) in enumerate(_TABLE):
        if weight:  # weight 2: the one-point rule leaves the top-row lines no points
            (_, m0, _), (_, m1, _) = cm.column_lines
            one_point = bound is not None and (top or bottom) is not None and (
                None not in (m0, m1) and min(m0, m1) >= bound)
            sources += ((), ()) if one_point else (line(0, 0), line(0, 1))
        for cls, source, i, keeps, changed, quiet in patterns:
            anchors = sources[source]
            if anchors is None:
                unscanned[cls] = "search-range-too-wide"
                continue
            for known in anchors:
                if keeps is not None:
                    points = meet(cls, i, keeps, known)
                elif grid is None and bound is None:
                    unscanned[cls] = "column-ratio-missing"
                    break
                else:
                    limit = None if grid is None else _grid_limit(i, e, grid, m11, m21)
                    points = _points(*_det_line(i, known), det_p, bound, limit)
                    if points is None:
                        unscanned[cls] = "search-range-too-wide"
                        break
                for p in points:
                    examined += keeps is None  # meet counts its own solves
                    if stop := passes(cls, i, p, known, changed):
                        break
                if stop:
                    break
            if stop:
                break
        report = _settle(quiet, repaired, found, unscanned, attempts, examined)
        if report is not None:
            return report
    return CorrectionReport(
        ErrorClass.NONE, examined, None, None,
        "uncorrectable: no intact candidate at weight 1 or 2", False, tuple(attempts),
    )
