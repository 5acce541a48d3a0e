"""Exact 2x2 integer matrices and the coding matrices built from them.

Everything stays in arbitrary-precision integer arithmetic: products,
determinants, adjugates, powers, and the two-sequence coding matrices
[[A(n+1), A(n)], [B(n+1), B(n)]] that multiply plaintext blocks.
build_coding_matrix is the one place that builds, validates and views a
key's M(n): it takes U^n @ M(0), with U^n by repeated squaring
(Mat2.__pow__), so a key costs O(log n) big-int products.  A key whose
M(n) has in both rows an entry past MAX_HEX_CHARS hex digits could send
only all-zero blocks, and is refused, the large ones before any big
product.  coding_entries walks the recurrence one n at a time, for the
attacks, which weigh every n.  The golden and k-golden M(n) are
CipherKey.golden(n).coding_matrix and CipherKey.k_golden(k, n).coding_matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .errors import DegenerateConvergenceWarning, InvalidKey

DEFAULT_MAX_EXPONENT = 512
# The longest hex string, its "-" included, of a package integer.  Every
# value below 16**3571 has at most 4,300 decimal digits, so any integer a
# package file holds also prints in decimal under Python's int-str limit.
MAX_HEX_CHARS = 3571
# The forward product finds each row of P mod 2^FORWARD_BITS from the low bits
# of C (cipher._row_plaintext), then proves it times M(n) equals the row of C
# over the integers.
FORWARD_BITS = 64
# Keys whose largest M(n) entry has more bits than this get the forward table.
# Per row, exact division costs big-by-big products and the forward product
# small-by-big ones plus two masks.  On random keys with intact rows the two
# cost the same near 230 bits (n = 60: 1.14 us against 1.12 us); the forward
# row is the cheaper at n = 100 (~370 bits: 1.16 us against 1.65 us) and far
# cheaper at n = 500 (~1,860 bits: 1.53 us against 19.0 us), and it loses at
# n = 10 (0.98 us against 0.57 us).  256 sits just above that crossover and
# puts most n = 100 random keys on the table (121 of the 128 repair_n100 keys
# at seed 1001); every correct report and verify result over that corpus's
# 8,192 blocks is the same as with the earlier 512.  Golden keys pass it from
# n = 370 and cat keys from n = 185.
FORWARD_MIN_BITS = 256


def _require_int(name: str, value) -> None:
    """The package's one integer rule: exactly int, so no bool and no int subclass."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix of exact integers, fields row-major.

    __init__, eq, hash, repr and immutability are the dataclass's;
    __post_init__ names the first entry that is not an int, for callers and
    for dataclasses.replace.  Builders that hold proven ints (cipher._package,
    correct's passes) store the same __dict__ without it.  A ciphertext
    block may also keep its plaintext rows, each None when it does not
    solve, in __dict__ (cipher._package_rows); __getstate__ leaves them out.
    """

    a11: int
    a12: int
    a21: int
    a22: int

    def __post_init__(self):
        for name, value in zip(("a11", "a12", "a21", "a22"), self.entries()):
            _require_int(name, value)

    def __getstate__(self):
        """The four entries, so pickles and copies carry no remembered plaintext rows."""
        return {"a11": self.a11, "a12": self.a12, "a21": self.a21, "a22": self.a22}

    def rows(self):
        return ((self.a11, self.a12), (self.a21, self.a22))

    def entries(self):
        return (self.a11, self.a12, self.a21, self.a22)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def det(self) -> int:
        return self.a11 * self.a22 - self.a12 * self.a21

    def trace(self) -> int:
        return self.a11 + self.a22

    def adjugate(self) -> "Mat2":
        return Mat2(self.a22, -self.a12, -self.a21, self.a11)

    def __pow__(self, n: int) -> "Mat2":
        """self^n by repeated squaring over plain ints, high bit first.

        Each bit of n squares the running product (five products, since a
        2x2 square shares b*c and a + d) and, when the bit is set, multiplies
        it by self; only the result is built as a Mat2.
        The exponent is checked before any arithmetic.
        """
        _require_int("exponent", n)
        if n < 0:
            raise ValueError("exponent must be a non-negative integer")
        a, b, c, d = self.a11, self.a12, self.a21, self.a22
        r11, r12, r21, r22 = 1, 0, 0, 1
        for bit in bin(n)[2:]:
            bc, t = r12 * r21, r11 + r22
            r11, r12, r21, r22 = r11 * r11 + bc, r12 * t, r21 * t, r22 * r22 + bc
            if bit == "1":
                r11, r12 = r11 * a + r12 * c, r11 * b + r12 * d
                r21, r22 = r21 * a + r22 * c, r21 * b + r22 * d
        return Mat2(r11, r12, r21, r22)


@dataclass(frozen=True)
class KeyMatrix:
    """Unimodular matrix admissible as the multiplier of a cipher key.

    Admissible means determinant +/-1, non-negative entries, and enough
    trace for the coding-sequence ratios to settle on the larger fixed
    point: trace > 2 with a positive diagonal when det = -1.  det = +1
    needs no check, since ad - bc = 1 with b, c >= 0 forces a, d >= 1;
    trace exactly 2 still converges, but only linearly, hence the warning.
    The bare-power family [[k, 1], [1, 0]] is admitted for every k >= 1;
    its ratio sequences are the classical k-Fibonacci quotients, which
    converge without the trace bound.  The paper's alpha, beta, gamma and
    delta are m's row-major entries, and its trace and det are m's.
    """

    m: Mat2

    def __post_init__(self):
        d = self.m.det()
        if d not in (1, -1):
            raise InvalidKey(f"key matrix must have determinant +1 or -1, got {d}")
        if any(e < 0 for e in self.m.entries()):
            raise InvalidKey("key matrix entries must be non-negative")
        t = self.m.trace()
        if self.m.a12 == 1 and self.m.a22 == 0:  # the bare-power shape
            if self.m.a11 < 1:
                raise InvalidKey("bare-power key needs its top-left entry >= 1")
        elif d == -1:
            if t <= 2 or self.m.a11 < 1 or self.m.a22 < 1:
                raise InvalidKey(
                    "det -1 keys need trace > 2 and both diagonal entries >= 1"
                )
        elif t == 2:
            warnings.warn(
                "trace-2 key: ratio convergence is not exponential",
                DegenerateConvergenceWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class SeedPair:
    """Start values of the two coding sequences."""

    a0: int
    b0: int

    def __post_init__(self):
        _require_int("a0", self.a0)
        _require_int("b0", self.b0)
        if self.a0 < 0 or self.b0 < 0:
            raise InvalidKey("seed values must be non-negative")
        if self.a0 == 0 and self.b0 == 0:
            raise InvalidKey("seed (0, 0) is degenerate")


def coding_entries(alpha: int, beta: int, gamma: int, delta: int, a0: int, b0: int):
    """Row-major entries (A(n+1), A(n), B(n+1), B(n)) of M(0), M(1), M(2), ...

    M(0) = [[alpha*a0 + beta*b0, a0], [gamma*a0 + delta*b0, b0]], and both
    columns advance by x(n+1) = t*x(n) - d*x(n-1) with t and d the trace and
    determinant of U = [[alpha, beta], [gamma, delta]] (Cayley-Hamilton), so
    M(n) = U^n @ M(0).  The parameters are plain ints with no admissibility
    check: the attacks walk multipliers that KeyMatrix rejects.
    """
    t, d = alpha + delta, alpha * delta - beta * gamma
    a_prev, b_prev = a0, b0
    a_cur, b_cur = alpha * a0 + beta * b0, gamma * a0 + delta * b0
    while True:
        yield a_cur, a_prev, b_cur, b_prev
        a_prev, a_cur = a_cur, t * a_cur - d * a_prev
        b_prev, b_cur = b_cur, t * b_cur - d * b_prev


@dataclass(frozen=True)
class CodingMatrix:
    """Encryption multiplier [[A(n+1), A(n)], [B(n+1), B(n)]] and its plain-int view.

    Since M(n) = U^n @ M(0), det = det M(0) * det(U)^n exactly, so det is 0
    exactly when M(0) is singular.  build_coding_matrix stores, once, what
    every block reads: det, the adjugate's row-major entries, and forward, the table of
    cipher._row_plaintext.  The row-ratio interval needs no table: a row
    lies in it exactly when its real plaintext row, by det and adj, is
    non-negative (cipher.verify_package).  forward is (s, mask, k11, k12, k21, k22, lim): s
    the 2-adic valuation of det, mask = 2^(FORWARD_BITS + s) - 1, k the
    row-major entries of adj(M(n)) * (det >> s)^-1 mod 2^(FORWARD_BITS + s),
    so (c1, c2) @ k = 2^s * (x, y) modulo mask + 1 for every row
    (c1, c2) = (x, y) @ M(n), and lim = min(A(n+1), B(n+1)) << FORWARD_BITS:
    M(n) >= 0, so a non-negative row with first entry c1 < lim has both
    entries below 2^FORWARD_BITS.  It is None when det is 0 or the largest
    entry has at most FORWARD_MIN_BITS bits.  Two per-key values are built
    on first use by a block that is not intact.  column_lines, read by
    correct, is the table of the lines that keep one entry of a received
    row: per column, its gcd, the step of x along the line and the modular
    inverse that finds the line's first point.  adj_residues, read by
    cipher._verdict, is the adjugate mod det.
    """

    matrix: Mat2
    det: int
    adj: tuple[int, int, int, int]
    forward: tuple[int, int, int, int, int, int, int] | None

    @cached_property
    def column_lines(self) -> tuple[tuple[int, int | None, int | None], ...]:
        """Per column j, line_step(M[0][j], M[1][j]): what repair needs to list
        the points of the line x*M[0][j] + y*M[1][j] = c that keeps entry j of
        a received row.  At n = 100 the gcd and the inverse of the ~370-bit
        entries take about 39 us per column, more than a typical repair, so
        the table is built on first use, once per key, and never for keys
        that only encrypt and decrypt.
        """
        m11, m12, m21, m22 = self.matrix.entries()
        return line_step(m11, m21), line_step(m12, m22)

    @cached_property
    def adj_residues(self) -> tuple[int, int, int, int]:
        """The adjugate's row-major entries mod det: what cipher._verdict
        reduces a row of C against to name the first entry of C @ adj(M(n))
        that det does not divide.  Built on first use, once per key, so a
        block that fails pays no big-int reduction of adj(M(n)).
        """
        det = self.det
        return tuple(j % det for j in self.adj)


def line_step(a: int, b: int) -> tuple[int, int | None, int | None]:
    """(g, m, inv) of the lines a*x + b*y = c: g = gcd(a, b), m = |b|/g the
    step of x from one integer point to the next, and inv the inverse of a/g
    modulo m, so the point with x in [0, m) has x = (c/g) * inv mod m.  m and
    inv are None when b = 0, where x is fixed and y is free."""
    g = gcd(a, b)
    if b == 0:
        return g, None, None
    m = abs(b) // g
    return g, m, pow(a // g, -1, m)  # pow(., -1, 1) is 0


def _check_entry_size(m: Mat2) -> None:
    """InvalidKey when both rows of m hold an entry of more than 4 * MAX_HEX_CHARS
    bits: a non-negative M(n) like that puts such an entry in every row of C
    = P @ M(n) that is not zero, so its key could send only all-zero blocks."""
    if min(max(m.a11, m.a12), max(m.a21, m.a22)).bit_length() > 4 * MAX_HEX_CHARS:
        raise InvalidKey(
            f"M(n) has in both rows an entry past the {MAX_HEX_CHARS}-character hex "
            "limit of a package: the key could send only all-zero blocks"
        )


def build_coding_matrix(key: KeyMatrix, seed: SeedPair, n: int) -> CodingMatrix:
    """M(n) = U^n @ M(0) for this key and seed, with its plain-int view.

    U^n comes by repeated squaring, so the build costs O(log n) big-int
    products, and M(n) equals entry n of coding_entries.  Entries grow
    geometrically with n, hence the cap DEFAULT_MAX_EXPONENT, checked
    before any arithmetic.  A key whose entries may pass the package limit
    (their bit length is at most n*(b + 1) + bits(M(0)) + 1, b the bit length
    of U's largest entry) is then tried on the squares U^(2^j), 2^j <= n:
    _check_entry_size refuses it once one has both rows past the limit, before
    any bigger product; CipherKey checks the rest on M(n) itself.  The test
    never refuses a key whose M(n) is within the limit: for non-negative
    integer matrices, right-multiplying by one with no zero row never
    shrinks a row's largest entry, and left-multiplying by one makes each
    row at least some row of the other, so M(n) = U^(n - 2^j) @ U^(2^j) @
    M(0) has both rows past the limit too.  U has no zero row, nor has M(0)
    unless it is singular; and a singular M(0) needs U = [[1, b], [0, 1]] or
    [[1, 0], [c, 1]], whose powers keep a row of 0 and 1, so the test never
    fires on such a key, nor at n = 0: CipherKey's seed errors come first.
    """
    _require_int("exponent", n)
    if n < 0:
        raise InvalidKey("exponent must be a non-negative integer")
    if n > DEFAULT_MAX_EXPONENT:
        raise InvalidKey(f"exponent {n} exceeds the cap {DEFAULT_MAX_EXPONENT}")
    m, x, y = key.m, seed.a0, seed.b0
    m0 = Mat2(m.a11 * x + m.a12 * y, x, m.a21 * x + m.a22 * y, y)  # [[A(1), A(0)], [B(1), B(0)]]
    b = max(m.entries()).bit_length()
    if n * (b + 1) + max(m0.entries()).bit_length() + 1 > 4 * MAX_HEX_CHARS:
        square = m
        for j in range(n.bit_length()):  # U^(2^j) for every 2^j <= n
            if j:
                square @= square
            _check_entry_size(square)
    mn = (m ** n) @ m0
    a1, a0, b1, b0 = mn.entries()
    det, adj = m0.det() * m.det()**n, (b0, -a0, -b1, a1)
    forward = None
    if det and max(a1, a0, b1, b0).bit_length() > FORWARD_MIN_BITS:
        s = (det & -det).bit_length() - 1
        mask = (1 << (FORWARD_BITS + s)) - 1
        inv = pow(det >> s, -1, mask + 1)
        forward = (s, mask, *(e * inv & mask for e in adj), min(a1, b1) << FORWARD_BITS)
    return CodingMatrix(mn, det, adj, forward)
