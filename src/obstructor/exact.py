"""Square matrices over exact rationals."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain


class Singular(ArithmeticError):
    """Inverse of a matrix with zero determinant was requested."""


class DimensionMismatch(ValueError):
    pass


class ExactMatrix:
    __slots__ = ("rows", "n")

    def __init__(self, rows):
        self.rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        self.n = len(self.rows)
        if any(len(r) != self.n for r in self.rows):
            raise DimensionMismatch("matrix must be square")

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_entries(cls, n: int, entries: dict, diagonal=1) -> "ExactMatrix":
        rows = [[Fraction(diagonal) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        for (i, j), v in entries.items():
            rows[i - 1][j - 1] = Fraction(v)
        return cls(rows)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.rows[i - 1][j - 1]

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} vs {other.n}")
        cols = list(zip(*other.rows))
        return ExactMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def inverse(self) -> "ExactMatrix":
        n = self.n
        m = [list(r) + [Fraction(1) if i == j else Fraction(0) for j in range(n)] for i, r in enumerate(self.rows)]
        for col in range(n):
            piv = next((r for r in range(col, n) if m[r][col] != 0), None)
            if piv is None:
                raise Singular("matrix is singular")
            m[col], m[piv] = m[piv], m[col]
            inv = m[col][col]
            m[col] = [x / inv for x in m[col]]
            for r in range(n):
                if r != col and m[r][col] != 0:
                    f = m[r][col]
                    m[r] = [a - f * b for a, b in zip(m[r], m[col])]
        return ExactMatrix([row[n:] for row in m])

    def max_abs(self) -> Fraction:
        return max(abs(x) for row in self.rows for x in row)

    def scaled_int(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(den * self) as an integer matrix together with den."""
        den = 1
        for row in self.rows:
            for x in row:
                den = den * x.denominator // math.gcd(den, x.denominator)
        scaled = tuple(
            tuple(int(x.numerator * (den // x.denominator)) for x in row) for row in self.rows
        )
        return scaled, den

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"ExactMatrix[{body}]"


def log_abs(x: Fraction) -> float:
    """log |x| computed from integer parts (safe for huge values)."""
    if x == 0:
        raise ValueError("log of zero")
    return math.log(abs(x.numerator)) - math.log(x.denominator)


# integer matrix helpers (used by the certification fast paths) ----------------

IntRows = tuple[tuple[int, ...], ...]


def int_matmul(a: IntRows, b: IntRows) -> IntRows:
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def int_det(a: IntRows) -> int:
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    total = 0
    rest = [row[1:] for row in a]
    for i in range(n):
        minor = tuple(tuple(rest[r]) for r in range(n) if r != i)
        term = a[i][0] * int_det(minor)
        total += term if i % 2 == 0 else -term
    return total


def int_adjugate(a: IntRows) -> IntRows:
    n = len(a)
    if n == 1:
        return ((1,),)
    if n == 2:
        (p, q), (r, s) = a
        return ((s, -q), (-r, p))
    if n == 3:
        (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
        return (
            (a22 * a33 - a23 * a32, a13 * a32 - a12 * a33, a12 * a23 - a13 * a22),
            (a23 * a31 - a21 * a33, a11 * a33 - a13 * a31, a13 * a21 - a11 * a23),
            (a21 * a32 - a22 * a31, a12 * a31 - a11 * a32, a11 * a22 - a12 * a21),
        )
    if n == 4:
        (a11, a12, a13, a14), (a21, a22, a23, a24), (a31, a32, a33, a34), (a41, a42, a43, a44) = a
        # 2x2 minors of the lower and upper halves (Laplace on row pairs)
        b12 = a31 * a42 - a32 * a41
        b13 = a31 * a43 - a33 * a41
        b14 = a31 * a44 - a34 * a41
        b23 = a32 * a43 - a33 * a42
        b24 = a32 * a44 - a34 * a42
        b34 = a33 * a44 - a34 * a43
        t12 = a11 * a22 - a12 * a21
        t13 = a11 * a23 - a13 * a21
        t14 = a11 * a24 - a14 * a21
        t23 = a12 * a23 - a13 * a22
        t24 = a12 * a24 - a14 * a22
        t34 = a13 * a24 - a14 * a23
        return (
            (
                a22 * b34 - a23 * b24 + a24 * b23,
                -(a12 * b34 - a13 * b24 + a14 * b23),
                a42 * t34 - a43 * t24 + a44 * t23,
                -(a32 * t34 - a33 * t24 + a34 * t23),
            ),
            (
                -(a21 * b34 - a23 * b14 + a24 * b13),
                a11 * b34 - a13 * b14 + a14 * b13,
                -(a41 * t34 - a43 * t14 + a44 * t13),
                a31 * t34 - a33 * t14 + a34 * t13,
            ),
            (
                a21 * b24 - a22 * b14 + a24 * b12,
                -(a11 * b24 - a12 * b14 + a14 * b12),
                a41 * t24 - a42 * t14 + a44 * t12,
                -(a31 * t24 - a32 * t14 + a34 * t12),
            ),
            (
                -(a21 * b23 - a22 * b13 + a23 * b12),
                a11 * b23 - a12 * b13 + a13 * b12,
                -(a41 * t23 - a42 * t13 + a43 * t12),
                a31 * t23 - a32 * t13 + a33 * t12,
            ),
        )
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = tuple(
                tuple(a[r][c] for c in range(n) if c != j) for r in range(n) if r != i
            )
            cof = int_det(minor)
            out[j][i] = cof if (i + j) % 2 == 0 else -cof
    return tuple(tuple(row) for row in out)


def int_matmax(a: IntRows, b_t: IntRows) -> int:
    """max |entry| of a @ b, with b given transposed; no product materialized."""
    n = len(a)
    best = 0
    if n == 4:
        for ar in a:
            x0, x1, x2, x3 = ar
            for br in b_t:
                s = x0 * br[0] + x1 * br[1] + x2 * br[2] + x3 * br[3]
                if s < 0:
                    s = -s
                if s > best:
                    best = s
        return best
    if n == 3:
        for ar in a:
            x0, x1, x2 = ar
            for br in b_t:
                s = x0 * br[0] + x1 * br[1] + x2 * br[2]
                if s < 0:
                    s = -s
                if s > best:
                    best = s
        return best
    for ar in a:
        for br in b_t:
            s = sum(x * y for x, y in zip(ar, br))
            if s < 0:
                s = -s
            if s > best:
                best = s
    return best


def int_max_abs(a: IntRows) -> int:
    return max(map(abs, chain.from_iterable(a)))
