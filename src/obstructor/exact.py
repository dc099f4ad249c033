"""Square matrices over exact rationals."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, repeat
from operator import add, mul


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
    def from_entries(cls, n: int, entries: dict) -> "ExactMatrix":
        """The identity with `entries` at 1-based positions (i, j), each in 1..n."""
        rows = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        for (i, j), v in entries.items():
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"position ({i},{j}) is outside 1..{n}")
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
        scaled, den = self.scaled_int()
        d, adj = int_det_adjugate(scaled)
        if d == 0:
            raise Singular("matrix is singular")
        # (scaled / den)^-1 = den adj(scaled) / det(scaled)
        return ExactMatrix([[Fraction(den * x, d) for x in row] for row in adj])

    def max_abs(self) -> Fraction:
        return max(abs(x) for row in self.rows for x in row)

    def scaled_int(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(den * self) as an integer matrix together with den."""
        den = math.lcm(*(x.denominator for row in self.rows for x in row))
        scaled = tuple(
            tuple(int(x.numerator * (den // x.denominator)) for x in row) for row in self.rows
        )
        return scaled, den

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"ExactMatrix[{body}]"


# integer matrix helpers (used by the certification fast paths) ----------------

IntRows = tuple[tuple[int, ...], ...]


def int_matmul(a: IntRows, b: IntRows) -> IntRows:
    cols = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def int_det_adjugate(a: IntRows) -> tuple[int, IntRows]:
    """(det a, adj a) of any square integer matrix, singular or 0 x 0 included.

    Faddeev-LeVerrier (Faddeev & Sominsky, 1949): with M_1 = I, the
    characteristic polynomial's coefficients are c_k = -tr(a M_k)/k, every
    division exact, and M_(k+1) = a M_k + c_k I.  After n steps
    det a = (-1)^n c_n and adj a = (-1)^(n+1) M_n, with no pivot to fail.
    """
    n = len(a)
    # a M_0 = 0 and the leading coefficient 1 make the first step M_1 = I
    m = am = ((0,) * n,) * n
    c = 1
    for k in range(1, n + 1):
        m = tuple(tuple(x + c if i == j else x for j, x in enumerate(row)) for i, row in enumerate(am))
        am = int_matmul(a, m)
        c = -sum(am[i][i] for i in range(n)) // k
    sign = (-1) ** n
    return sign * c, tuple(tuple(-sign * x for x in row) for row in m)


def int_adjugate(a: IntRows) -> IntRows:
    n = len(a)
    # unrolled: 11,648 of 12,272 calls a diverge round, 2.4 us against 56 us in the kernel
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
    return int_det_adjugate(a)[1]


def int_matmax(a: IntRows, b_t: IntRows) -> int:
    """max |entry| of a @ b, with b given transposed; no product materialized."""
    n = len(a)
    best = 0
    # unrolled: 19,392 calls a diverge round (606 exact pairs x 8 combos x 2 radii x 2), 4.7 us
    # against 9.0 us in the loop below; without it a round takes 0.64 s, not 0.58 s
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
    # unrolled: 21,760 calls a diverge round (85 x 64 x 2 x 2), 3.0 us against 6.5 us in the
    # loop below; without it a round takes 0.64 s, not 0.58 s
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
            s = sum(map(mul, ar, br))
            if s < 0:
                s = -s
            if s > best:
                best = s
    return best


def int_max_abs(a: IntRows) -> int:
    return max(map(abs, chain.from_iterable(a)))


# integer matrix polynomials: lists of coefficients, constant term first ------


def int_poly_matmul(p: list[IntRows], q: list[IntRows]) -> list[IntRows]:
    """The product of two matrix polynomials."""
    out = [None] * (len(p) + len(q) - 1)
    for a, pa in enumerate(p):
        for b, qb in enumerate(q):
            prod = int_matmul(pa, qb)
            acc = out[a + b]
            out[a + b] = prod if acc is None else tuple(map(tuple, map(map, repeat(add), acc, prod)))
    return out


def unipotent_adjugate(n: int, ys: list[IntRows], den: int) -> list[list[int]] | None:
    """adj(den I + Y(t)) as flat n*n coefficient rows, or None if Y^n != 0.

    ys[k - 1] is the coefficient of t^k in the n x n matrix polynomial Y.
    Y^n = 0, checked on the coefficients, gives det(den I + Y(t)) = den^n at
    every t, and then adj = sum_{k<n} (-1)^k den^(n-1-k) Y^k.
    """
    # powers[k - 1] is Y^k, as coefficients of t^k, t^(k+1), ...; the first
    # power that vanishes ends the list
    powers = []
    power = ys
    while any(chain.from_iterable(chain.from_iterable(power))) and len(powers) < n:
        powers.append(power)
        power = int_poly_matmul(power, ys)
    if len(powers) == n:
        return None
    adj = [[0] * (n * n) for _ in range(len(ys) * (n - 1) + 1)]
    adj[0][::n + 1] = [den ** (n - 1)] * n
    for k, power in enumerate(powers, 1):
        scale = (-1) ** k * den ** (n - 1 - k)
        for d, c in enumerate(power, k):
            adj[d] = list(map(add, adj[d], map(mul, chain.from_iterable(c), repeat(scale))))
    return adj


def int_poly_max_abs(polys, floor: int, radii) -> list[int]:
    """max(floor, |p(t)| over the integer polynomials p) at each radius t >= 0.

    A single term c t^k is |c| t^k, so only the largest |c| of each degree k
    counts, and p and -p give the same |p(t)|: only polynomials with
    several terms are evaluated, one of each +- pair.
    """
    top = {0: floor}
    several = set()
    for poly in set(polys):
        terms = [(k, c) for k, c in enumerate(poly) if c]
        if len(terms) == 1:
            (k, c), = terms
            top[k] = max(top.get(k, 0), abs(c))
        elif terms:
            several.add(poly if terms[-1][1] > 0 else tuple(-c for c in poly))
    best = [top.pop(0)] * len(radii)
    for k, c in top.items():
        best = list(map(max, best, [c * t ** k for t in radii]))
    for poly in several:
        head, *rest = reversed(poly)
        v = [head] * len(radii)
        for c in rest:
            v = [x * t + c for x, t in zip(v, radii)]
        best = list(map(max, best, map(abs, v)))
    return best
