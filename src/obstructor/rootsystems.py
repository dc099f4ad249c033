"""Root systems in simple-root coordinates.

A root is stored as an integer coefficient vector over the ordered simple
roots.  Classical families (A, B, C, D and the unreduced BC) are built from
their orthonormal-coordinate descriptions and converted; the exceptional
families are generated from their Cartan matrices by the usual root-string
algorithm.  Reducible systems are disjoint unions with block-diagonal
coordinates.

Conventions: simple roots are ordered along the diagram (chain order, with
the short/long special node last for B, C and BC, and the usual numbering
for D and E).  Multiplicities default to 1 and may be overridden per root.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

Vector = tuple[int, ...]

FAMILIES = ("A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2", "BC")

_FIXED_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4, "BC": 1}

# positive-root counts used as construction-time self checks
_POSITIVE_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "BC": lambda n: n * n + n,
    "E6": lambda n: 36,
    "E7": lambda n: 63,
    "E8": lambda n: 120,
    "F4": lambda n: 24,
    "G2": lambda n: 6,
}


class InvalidRank(ValueError):
    """Rank outside the allowed range for the requested family."""


class NotSimpleRoot(ValueError):
    """Argument was expected to be a simple root of the system."""


class RootSystemType:
    """A family/rank pair, e.g. C_3 or BC_1."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        if family not in FAMILIES:
            raise InvalidRank(f"unknown family {family!r}")
        if family in _FIXED_RANK:
            if rank != _FIXED_RANK[family]:
                raise InvalidRank(f"{family} has fixed rank {_FIXED_RANK[family]}, got {rank}")
        elif rank < _MIN_RANK[family]:
            raise InvalidRank(f"{family} requires rank >= {_MIN_RANK[family]}, got {rank}")
        self.family = family
        self.rank = rank

    @property
    def name(self) -> str:
        return self.family if self.family in _FIXED_RANK else f"{self.family}{self.rank}"

    @property
    def nonstandard(self) -> bool:
        # B_2 is accepted but sits below the usual irreducibility convention
        return self.family == "B" and self.rank == 2

    def __repr__(self) -> str:
        return f"RootSystemType({self.name})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootSystemType)
            and self.family == other.family
            and self.rank == other.rank
        )

    def __hash__(self) -> int:
        return hash((self.family, self.rank))


def _vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def _vneg(a: Vector) -> Vector:
    return tuple(-x for x in a)


def _unit(i: int, n: int) -> Vector:
    return tuple(1 if j == i else 0 for j in range(n))


def _solve_integer(basis: list[tuple[Fraction, ...]], target: tuple[Fraction, ...]) -> Vector:
    """Express target over the basis rows; coefficients must come out integral."""
    # augmented system: columns are basis vectors, rhs is the target
    m = len(basis[0])
    k = len(basis)
    aug = [[basis[j][i] for j in range(k)] + [target[i]] for i in range(m)]
    piv_cols: list[int] = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        scale = aug[r][c]
        aug[r] = [x / scale for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    coeffs = [Fraction(0)] * k
    for row_idx, c in enumerate(piv_cols):
        coeffs[c] = aug[row_idx][k]
    for i in range(m):
        if all(aug[i][c] == 0 for c in range(k)) and aug[i][k] != 0:
            raise ValueError("target not in the span of the basis")
    out = []
    for x in coeffs:
        if x.denominator != 1:
            raise ValueError("non-integral coefficient")
        out.append(int(x))
    return tuple(out)


def _classical_orthonormal(family: str, n: int):
    """Simple roots and positive roots in orthonormal coordinates."""
    F = Fraction

    def e(i: int, dim: int) -> tuple[Fraction, ...]:
        return tuple(F(1) if j == i else F(0) for j in range(dim))

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def smul(c, a):
        return tuple(F(c) * x for x in a)

    if family == "A":
        dim = n + 1
        simple = [sub(e(i, dim), e(i + 1, dim)) for i in range(n)]
        pos = [sub(e(i, dim), e(j, dim)) for i in range(dim) for j in range(dim) if i < j]
        return simple, pos

    dim = n
    chain = [sub(e(i, dim), e(i + 1, dim)) for i in range(n - 1)]
    pairs_minus = [sub(e(i, dim), e(j, dim)) for i, j in combinations(range(n), 2)]
    pairs_plus = [add(e(i, dim), e(j, dim)) for i, j in combinations(range(n), 2)]
    singles = [e(i, dim) for i in range(n)]
    doubles = [smul(2, e(i, dim)) for i in range(n)]

    if family == "B":
        return chain + [e(n - 1, dim)], pairs_minus + pairs_plus + singles
    if family == "C":
        return chain + [smul(2, e(n - 1, dim))], pairs_minus + pairs_plus + doubles
    if family == "D":
        return chain + [add(e(n - 2, dim), e(n - 1, dim))], pairs_minus + pairs_plus
    if family == "BC":
        if n == 1:
            return [e(0, 1)], [e(0, 1), smul(2, e(0, 1))]
        return chain + [e(n - 1, dim)], pairs_minus + pairs_plus + singles + doubles
    raise InvalidRank(family)


# Cartan data M[j][i] = 2(a_j, a_i)/(a_i, a_i) for the exceptional families.
def _cartan_matrix(family: str, n: int) -> list[list[int]]:
    M = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, mij=-1, mji=-1):
        M[i][j] = mij
        M[j][i] = mji

    if family in ("E6", "E7", "E8"):
        edges = [(0, 2), (2, 3), (3, 4), (4, 5)]
        if n >= 7:
            edges.append((5, 6))
        if n >= 8:
            edges.append((6, 7))
        edges.append((1, 3))
        for i, j in edges:
            bond(i, j)
    elif family == "F4":
        bond(0, 1)
        bond(1, 2, -2, -1)  # long node 1 against short node 2
        bond(2, 3)
    elif family == "G2":
        bond(0, 1, -1, -3)  # short node 0 against long node 1
    else:
        raise InvalidRank(family)
    return M


def _positive_roots_from_cartan(M: list[list[int]]) -> list[Vector]:
    """Generate positive roots of a reduced system by root strings."""
    n = len(M)
    simples = [_unit(i, n) for i in range(n)]
    roots: set[Vector] = set(simples)
    layer = list(simples)
    while layer:
        new: list[Vector] = []
        for beta in layer:
            for i in range(n):
                down = 0
                v = list(beta)
                while True:
                    v[i] -= 1
                    if tuple(v) in roots:
                        down += 1
                    else:
                        break
                pairing = sum(beta[j] * M[j][i] for j in range(n))
                if down - pairing >= 1:
                    up = _vadd(beta, simples[i])
                    if up not in roots:
                        roots.add(up)
                        new.append(up)
        layer = new
    return sorted(roots)


def _component_positives(spec: RootSystemType) -> tuple[list[Vector], list[int]]:
    """Positive roots in local simple-root coordinates, plus doubled node indices."""
    fam, n = spec.family, spec.rank
    if fam in ("A", "B", "C", "D", "BC"):
        simple, pos = _classical_orthonormal(fam, n)
        converted = [_solve_integer(simple, p) for p in pos]
        doubled = []
        if fam == "BC":
            doubled = [n - 1]
        return sorted(converted), doubled
    return _positive_roots_from_cartan(_cartan_matrix(fam, n)), []


class RootSystem:
    """A (possibly unreduced, possibly reducible) root system.

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, components: list[RootSystemType], multiplicities=None):
        if not components:
            raise InvalidRank("at least one component required")
        self.components = tuple(components)
        self.rank = sum(c.rank for c in components)
        self.component_nodes: tuple[tuple[int, ...], ...] = ()
        positives: list[Vector] = []
        doubled: list[int] = []
        spans = []
        offset = 0
        for comp in components:
            local, comp_doubled = _component_positives(comp)
            expect = _POSITIVE_COUNT[comp.family](comp.rank)
            if len(local) != expect:
                raise AssertionError(
                    f"{comp.name}: built {len(local)} positive roots, expected {expect}"
                )
            for v in local:
                positives.append(
                    tuple([0] * offset + list(v) + [0] * (self.rank - offset - comp.rank))
                )
            doubled.extend(offset + i for i in comp_doubled)
            spans.append(tuple(range(offset, offset + comp.rank)))
            offset += comp.rank
        self.component_nodes = tuple(spans)
        self.positive_roots: tuple[Vector, ...] = tuple(sorted(positives))
        self.doubled_nodes = frozenset(doubled)
        self.simple: tuple[Vector, ...] = tuple(_unit(i, self.rank) for i in range(self.rank))
        self._root_set = frozenset(self.positive_roots) | frozenset(
            _vneg(v) for v in self.positive_roots
        )
        self.zero: Vector = tuple(0 for _ in range(self.rank))
        self._elements = self._root_set | {self.zero}
        self._mult: dict[Vector, int] = {}
        if multiplicities:
            for v, m in multiplicities.items():
                v = tuple(v)
                if v not in self._root_set:
                    raise ValueError(f"{v} is not a root")
                if m < 1:
                    raise ValueError("multiplicity must be a positive integer")
                self._mult[v] = int(m)
                self._mult[_vneg(v)] = int(m)

    # membership -----------------------------------------------------------

    @property
    def roots(self) -> frozenset[Vector]:
        return self._root_set

    def is_element(self, v) -> bool:
        """Membership in the set of roots together with zero."""
        v = tuple(v)
        if len(v) != self.rank:
            return False
        return v in self._elements

    def is_root(self, v) -> bool:
        return tuple(v) in self._root_set

    def multiplicity(self, v) -> int:
        v = tuple(v)
        if v not in self._root_set:
            raise ValueError(f"{v} is not a root")
        return self._mult.get(v, 1)

    # simple-root structure --------------------------------------------------

    def simple_index(self, v) -> int:
        v = tuple(v)
        for i, s in enumerate(self.simple):
            if s == v:
                return i
        raise NotSimpleRoot(f"{v} is not a simple root")

    def hat(self, alpha) -> Vector:
        """The doubled representative: 2a if 2a is a root, else a itself."""
        if isinstance(alpha, int):
            i = alpha
            if not 0 <= i < self.rank:
                raise NotSimpleRoot(f"index {i} out of range")
            v = self.simple[i]
        else:
            v = tuple(alpha)
            self.simple_index(v)
        double = tuple(2 * x for x in v)
        return double if double in self._root_set else v

    def adjacent(self, i: int, j: int) -> bool:
        """Diagram adjacency: the sum of two simple roots is a root iff joined."""
        return _vadd(self.simple[i], self.simple[j]) in self._root_set

    def component_of_node(self, i: int) -> tuple[int, ...]:
        for span in self.component_nodes:
            if i in span:
                return span
        raise NotSimpleRoot(f"index {i} out of range")

    # column subsystems ------------------------------------------------------

    def column_roots(self, i: int) -> tuple[Vector, ...]:
        """Positive roots supported on nodes 0..i with a positive i-th coefficient."""
        if not 0 <= i < self.rank:
            raise NotSimpleRoot(f"index {i} out of range")
        out = [
            v
            for v in self.positive_roots
            if v[i] > 0 and all(v[j] == 0 for j in range(i + 1, self.rank))
        ]
        for a, b in combinations(out, 2):
            s = _vadd(a, b)
            if s in self._root_set and not (
                s[i] > 0 and all(s[j] == 0 for j in range(i + 1, self.rank))
            ):
                raise AssertionError("column root set is not closed under addition")
        return tuple(out)

    def column_dimension(self, i: int) -> int:
        """Multiplicity-weighted size of the i-th column root set."""
        return sum(self.multiplicity(v) for v in self.column_roots(i))

    def max_coefficient(self) -> int:
        return max(max(v) for v in self.positive_roots)

    # serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        fam = "+".join(c.name for c in self.components)
        data = {
            "family": fam,
            "rank": self.rank,
            "simple": [list(v) for v in self.simple],
            "positives": [list(v) for v in self.positive_roots],
            "multiplicity": {
                str(i): self.multiplicity(v) for i, v in enumerate(self.positive_roots)
            },
        }
        if any(c.nonstandard for c in self.components):
            data["nonstandard_rank"] = True
        return data

    def __repr__(self) -> str:
        return f"RootSystem({'+'.join(c.name for c in self.components)})"


def build_root_system(spec, multiplicities=None) -> RootSystem:
    """Build a root system from a RootSystemType, a (family, rank) pair, or a list."""
    if isinstance(spec, RootSystemType):
        comps = [spec]
    elif isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], str):
        comps = [RootSystemType(*spec)]
    else:
        comps = [s if isinstance(s, RootSystemType) else RootSystemType(*s) for s in spec]
    return RootSystem(comps, multiplicities=multiplicities)
