"""Root systems in simple-root coordinates.

A root is stored as an integer coefficient vector over the ordered simple
roots.  Every irreducible family is generated from its Cartan matrix by the
usual root-string algorithm; the unreduced BC_n is B_n together with 2a for
each short root a.  Reducible systems are disjoint unions with
block-diagonal coordinates.

Conventions: simple roots are ordered along the diagram (chain order, with
the short/long special node last for B, C and BC, and the usual numbering
for D and E).  Multiplicities default to 1 and may be overridden per root.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class RootSystemType:
    """A family/rank pair, e.g. C_3 or BC_1."""

    family: str
    rank: int

    def __post_init__(self):
        family, rank = self.family, self.rank
        if family not in FAMILIES:
            raise InvalidRank(f"unknown family {family!r}")
        if type(rank) is not int:  # bool is an int subclass, and no rank
            raise InvalidRank(f"rank must be an integer, got {rank!r}")
        if family in _FIXED_RANK:
            if rank != _FIXED_RANK[family]:
                raise InvalidRank(f"{family} has fixed rank {_FIXED_RANK[family]}, got {rank}")
        elif rank < _MIN_RANK[family]:
            raise InvalidRank(f"{family} requires rank >= {_MIN_RANK[family]}, got {rank}")

    @property
    def name(self) -> str:
        return self.family if self.family in _FIXED_RANK else f"{self.family}{self.rank}"

    @property
    def nonstandard(self) -> bool:
        # B_2 is accepted but sits below the usual irreducibility convention
        return self.family == "B" and self.rank == 2

    def __repr__(self) -> str:
        return f"RootSystemType({self.name})"


def _vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def _vneg(a: Vector) -> Vector:
    return tuple(-x for x in a)


def _unit(i: int, n: int) -> Vector:
    return tuple(1 if j == i else 0 for j in range(n))


# Cartan data M[j][i] = 2(a_j, a_i)/(a_i, a_i), nodes in diagram order.
def _cartan_matrix(family: str, n: int) -> list[list[int]]:
    M = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, mij=-1, mji=-1):
        M[i][j] = mij
        M[j][i] = mji

    if family in ("A", "B", "C", "D", "BC"):
        for i in range(n - 2):
            bond(i, i + 1)
        if family in ("B", "BC") and n >= 2:
            bond(n - 2, n - 1, -2, -1)  # short last node
        elif family == "C":
            bond(n - 2, n - 1, -1, -2)  # long last node
        elif family == "D":
            bond(n - 3, n - 1)  # nodes n-2 and n-1 both attach to n-3
        elif n >= 2:
            bond(n - 2, n - 1)
    elif family in ("E6", "E7", "E8"):
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
    pos = _positive_roots_from_cartan(_cartan_matrix(fam, n))
    if fam != "BC":
        return pos, []
    # BC_n is B_n together with 2a for each short root a (last coefficient 1)
    return sorted(pos + [tuple(2 * x for x in v) for v in pos if v[-1] == 1]), [n - 1]


class RootSystem:
    """A (possibly unreduced, possibly reducible) root system.

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, components: list[RootSystemType], multiplicities=None):
        if not components:
            raise InvalidRank("at least one component required")
        self.components = tuple(components)
        self.rank = sum(c.rank for c in components)
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
        self.component_nodes: tuple[tuple[int, ...], ...] = tuple(spans)
        self.positive_roots: tuple[Vector, ...] = tuple(sorted(positives))
        self.doubled_nodes = frozenset(doubled)
        self.simple: tuple[Vector, ...] = tuple(_unit(i, self.rank) for i in range(self.rank))
        self.roots: frozenset[Vector] = frozenset(self.positive_roots) | frozenset(
            _vneg(v) for v in self.positive_roots
        )
        # fixed for the life of the system, so computed once: each node's hat and
        # the largest root coefficient
        self._hats: tuple[Vector, ...] = tuple(
            d if (d := tuple(2 * x for x in a)) in self.roots else a for a in self.simple
        )
        self._max_coefficient = max(max(v) for v in self.positive_roots)
        self.zero: Vector = tuple(0 for _ in range(self.rank))
        # roots and zero: a set for membership, sorted once for iteration
        self._element_set = self.roots | {self.zero}
        self.elements: tuple[Vector, ...] = tuple(sorted(self._element_set))
        self._mult: dict[Vector, int] = {}
        if multiplicities:
            for v, m in multiplicities.items():
                v = tuple(v)
                if v not in self.roots:
                    raise ValueError(f"{v} is not a root")
                if type(m) is not int or m < 1:
                    raise ValueError(f"multiplicity must be a positive integer, got {m!r}")
                self._mult[v] = m
                self._mult[_vneg(v)] = m

    # membership -----------------------------------------------------------

    def is_element(self, v) -> bool:
        """Membership in the set of roots together with zero."""
        return tuple(v) in self._element_set

    def multiplicity(self, v) -> int:
        v = tuple(v)
        if v not in self.roots:
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
            if not 0 <= alpha < self.rank:
                raise NotSimpleRoot(f"index {alpha} out of range")
            return self._hats[alpha]
        return self._hats[self.simple_index(alpha)]

    def adjacent(self, i: int, j: int) -> bool:
        """Diagram adjacency: the sum of two simple roots is a root iff joined."""
        return _vadd(self.simple[i], self.simple[j]) in self.roots

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
            if s in self.roots and not (
                s[i] > 0 and all(s[j] == 0 for j in range(i + 1, self.rank))
            ):
                raise AssertionError("column root set is not closed under addition")
        return tuple(out)

    def column_dimension(self, i: int) -> int:
        """Multiplicity-weighted size of the i-th column root set."""
        return sum(self.multiplicity(v) for v in self.column_roots(i))

    def max_coefficient(self) -> int:
        """The largest coefficient of any root over the simple roots."""
        return self._max_coefficient

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
    if isinstance(spec, RootSystemType) or (
        isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], str)
    ):
        spec = [spec]
    comps = [s if isinstance(s, RootSystemType) else RootSystemType(*s) for s in spec]
    return RootSystem(comps, multiplicities=multiplicities)
