"""Simplicial complexes: arrow complexes, signed doubles, joins, homology.

Complexes are stored by their maximal simplices (facets) over hashable
vertex labels.  Faces are enumerated in one place, `SimplicialComplex.faces`,
and only on demand, so large complexes stay cheap to build and join.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import gcd


@dataclass(frozen=True)
class SimplicialComplex:
    vertices: tuple
    facets: tuple[frozenset, ...]

    @classmethod
    def from_facets(cls, facets, vertices=None, assume_maximal=False) -> "SimplicialComplex":
        """Vertices sorted by repr unless given, facets by their sorted vertex reprs;
        the empty set is no simplex and is dropped."""
        distinct = list(dict.fromkeys(filter(None, map(frozenset, facets))))
        if assume_maximal:
            keep = distinct
        else:
            keep = [f for f in distinct if not any(f < g for g in distinct)]
        key = {v: repr(v) for v in set().union(*keep)}
        if vertices is not None:
            vertices = tuple(vertices)
            if not key.keys() <= set(vertices):
                raise ValueError("facet vertex outside the vertex set")
        else:
            vertices = tuple(sorted(key, key=key.get))
        return cls(vertices=vertices, facets=tuple(sorted(keep, key=lambda s: sorted(map(key.get, s)))))

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1 if self.facets else -1

    def has_simplex(self, s) -> bool:
        s = frozenset(s)
        return any(s <= f for f in self.facets)

    def faces(self) -> list[list[tuple[int, ...]]]:
        """For k = 0..dim, the sorted k-simplices as sorted tuples of vertex positions.

        Each facet enters its own layer; then, top down, every k-simplex puts
        its k+1 faces (the tuple without slot d) into layer k-1.
        """
        pos = {v: i for i, v in enumerate(self.vertices)}
        layers = [set() for _ in range(self.dim + 1)]
        for f in self.facets:
            layers[len(f) - 1].add(tuple(sorted(pos[v] for v in f)))
        for k in range(self.dim, 0, -1):
            layers[k - 1].update(s[:d] + s[d + 1:] for s in layers[k] for d in range(k + 1))
        return [sorted(layer) for layer in layers]

    def simplices(self) -> set[frozenset]:
        """All nonempty simplices as vertex sets (materializes the closure)."""
        return {frozenset(map(self.vertices.__getitem__, s)) for layer in self.faces() for s in layer}

    def f_vector(self) -> tuple[int, ...]:
        return tuple(map(len, self.faces()))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * c for k, c in enumerate(self.f_vector()))

    def to_json(self) -> dict:
        idx = {v: i for i, v in enumerate(self.vertices)}
        return {
            "vertices": [str(v) for v in self.vertices],
            "maximal": [sorted(idx[v] for v in f) for f in self.facets],
        }

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.vertices)} vertices, {len(self.facets)} facets)"


def join(x: SimplicialComplex, y: SimplicialComplex) -> SimplicialComplex:
    """Join of two complexes; vertices are tagged if the label sets collide."""
    if set(x.vertices) & set(y.vertices):
        x = relabel(x, lambda v: (0, v))
        y = relabel(y, lambda v: (1, v))
    if not x.facets:
        return y
    if not y.facets:
        return x
    facets = [fx | fy for fx in x.facets for fy in y.facets]
    return SimplicialComplex.from_facets(
        facets, vertices=x.vertices + y.vertices, assume_maximal=True
    )


def relabel(x: SimplicialComplex, f) -> SimplicialComplex:
    return SimplicialComplex.from_facets(
        [{f(v) for v in fac} for fac in x.facets],
        vertices=tuple(f(v) for v in x.vertices),
    )


def join_sphere(k: int) -> SimplicialComplex:
    """The k-sphere triangulated as the (k+1)-fold join of 0-spheres."""
    if k < 0:
        raise ValueError("sphere dimension must be >= 0")
    facets = [frozenset((i, s) for i, s in enumerate(signs)) for signs in product((1, -1), repeat=k + 1)]
    return SimplicialComplex.from_facets(facets, assume_maximal=True)


def sphere_plus(k: int) -> SimplicialComplex:
    """The k-sphere with one extra isolated point."""
    s = join_sphere(k)
    return SimplicialComplex.from_facets(list(s.facets) + [frozenset({"pt"})])


# ---------------------------------------------------------------------------
# arrow complexes

def is_acyclic(arrows) -> bool:
    """Does the arrow set, viewed as a digraph, have no oriented cycle?

    Each pass drops every arrow whose tail no arrow enters: a cycle enters
    each of its nodes, so no dropped arrow lies on one.  A pass that drops
    nothing finds every tail entered, so walking back along the arrows
    never stops and, on finitely many nodes, comes round to a node again:
    a cycle.
    """
    arrows = set(arrows)
    while arrows:
        heads = {j for _, j in arrows}
        kept = {(i, j) for i, j in arrows if i in heads}
        if len(kept) == len(arrows):
            return False
        arrows = kept
    return True


def arrow_complex(n: int) -> SimplicialComplex:
    """Vertices are off-diagonal positions (i, j); facets are the arrow sets
    of total orders, so a vertex set is a simplex iff it is acyclic."""
    if n < 2:
        raise ValueError("need n >= 2")
    facets = []
    for perm in permutations(range(1, n + 1)):
        facets.append(frozenset((perm[a], perm[b]) for a in range(n) for b in range(a + 1, n)))
    vertices = tuple((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)
    return SimplicialComplex.from_facets(facets, vertices=vertices, assume_maximal=True)


def signed_double(x: SimplicialComplex) -> SimplicialComplex:
    """Double every vertex with a sign; simplices are the sign-injective lifts."""
    facets = []
    for f in x.facets:
        for signs in product((1, -1), repeat=len(f)):
            facets.append(frozenset(zip(f, signs)))
    vertices = tuple((v, s) for v in x.vertices for s in (1, -1))
    return SimplicialComplex.from_facets(facets, vertices=vertices, assume_maximal=True)


def sphere_preimage(simplex) -> SimplicialComplex:
    """The signed double of a single simplex: a sphere of the same dimension."""
    return signed_double(SimplicialComplex.from_facets([frozenset(simplex)]))


def obstructor_subcomplex(n: int) -> SimplicialComplex:
    """The distinguished subcomplex of the signed double of arrow_complex(n).

    For each column k = 2..n the signed positions (i, k), i < k, form a
    (k-2)-sphere (all sign choices) and the extra vertex ((k, k-1), +) is
    its added point; the whole complex is the join of these sphere-plus-point
    pieces.  Every facet is an acyclic signed arrow set, hence a simplex of
    the signed double: a cycle needs a downward arrow k -> k-1, present only
    when column k picks its point, and then the only arrow into k is
    k+1 -> k from column k+1's point, and so on up to a node with none.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    factor_choices = []
    for k in range(2, n + 1):
        sphere = [
            frozenset(((i, k), s) for i, s in zip(range(1, k), signs))
            for signs in product((1, -1), repeat=k - 1)
        ]
        point = frozenset({((k, k - 1), 1)})
        factor_choices.append(sphere + [point])
    facets = [frozenset().union(*picks) for picks in product(*factor_choices)]
    vertices = []
    for k in range(2, n + 1):
        vertices.extend(((i, k), s) for i in range(1, k) for s in (1, -1))
        vertices.append(((k, k - 1), 1))
    return SimplicialComplex.from_facets(facets, vertices=tuple(vertices), assume_maximal=True)


def column_factor_map(n: int):
    """Canonical bijection from obstructor_subcomplex(n) vertices to join labels.

    Column-k sphere vertex ((i, k), s) goes to factor k-2, slot i-1, sign s;
    the point ((k, k-1), +) goes to that factor's added point.
    """

    def f(v):
        (i, j), s = v
        if i < j:
            return (j - 2, (i - 1, s))
        return (i - 2, "pt")

    return f


def expected_column_join(n: int) -> SimplicialComplex:
    """The join of sphere-plus-point factors of dimensions 0..n-2."""
    out = relabel(sphere_plus(0), lambda v: (0, v))
    for k in range(1, n - 1):
        out = join(out, relabel(sphere_plus(k), lambda v: (k, v)))
    return out


def is_isomorphic_via(x: SimplicialComplex, y: SimplicialComplex, f) -> bool:
    """Does the explicit vertex map f carry x's facets exactly onto y's?"""
    image = {v: f(v) for v in x.vertices}
    if sorted(map(repr, image.values())) != sorted(map(repr, y.vertices)):
        return False
    mapped = {frozenset(map(image.get, fac)) for fac in x.facets}
    return mapped == set(y.facets)


# ---------------------------------------------------------------------------
# homology

def column_pivots(columns) -> dict[int, dict[int, int]]:
    """Reduce sparse integer columns {row: value} to pivots {lead row: pivot}.

    A column is reduced by the pivot at its leading (smallest) row, v <- a*v -
    b*pivot with b/a = v[lead]/pivot[lead] in lowest terms, until it is zero or
    leads at a free row, where it is kept divided by its gcd.  As a != 0 the
    span is kept, so the pivots count the rank over Q.  Columns are consumed.
    """
    pivots: dict[int, dict[int, int]] = {}
    for v in columns:
        while v:
            lead = min(v)
            p = pivots.get(lead)
            if p is None:
                g = gcd(*v.values())
                pivots[lead] = {i: x // g for i, x in v.items()} if g != 1 else v
                break
            g = gcd(p[lead], v[lead])
            a, b = p[lead] // g, v[lead] // g
            # entries are mostly +-1, so a == 1 and g == 1 usually spare a copy
            w = {i: a * x for i, x in v.items()} if a != 1 else v
            for i, x in p.items():
                y = w.get(i, 0) - b * x
                if y:
                    w[i] = y
                else:
                    w.pop(i, None)
            v = w
    return pivots


def exact_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix given as dense rows."""
    return len(column_pivots({i: x for i, x in enumerate(col) if x} for col in zip(*rows)))


def betti_numbers(x: SimplicialComplex) -> tuple[int, ...]:
    """Rational Betti numbers from sparse boundary columns, with clearing.

    Over x.faces(), column j of d_k is {index of the j-th k-simplex without
    slot d: (-1)**d}.  Ranks go top down, skipping each column of d_k whose
    index is the lead row i of a pivot of d_(k+1) (clearing; Chen-Kerber
    2011, Bauer-Kerber-Reininghaus 2014).  That pivot is a boundary, so a
    cycle c*e_i + sum_{l>i} c_l*e_l with c != 0: column i of d_k is in the
    span of the columns l > i, and by descending induction on i every
    skipped column is in the span of the kept ones.
    """
    layers = x.faces()
    top = len(layers) - 1
    ranks = [0] * (top + 2)
    cleared = {}
    for k in range(top, 0, -1):
        rows = {s: i for i, s in enumerate(layers[k - 1])}
        cleared = column_pivots({rows[s[:d] + s[d + 1:]]: (-1) ** d for d in range(k + 1)}
                                for j, s in enumerate(layers[k]) if j not in cleared)
        ranks[k] = len(cleared)
    return tuple(len(layers[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1))


def sphere_betti(k: int) -> tuple[int, ...]:
    if k == 0:
        return (2,)
    return (1,) + (0,) * (k - 1) + (1,)


# ---------------------------------------------------------------------------
# obstructor arithmetic

@dataclass(frozen=True)
class ObstructorShape:
    """A join of an optional plain sphere and sphere-plus-point factors."""

    sphere_dim: int | None
    plus_dims: tuple[int, ...]

    def __post_init__(self):
        dims = self.plus_dims if self.sphere_dim is None else (self.sphere_dim, *self.plus_dims)
        if any(type(k) is not int for k in dims):  # bool is an int subclass, and no dimension
            raise ValueError(f"dimensions must be integers, got {self.sphere_dim!r} and {self.plus_dims!r}")
        if self.sphere_dim is not None and self.sphere_dim < 0:
            raise ValueError("sphere dimension must be >= 0")
        if any(k < 0 for k in self.plus_dims):
            raise ValueError("factor dimensions must be >= 0")
        if self.m < -1:
            raise ValueError("shape has m < -1")

    @property
    def m(self) -> int:
        r = len(self.plus_dims)
        total = sum(self.plus_dims) + 2 * r
        if self.sphere_dim is not None:
            return self.sphere_dim + total - 1
        return total - 2

    def describe(self) -> str:
        parts = []
        if self.sphere_dim is not None:
            parts.append(f"S^{self.sphere_dim}")
        parts.extend(f"S^{k}+" for k in self.plus_dims)
        return " * ".join(parts) if parts else "(empty)"
