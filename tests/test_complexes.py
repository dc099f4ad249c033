import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obstructor import (
    ObstructorShape,
    SimplicialComplex,
    arrow_complex,
    betti_numbers,
    column_factor_map,
    expected_column_join,
    is_acyclic,
    is_isomorphic_via,
    join,
    join_sphere,
    obstructor_subcomplex,
    signed_double,
    sphere_betti,
    sphere_plus,
    sphere_preimage,
)
from obstructor.complexes import column_pivots, exact_rank


def brute_acyclic(arrows):
    """Independent acyclicity oracle: some total order puts all arrows forward."""
    nodes = sorted({i for a in arrows for i in a})
    return any(
        all(order.index(i) < order.index(j) for i, j in arrows)
        for order in permutations(nodes)
    )


def test_arrow_complex_simplices_match_brute_force():
    c = arrow_complex(3)
    assert c.has_simplex({(1, 2), (2, 3), (1, 3)})
    assert not c.has_simplex({(1, 2), (2, 1)})
    for k in range(1, 4):
        for sub in combinations(c.vertices, k):
            assert c.has_simplex(sub) == brute_acyclic(sub), sub


def test_arrow_complex_f_vector_oracle():
    c = arrow_complex(3)
    counts = {}
    for k in range(1, 7):
        counts[k - 1] = sum(
            1 for sub in combinations(c.vertices, k) if brute_acyclic(sub)
        )
    fv = c.f_vector()
    assert fv == (6, 12, 6)
    assert all(counts.get(k, 0) == (fv[k] if k < len(fv) else 0) for k in range(6))
    assert c.euler_characteristic() == 0


def test_arrow_complex_betti_annulus():
    assert betti_numbers(arrow_complex(3)) == (1, 1, 0)


def test_signed_double_smalls():
    v = SimplicialComplex.from_facets([{"a"}])
    dv = signed_double(v)
    assert len(dv.vertices) == 2 and dv.dim == 0
    assert betti_numbers(dv) == sphere_betti(0)
    e = SimplicialComplex.from_facets([{"a", "b"}])
    de = signed_double(e)
    assert len(de.vertices) == 4 and len(de.facets) == 4
    assert betti_numbers(de) == sphere_betti(1)


def test_signed_double_of_c3():
    sc = signed_double(arrow_complex(3))
    assert len(sc.vertices) == 12
    for f in arrow_complex(3).facets:
        pre = sphere_preimage(f)
        assert len(pre.facets) == 2 ** 3
        assert betti_numbers(pre) == sphere_betti(2)


def test_lift_counts_c4():
    c = arrow_complex(4)
    for k in range(0, 4):
        for sub in combinations(c.vertices, k + 1):
            if not c.has_simplex(sub):
                continue
            pre = sphere_preimage(sub)
            assert len(pre.facets) == 2 ** (k + 1)


def test_signed_double_commutes_with_join():
    x = SimplicialComplex.from_facets([{"a", "b"}, {"b", "c"}])
    y = SimplicialComplex.from_facets([{1, 2}])
    lhs = signed_double(join(x, y))
    rhs = join(signed_double(x), signed_double(y))
    # same labels on both sides when the inputs have disjoint labels
    f = lambda v: v
    assert is_isomorphic_via(lhs, rhs, f)


def test_join_smalls():
    four_cycle = join(join_sphere(0), join_sphere(0))
    assert betti_numbers(four_cycle) == (1, 1)
    pt = SimplicialComplex.from_facets([{"p"}])
    cone = join(pt, four_cycle)
    assert betti_numbers(cone) == (1, 0, 0)
    s2 = join(join_sphere(0), four_cycle)
    assert betti_numbers(s2) == (1, 0, 1)


def test_boundary_of_simplex_betti():
    for k in (1, 2, 3):
        facets = [frozenset(c) for c in combinations(range(k + 2), k + 1)]
        x = SimplicialComplex.from_facets(facets)
        assert betti_numbers(x) == sphere_betti(k)


def test_reduced_euler_multiplicative_under_join():
    rng = random.Random(7)
    def rand_complex(tag):
        verts = [(tag, i) for i in range(4)]
        facets = []
        for _ in range(3):
            k = rng.randint(1, 3)
            facets.append(frozenset(rng.sample(verts, k)))
        return SimplicialComplex.from_facets(facets)

    for _ in range(6):
        x, y = rand_complex("x"), rand_complex("y")
        red = lambda z: z.euler_characteristic() - 1
        assert red(join(x, y)) == -red(x) * red(y)


def test_obstructor_subcomplex_small_cases():
    l2 = obstructor_subcomplex(2)
    assert len(l2.vertices) == 3
    assert is_isomorphic_via(l2, expected_column_join(2), column_factor_map(2))
    l3 = obstructor_subcomplex(3)
    assert len(l3.vertices) == 8
    assert is_isomorphic_via(l3, expected_column_join(3), column_factor_map(3))
    l4 = obstructor_subcomplex(4)
    sizes = sorted(
        len([v for v in l4.vertices if column_factor_map(4)(v)[0] == f]) for f in range(3)
    )
    assert sizes == [3, 5, 7]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_obstructor_subcomplex_sits_inside_signed_double(n):
    sc = signed_double(arrow_complex(n))
    for f in obstructor_subcomplex(n).facets:
        assert sc.has_simplex(f)


@pytest.mark.parametrize("n", [3, 4])
def test_is_acyclic_on_every_arrow_set(n):
    # acyclic iff some order of the nodes sends every arrow forward
    arrows = [(i, j) for i in range(n) for j in range(n) if i != j]
    orders = [{v: k for k, v in enumerate(p)} for p in permutations(range(n))]
    for mask in range(2 ** len(arrows)):
        chosen = [a for k, a in enumerate(arrows) if mask >> k & 1]
        expected = any(all(o[i] < o[j] for i, j in chosen) for o in orders)
        assert is_acyclic(chosen) == expected, chosen


def test_obstructor_subcomplex_facets_are_acyclic_all_n():
    for n in range(2, 7):
        for f in obstructor_subcomplex(n).facets:
            assert is_acyclic([pos for pos, _ in f])


def test_empty_facet_is_dropped():
    for x in (
        SimplicialComplex.from_facets([set()]),
        SimplicialComplex.from_facets([set()], assume_maximal=True),
    ):
        assert x.facets == () and x.dim == -1
        assert x.faces() == [] and x.f_vector() == () and betti_numbers(x) == ()
    for assume_maximal in (False, True):
        x = SimplicialComplex.from_facets([set(), {"a"}], assume_maximal=assume_maximal)
        assert x.facets == (frozenset({"a"}),)
        assert x.f_vector() == (1,) and betti_numbers(x) == (1,)
        assert x.euler_characteristic() == 1


def test_obstructor_m_examples():
    assert ObstructorShape(None, (0, 1)).m == 3
    for n in range(2, 10):
        assert ObstructorShape(None, tuple(range(n - 1))).m == n * (n + 1) // 2 - 3
    for n in range(2, 8):
        shape = ObstructorShape(n - 2, tuple(range(1, 2 * n - 2, 2)))
        assert shape.m == n * n + n - 4


def test_obstructor_m_monotone():
    base = ObstructorShape(None, (1, 2, 3))
    bigger = ObstructorShape(None, (1, 2, 4))
    more = ObstructorShape(None, (1, 2, 3, 0))
    assert bigger.m > base.m
    assert more.m > base.m
    with_sphere = ObstructorShape(0, (1, 2, 3))
    assert with_sphere.m > base.m


def test_shape_validation():
    with pytest.raises(ValueError):
        ObstructorShape(-1, (0,))
    with pytest.raises(ValueError):
        ObstructorShape(None, (-2,))
    with pytest.raises(ValueError):
        ObstructorShape(None, ())  # m = -2 < -1
    # dimensions are ints, not floats or bools
    for sphere_dim, plus_dims in [(None, (1.5,)), (True, (0,)), (1.0, (0,)), (None, (0, False)), (2, (1, 2.0))]:
        with pytest.raises(ValueError, match="dimensions must be integers"):
            ObstructorShape(sphere_dim, plus_dims)


def test_json_round_trip():
    c = arrow_complex(3)
    data = c.to_json()
    assert len(data["vertices"]) == 6
    assert all(len(f) == 3 for f in data["maximal"])
    assert all(all(isinstance(i, int) for i in f) for f in data["maximal"])


# ---------------------------------------------------------------------------
# exact rank against an independent elimination over the rationals

def fraction_rank(rows):
    """Reference rank: dense Gauss-Jordan elimination with exact fractions."""
    if not rows or not rows[0]:
        return 0
    m = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][col]
        m[rank] = [x / inv for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                c = m[r][col]
                m[r] = [a - c * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def transpose(rows, ncols):
    return [[row[j] for row in rows] for j in range(ncols)]


@st.composite
def int_matrices(draw):
    """Integer matrices with entries beyond +-1, returned as (rows, ncols) so
    empty shapes stay explicit.  Half are products B*C through an inner
    dimension of at most 3, so rank deficiency is common; some rows and
    columns are then zeroed."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7))
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), st.integers(-30, 30))
        rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    else:
        inner = draw(st.integers(0, 3))
        entry = st.integers(-5, 5)
        left = [[draw(entry) for _ in range(inner)] for _ in range(nrows)]
        right = [[draw(entry) for _ in range(ncols)] for _ in range(inner)]
        rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] if inner else [0] * ncols
                for row in left]
    for r in draw(st.lists(st.integers(0, max(nrows - 1, 0)), max_size=2)):
        if nrows:
            rows[r] = [0] * ncols
    for c in draw(st.lists(st.integers(0, max(ncols - 1, 0)), max_size=2)):
        for row in rows:
            if ncols:
                row[c] = 0
    return rows, ncols


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


@PROPERTY
@given(int_matrices())
@example(([], 0))
@example(([[]], 0))
@example(([[0, 0], [0, 0]], 2))
@example(([[6], [4], [-10]], 1))
@example(([[2, 4], [3, 6]], 2))
@example(([[1, 1, 0], [0, 1, 1], [1, 0, -1]], 3))
def test_exact_rank_matches_fraction_elimination(case):
    rows, _ = case
    assert exact_rank(rows) == fraction_rank(rows)


@PROPERTY
@given(int_matrices())
def test_exact_rank_of_transpose(case):
    rows, ncols = case
    assert exact_rank(rows) == exact_rank(transpose(rows, ncols))


@PROPERTY
@given(int_matrices(), st.integers(0, 6), st.integers(-9, 9).filter(bool))
def test_exact_rank_unchanged_by_scaling_a_row(case, r, c):
    rows, _ = case
    if not rows:
        return
    r %= len(rows)
    scaled = [[c * x for x in row] if i == r else row for i, row in enumerate(rows)]
    assert exact_rank(scaled) == exact_rank(rows)


@PROPERTY
@given(int_matrices())
@example(([[6], [4], [-10]], 1))
@example(([[2, 4], [3, 6]], 2))
def test_column_pivots_are_primitive_keyed_by_lead_row_and_span_the_columns(case):
    rows, ncols = case
    columns = [{i: x for i, x in enumerate(col) if x} for col in transpose(rows, ncols)]
    pivots = column_pivots(columns)
    rank = fraction_rank(rows)
    assert len(pivots) == rank
    for lead, p in pivots.items():
        assert min(p) == lead and gcd(*p.values()) == 1
    # each pivot lies in the columns' span: appending them keeps the rank
    extended = [row + [p.get(i, 0) for p in pivots.values()] for i, row in enumerate(rows)]
    assert fraction_rank(extended) == rank


# ---------------------------------------------------------------------------
# homology against closed forms

def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def column_join_betti(n):
    """Betti numbers of obstructor_subcomplex(n) by the join formula.

    The complex is the join of S^k + pt for k = 0..n-2.  The reduced
    Poincare polynomial of S^k + pt is 2 for k = 0 and 1 + t^k otherwise, and
    a join of r factors multiplies them and shifts by t^(r-1).  Adding 1 in
    degree 0 gives the unreduced Betti numbers.
    """
    poly = [0] * (n - 2) + [2]
    for k in range(1, n - 1):
        poly = _poly_mul(poly, [1] + [0] * (k - 1) + [1])
    poly[0] += 1
    return tuple(poly)


def test_column_join_betti_closed_form_values():
    assert column_join_betti(2) == (3,)
    assert column_join_betti(3) == (1, 2, 2)
    assert column_join_betti(4) == (1, 0, 2, 2, 2, 2)
    assert column_join_betti(5) == (1, 0, 0, 2, 2, 2, 4, 2, 2, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_obstructor_subcomplex_betti_matches_join_formula(n):
    assert betti_numbers(obstructor_subcomplex(n)) == column_join_betti(n)


def test_arrow_complex_betti_euler_characteristic():
    c = arrow_complex(4)
    betti = betti_numbers(c)
    chi = sum((-1) ** k * f for k, f in enumerate(c.f_vector()))
    assert sum((-1) ** k * b for k, b in enumerate(betti)) == chi


# ---------------------------------------------------------------------------
# homology of random complexes against dense boundary matrices

def reference_closure(x):
    """The closure as frozensets, by every combination of every facet."""
    return {frozenset(c) for f in x.facets for k in range(1, len(f) + 1) for c in combinations(f, k)}


def dense_betti(x):
    """Reference Betti numbers: the closure as frozensets sorted by repr,
    dense boundary rows, and ranks by fraction_rank."""
    by_dim = {}
    for s in reference_closure(x):
        by_dim.setdefault(len(s) - 1, []).append(tuple(sorted(s, key=repr)))
    if not by_dim:
        return ()
    for faces in by_dim.values():
        faces.sort(key=repr)
    top = max(by_dim)
    ranks = [0] * (top + 2)
    for k in range(1, top + 1):
        index = {s: i for i, s in enumerate(by_dim[k - 1])}
        rows = [[0] * len(by_dim[k]) for _ in by_dim[k - 1]]
        for j, s in enumerate(by_dim[k]):
            for d in range(k + 1):
                rows[index[s[:d] + s[d + 1:]]][j] = (-1) ** d
        ranks[k] = fraction_rank(rows)
    return tuple(len(by_dim[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1))


LABELS = (0, 1, 2, "a", "b", (0, 1), ("x", -1), 2.5, None, frozenset({3}))


@st.composite
def small_complexes(draw, max_vertices=7):
    """Complexes on at most max_vertices mixed labels, often holding the
    boundary of a simplex; some listed facets are faces of others, kept as
    facets half of the time."""
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=max_vertices, unique=True))
    face = st.sets(st.sampled_from(labels), min_size=1, max_size=4)
    facets = draw(st.lists(face, min_size=1, max_size=10))
    spheres = st.lists(st.sets(st.sampled_from(labels), min_size=2), max_size=2)
    for sphere in draw(spheres) if len(labels) > 1 else ():
        facets += [sphere - {v} for v in sphere]
    for f in draw(st.lists(st.sampled_from(facets), max_size=2)):
        facets.append(set(draw(st.sets(st.sampled_from(sorted(f, key=repr)), min_size=1))))
    vertices = labels if draw(st.booleans()) else None
    return SimplicialComplex.from_facets(facets, vertices=vertices, assume_maximal=draw(st.booleans()))


HOMOLOGY = settings(max_examples=200, deadline=None, derandomize=True)


@HOMOLOGY
@given(small_complexes())
def test_faces_match_the_combinations_closure(x):
    closure = reference_closure(x)
    pos = {v: i for i, v in enumerate(x.vertices)}
    expected = [sorted(tuple(sorted(pos[v] for v in s)) for s in closure if len(s) == k + 1)
                for k in range(x.dim + 1)]
    assert x.faces() == expected
    assert x.simplices() == closure
    assert x.f_vector() == tuple(map(len, expected))


@HOMOLOGY
@given(st.lists(st.sets(st.sampled_from(LABELS), max_size=4), max_size=8), st.booleans())
def test_from_facets_order_matches_the_repr_keys(facets, assume_maximal):
    x = SimplicialComplex.from_facets(facets, assume_maximal=assume_maximal)
    assert x.vertices == tuple(sorted(set().union(*facets), key=repr))
    assert list(x.facets) == sorted(x.facets, key=lambda s: sorted(map(repr, s)))
    assert frozenset() not in x.facets


@HOMOLOGY
@given(small_complexes())
def test_betti_numbers_match_dense_boundary_matrices(x):
    betti = betti_numbers(x)
    assert betti == dense_betti(x)
    assert sum((-1) ** k * b for k, b in enumerate(betti)) == x.euler_characteristic()


def _reduced(betti):
    return [b - (k == 0) for k, b in enumerate(betti)]


@HOMOLOGY
@given(small_complexes(max_vertices=4), small_complexes(max_vertices=4))
def test_betti_numbers_of_a_join_match_the_join_formula(x, y):
    """Over Q the reduced Poincare polynomial of x*y is t*P(x)*P(y)."""
    lhs = _reduced(betti_numbers(join(x, y)))
    rhs = [0] + _poly_mul(_reduced(dense_betti(x)), _reduced(dense_betti(y)))
    width = max(len(lhs), len(rhs))
    assert lhs + [0] * (width - len(lhs)) == rhs + [0] * (width - len(rhs))
