from fractions import Fraction
from itertools import combinations

import pytest

from obstructor import ExactMatrix, InvalidRank, NotSimpleRoot, build_root_system
from obstructor.rootsystems import RootSystemType

ALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
    + [("BC", n) for n in range(1, 9)]
)

COUNT = {
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


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_positive_counts_and_negation_closure(fam, rank):
    rs = build_root_system((fam, rank))
    assert len(rs.positive_roots) == COUNT[fam](rank)
    for v in rs.roots:
        assert tuple(-x for x in v) in rs.roots
    for v in rs.positive_roots:
        assert all(x >= 0 for x in v)


def test_bc1_is_the_four_element_system():
    rs = build_root_system(("BC", 1))
    assert sorted(rs.roots) == [(-2,), (-1,), (1,), (2,)]
    assert rs.hat(0) == (2,)


def test_a2_enumeration_oracle():
    # independent oracle: e_i - e_j in R^3, converted by hand
    # e1-e2 = a1, e2-e3 = a2, e1-e3 = a1+a2
    rs = build_root_system(("A", 2))
    assert len(rs.roots) == 6
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}


def test_c2_positives_match_orthonormal_description():
    # y1-y2 = a, 2y2 = b, y1+y2 = a+b, 2y1 = 2a+b
    rs = build_root_system(("C", 2))
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1), (2, 1)}


def test_hat_map():
    rs = build_root_system(("A", 4))
    for i in range(4):
        assert rs.hat(i) == rs.simple[i]
    rs = build_root_system(("BC", 3))
    assert rs.hat(2) == (0, 0, 2)
    assert rs.hat(0) == (1, 0, 0)
    assert rs.hat(rs.simple[2]) == (0, 0, 2)
    with pytest.raises(NotSimpleRoot):
        rs.hat((1, 1, 0))


def test_is_element():
    rs = build_root_system(("A", 2))
    assert rs.is_element((0, 0))
    assert rs.is_element((1, 1))
    assert not rs.is_element((2, 0))
    assert not rs.is_element((1,))


def test_column_roots_a2():
    rs = build_root_system(("A", 2))
    assert set(rs.column_roots(0)) == {(1, 0)}
    assert set(rs.column_roots(1)) == {(0, 1), (1, 1)}


def test_column_roots_c_last_is_the_symmetric_block():
    n = 4
    rs = build_root_system(("C", n))
    col = rs.column_roots(n - 1)
    # shapes y_i + y_j (i < j) and 2 y_i: count n(n+1)/2
    assert len(col) == n * (n + 1) // 2
    assert rs.column_dimension(n - 1) == n * (n + 1) // 2


def test_column_dimension_a_family_counts_columns():
    n = 5
    rs = build_root_system(("A", n - 1))
    for i in range(n - 1):
        assert rs.column_dimension(i) == i + 1


def test_column_dimension_b_with_short_multiplicity():
    q, n = 3, 10
    base = build_root_system(("B", q))
    shorts = [v for v in base.positive_roots if v[q - 1] == 1 and all(x in (0, 1) for x in v)]
    assert len(shorts) == q
    rs = build_root_system(("B", q), multiplicities={v: n - 2 * q for v in shorts})
    assert rs.column_dimension(q - 1) == q * (q - 1) // 2 + q * (n - 2 * q)


@pytest.mark.parametrize("fam,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("BC", 2), ("G2", 2)])
def test_columns_partition_positives(fam, rank):
    rs = build_root_system((fam, rank))
    seen = []
    for i in range(rs.rank):
        seen.extend(rs.column_roots(i))
    assert sorted(seen) == sorted(rs.positive_roots)
    assert sum(rs.column_dimension(i) for i in range(rs.rank)) == sum(
        rs.multiplicity(v) for v in rs.positive_roots
    )


def test_sum_property_membership_consistency():
    rs = build_root_system(("G2", 2))
    for a in rs.roots:
        for b in rs.roots:
            s = tuple(x + y for x, y in zip(a, b))
            assert rs.is_element(s) == (s in rs.roots or all(x == 0 for x in s))


def _string_generated(cartan):
    """Independent positive-root generation from a Cartan matrix."""
    n = len(cartan)
    simples = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(n):
                down = 0
                v = list(beta)
                while True:
                    v[i] -= 1
                    if tuple(v) in roots:
                        down += 1
                    else:
                        break
                pair = sum(beta[j] * cartan[j][i] for j in range(n))
                if down - pair >= 1:
                    up = tuple(x + (1 if k == i else 0) for k, x in enumerate(beta))
                    if up not in roots:
                        roots.add(up)
                        new.append(up)
        frontier = new
    return roots


def test_classical_families_match_string_generation():
    # the library builds every family from its own Cartan matrix; write the
    # classical ones out here as perturbed chains and compare exactly.
    def chain(n):
        return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]

    for fam, rank in [("A", 5), ("B", 4), ("C", 4), ("D", 5)]:
        m = chain(rank)
        if fam == "B":
            m[rank - 2][rank - 1] = -2
        if fam == "C":
            m[rank - 1][rank - 2] = -2
        if fam == "D":
            m[rank - 1][rank - 2] = m[rank - 2][rank - 1] = 0
            m[rank - 1][rank - 3] = m[rank - 3][rank - 1] = -1
        rs = build_root_system((fam, rank))
        assert set(rs.positive_roots) == _string_generated(m), (fam, rank)


def _classical_orthonormal(family, n):
    """Simple and positive roots of a classical family in orthonormal coordinates."""
    dim = n + 1 if family == "A" else n

    def e(*terms):
        v = [0] * dim
        for i, c in terms:
            v[i] += c
        return tuple(v)

    pairs = list(combinations(range(dim), 2))
    minus = [e((i, 1), (j, -1)) for i, j in pairs]
    chain = [e((i, 1), (i + 1, -1)) for i in range(dim - 1)]
    if family == "A":
        return chain, minus
    plus = [e((i, 1), (j, 1)) for i, j in pairs]
    singles = [e((i, 1)) for i in range(n)]
    doubles = [e((i, 2)) for i in range(n)]
    return {
        "B": (chain + [e((n - 1, 1))], minus + plus + singles),
        "C": (chain + [e((n - 1, 2))], minus + plus + doubles),
        "D": (chain + [e((n - 2, 1), (n - 1, 1))], minus + plus),
        "BC": (chain + [e((n - 1, 1))], minus + plus + singles + doubles),
    }[family]


def _orthonormal_route(family, n):
    """Positive roots over the simple roots by an exact Gram solve, and the doubled nodes."""
    simple, positives = _classical_orthonormal(family, n)

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    gram_inv = ExactMatrix([[dot(a, b) for b in simple] for a in simple]).inverse().rows
    coords = []
    for v in positives:
        rhs = [dot(a, v) for a in simple]
        c = [sum(g * r for g, r in zip(row, rhs)) for row in gram_inv]
        assert all(x.denominator == 1 for x in c), (family, n, v)
        c = tuple(int(x) for x in c)
        assert tuple(sum(ci * a[k] for ci, a in zip(c, simple)) for k in range(len(v))) == v
        coords.append(c)
    doubled = {i for i in range(n) if tuple(2 * (k == i) for k in range(n)) in coords}
    return sorted(coords), doubled


@pytest.mark.parametrize("fam,rank", [t for t in ALL_TYPES if t[0] in ("A", "B", "C", "D", "BC")])
def test_classical_families_match_orthonormal_route(fam, rank):
    # independent oracle: the textbook orthonormal description, converted
    rs = build_root_system((fam, rank))
    positives, doubled = _orthonormal_route(fam, rank)
    assert list(rs.positive_roots) == positives
    assert rs.doubled_nodes == doubled


def test_highest_root_coefficients_bc():
    # largest root has node coefficients 2,...,2,1 over the doubled last node,
    # i.e. 2,...,2,2 over the plain simple roots
    n = 5
    rs = build_root_system(("BC", n))
    theta = max(rs.positive_roots, key=sum)
    assert theta == (2,) * n
    hat_last = rs.hat(n - 1)
    assert hat_last == (0,) * (n - 1) + (2,)
    # coefficient over the doubled node is 1: theta - 1*hat_last stays nonnegative
    assert tuple(t - h for t, h in zip(theta, hat_last)) == (2,) * (n - 1) + (0,)


def test_reducible_block_structure():
    rs = build_root_system([("A", 2), ("C", 2)])
    assert rs.rank == 4
    assert len(rs.positive_roots) == 3 + 4
    assert rs.component_nodes == ((0, 1), (2, 3))
    for v in rs.positive_roots:
        assert all(x == 0 for x in v[:2]) or all(x == 0 for x in v[2:])


def test_invalid_ranks_rejected():
    for fam, rank in [("D", 3), ("C", 1), ("B", 1), ("BC", 0), ("E6", 5), ("A", 0)]:
        with pytest.raises(InvalidRank):
            build_root_system((fam, rank))
    with pytest.raises(InvalidRank):
        RootSystemType("H", 2)


def test_multiplicity_validation():
    rs = build_root_system(("A", 2))
    with pytest.raises(ValueError):
        build_root_system(("A", 2), multiplicities={(2, 0): 2})
    with pytest.raises(ValueError):
        build_root_system(("A", 2), multiplicities={(1, 0): 0})
    rs = build_root_system(("A", 2), multiplicities={(1, 0): 3})
    assert rs.multiplicity((1, 0)) == 3
    assert rs.multiplicity((-1, 0)) == 3
    assert rs.multiplicity((0, 1)) == 1


def test_json_schema_and_flag():
    rs = build_root_system(("C", 2))
    data = rs.to_json()
    assert data["family"] == "C2"
    assert data["rank"] == 2
    assert data["simple"] == [[1, 0], [0, 1]]
    assert len(data["positives"]) == 4
    assert set(data["multiplicity"].values()) == {1}
    assert "nonstandard_rank" not in data
    assert build_root_system(("B", 2)).to_json()["nonstandard_rank"] is True
