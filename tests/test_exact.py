import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from obstructor import DimensionMismatch, ExactMatrix, Singular
from obstructor.exact import (
    int_adjugate,
    int_det_adjugate,
    int_matmax,
    int_matmul,
    int_max_abs,
    int_poly_max_abs,
    unipotent_adjugate,
)


def det(m: ExactMatrix) -> Fraction:
    """Reference determinant by Fraction Gaussian elimination."""
    rows = [list(r) for r in m.rows]
    n = m.n
    out = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            out = -out
        out *= rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return out


def rand_matrix(rng, n, den=3):
    return ExactMatrix(
        [[Fraction(rng.randint(-6, 6), rng.randint(1, den)) for _ in range(n)] for _ in range(n)]
    )


def test_inverse_and_product_are_exact():
    rng = random.Random(1)
    for n in (2, 3, 4):
        for _ in range(15):
            m = rand_matrix(rng, n)
            if det(m) == 0:
                continue
            assert m @ m.inverse() == ExactMatrix.identity(n)
            assert m.inverse() @ m == ExactMatrix.identity(n)


def test_singular_raises():
    with pytest.raises(Singular):
        ExactMatrix([[1, 2], [2, 4]]).inverse()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        ExactMatrix([[1, 0], [0, 1]]) @ ExactMatrix([[1]])
    with pytest.raises(DimensionMismatch):
        ExactMatrix([[1, 0]])


def test_det_matches_fraction_elimination():
    rng = random.Random(2)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            rows = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
            assert det(ExactMatrix(rows)) == int_det_adjugate(rows)[0]


def test_adjugate_identity():
    rng = random.Random(3)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            rows = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
            d = int_det_adjugate(rows)[0]
            prod = int_matmul(rows, int_adjugate(rows))
            assert prod == tuple(
                tuple(d if i == j else 0 for j in range(n)) for i in range(n)
            )


def test_matmax_agrees_with_full_product():
    rng = random.Random(4)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            a = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
            b = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
            full = int_matmul(a, b)
            assert int_matmax(a, tuple(zip(*b))) == max(abs(x) for r in full for x in r)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])  # 3 and 4 take the unrolled branches, the rest the loop
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matmax_agrees_with_int_matmul_on_big_entries(n, data):
    square = st.tuples(*[st.tuples(*[st.integers(-2 ** 80, 2 ** 80)] * n)] * n)
    a, b = data.draw(square), data.draw(square)
    full = int_matmul(a, b)
    assert int_matmax(a, tuple(zip(*b))) == max(abs(x) for row in full for x in row)


def test_scaled_int():
    m = ExactMatrix([[Fraction(1, 2), 1], [Fraction(3, 4), 0]])
    rows, den = m.scaled_int()
    assert den == 4
    assert rows == ((2, 4), (3, 0))


def test_from_entries_and_indexing():
    m = ExactMatrix.from_entries(3, {(1, 3): Fraction(5, 2)})
    assert m[1, 3] == Fraction(5, 2)
    assert m[2, 2] == 1
    assert m[3, 1] == 0


@pytest.mark.parametrize("pos", [(0, 1), (-1, 2), (4, 1), (1, 0)])
def test_from_entries_refuses_positions_outside_1_to_n(pos):
    with pytest.raises(ValueError, match=r"outside 1\.\.3"):
        ExactMatrix.from_entries(3, {pos: 5})


@given(st.lists(st.lists(st.integers(-2 ** 80, 2 ** 80), min_size=1, max_size=5), min_size=1, max_size=5))
def test_int_max_abs_matches_definition(rows):
    best = 0
    for row in rows:
        for x in row:
            if abs(x) > best:
                best = abs(x)
    assert int_max_abs(rows) == best


def _evaluate(coeffs, t):
    """The integer matrix sum_k coeffs[k] t^k."""
    n = len(coeffs[0])
    return tuple(
        tuple(sum(c[i][j] * t ** k for k, c in enumerate(coeffs)) for j in range(n))
        for i in range(n)
    )


@st.composite
def _nilpotent_polynomials(draw):
    # strictly upper triangular in a permuted basis, so nilpotent at every t
    n = draw(st.integers(1, 4))
    order = draw(st.permutations(range(n)))
    entries = st.integers(-50, 50)
    ys = []
    for _ in range(draw(st.integers(0, 2))):
        rows = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                rows[order[a]][order[b]] = draw(entries)
        ys.append(tuple(map(tuple, rows)))
    return n, ys, draw(st.integers(1, 3600))


@settings(deadline=None)
@given(_nilpotent_polynomials(), st.integers(0, 2 ** 30))
def test_unipotent_adjugate_matches_int_adjugate(poly, t):
    n, ys, den = poly
    adj = unipotent_adjugate(n, ys, den)
    eye = tuple(tuple(den if i == j else 0 for j in range(n)) for i in range(n))
    expected = int_adjugate(_evaluate([eye, *ys], t))
    flat = [sum(c[i] * t ** k for k, c in enumerate(adj)) for i in range(n * n)]
    assert flat == [x for row in expected for x in row]
    assert int_det_adjugate(_evaluate([eye, *ys], t))[0] == den ** n


def test_unipotent_adjugate_refuses_a_polynomial_that_is_not_nilpotent():
    assert unipotent_adjugate(2, [((1, 0), (0, -1))], 5) is None
    assert unipotent_adjugate(1, [((3,),)], 5) is None
    # det(den I + Y(t)) = den^2 at every t, but Y(t) has trace t^2
    assert unipotent_adjugate(2, [((0, 7), (1, 0)), ((1, 0), (0, 0))], 7) is None


@given(
    st.lists(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=5), max_size=8),
    st.integers(1, 10 ** 6),
    st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=5),
)
def test_int_poly_max_abs_matches_every_evaluation(polys, floor, radii):
    expected = [
        max([floor] + [abs(sum(c * t ** k for k, c in enumerate(p))) for p in polys])
        for t in radii
    ]
    assert int_poly_max_abs(map(tuple, polys), floor, radii) == expected


def _low_rank(draw, n, rank, entries):
    """An n x n integer matrix of rank at most `rank`, as a product n x rank by rank x n."""
    b = [[draw(entries) for _ in range(rank)] for _ in range(n)]
    c = [[draw(entries) for _ in range(n)] for _ in range(rank)]
    return tuple(tuple(sum(b[i][k] * c[k][j] for k in range(rank)) for j in range(n)) for i in range(n))


def _cofactor_transpose(a):
    """adj a from the Fraction reference det of each (n-1) x (n-1) minor."""
    n = len(a)
    return tuple(
        tuple(
            (-1) ** (i + j) * det(ExactMatrix([[a[r][c] for c in range(n) if c != j] for r in range(n) if r != i]))
            for i in range(n)
        )
        for j in range(n)
    )


def _scalar(n, d):
    return tuple(tuple(d if i == j else 0 for j in range(n)) for i in range(n))


@settings(deadline=None)
@given(st.integers(0, 6), st.integers(0, 2), st.data())
def test_det_adjugate_at_full_rank_rank_n_minus_1_and_below(n, drop, data):
    entries = st.integers(-9, 9)
    if drop == 0:
        a = tuple(tuple(data.draw(entries) for _ in range(n)) for _ in range(n))
    elif drop == 1:
        a = _low_rank(data.draw, n, max(n - 1, 0), entries)
    else:
        a = _low_rank(data.draw, n, data.draw(st.integers(0, max(n - 2, 0))), entries)
    d, adj = int_det_adjugate(a)
    reference = det(ExactMatrix(a))
    cofactors = _cofactor_transpose(a)
    if drop == 0:
        assume(reference != 0)
    elif drop == 1:
        assume(any(map(any, cofactors)))  # rank exactly n - 1, so adj != 0
    assert d == reference
    assert adj == cofactors
    assert int_matmul(a, adj) == int_matmul(adj, a) == _scalar(n, d)
    if drop == 2 and n >= 2:
        assert d == 0 and adj == _scalar(n, 0)


def test_det_adjugate_of_the_empty_matrix():
    assert int_det_adjugate(()) == (1, ())
    assert int_adjugate(()) == ()
    assert ExactMatrix([]).inverse() == ExactMatrix([])


@settings(deadline=None)
@given(st.booleans(), st.integers(1, 3), st.data())
def test_unrolled_4x4_adjugate_matches_the_kernel(full, rank, data):
    if full:
        a = tuple(tuple(data.draw(st.integers(-2 ** 80, 2 ** 80)) for _ in range(4)) for _ in range(4))
    else:
        a = _low_rank(data.draw, 4, rank, st.integers(-2 ** 40, 2 ** 40))
    assert int_adjugate(a) == int_det_adjugate(a)[1]


_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@settings(deadline=None)
@given(st.integers(1, 5), st.data())
def test_inverse_round_trips(n, data):
    m = ExactMatrix([[data.draw(_fractions) for _ in range(n)] for _ in range(n)])
    assume(det(m) != 0)
    assert m @ m.inverse() == ExactMatrix.identity(n) == m.inverse() @ m


@settings(deadline=None)
@given(st.integers(3, 5), st.data())
def test_inverse_of_a_singular_matrix_raises(n, data):
    b = [[data.draw(_fractions) for _ in range(n - 1)] for _ in range(n)]
    c = [[data.draw(_fractions) for _ in range(n)] for _ in range(n - 1)]
    m = ExactMatrix([[sum(b[i][k] * c[k][j] for k in range(n - 1)) for j in range(n)] for i in range(n)])
    with pytest.raises(Singular):
        m.inverse()
