import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from obstructor import DimensionMismatch, ExactMatrix, Singular
from obstructor.exact import int_adjugate, int_det, int_matmax, int_matmul, int_max_abs


def rand_matrix(rng, n, den=3):
    return ExactMatrix(
        [[Fraction(rng.randint(-6, 6), rng.randint(1, den)) for _ in range(n)] for _ in range(n)]
    )


def test_inverse_and_product_are_exact():
    rng = random.Random(1)
    for n in (2, 3, 4):
        for _ in range(15):
            m = rand_matrix(rng, n)
            if m.det() == 0:
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


def test_det_matches_integer_cofactor_expansion():
    rng = random.Random(2)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            rows = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
            assert ExactMatrix(rows).det() == int_det(rows)


def test_adjugate_identity():
    rng = random.Random(3)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            rows = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
            d = int_det(rows)
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


@given(st.lists(st.lists(st.integers(-2 ** 80, 2 ** 80), min_size=1, max_size=5), min_size=1, max_size=5))
def test_int_max_abs_matches_definition(rows):
    best = 0
    for row in rows:
        for x in row:
            if abs(x) > best:
                best = abs(x)
    assert int_max_abs(rows) == best
