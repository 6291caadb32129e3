"""Exact rank/determinant against the exhaustive minor oracle."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodal_degen.linalg import DEFAULT_PRIME, RatMatrix
from oracles import fraction_det, minor_rank, solve_unique


def test_det_diagonal():
    # the empty product: the 0x0 matrix has determinant 1
    for rows, det in (([[2, 0, 0], [0, -2, 0], [0, 0, -2]], 8), ([], 1)):
        assert RatMatrix.from_rows(rows).det() == det


def test_rank_collinear_rows():
    m = RatMatrix.from_rows([[0, 0, 1], [0, 1, 1], [0, 1, 2]])
    assert m.rank() == 2


def test_det_requires_square():
    with pytest.raises(ValueError):
        RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]]).det()


@pytest.mark.parametrize("entry", [0.1, "1/3", True])
def test_entries_must_be_exact(entry):
    # a float, a string or a bool is never read as a rational
    with pytest.raises(TypeError):
        RatMatrix.from_rows([[1, entry]])


def test_rational_entries():
    m = RatMatrix.from_rows(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
    )
    assert m.det() == 0
    assert m.rank() == 1


def test_solve_unique():
    m = RatMatrix.from_rows([[2, 0], [1, 1]])
    assert solve_unique(m, [Fraction(4), Fraction(5)]) == [Fraction(2), Fraction(3)]
    with pytest.raises(ValueError):
        solve_unique(RatMatrix.from_rows([[1, 1], [1, 1]]), [Fraction(0), Fraction(1)])
    with pytest.raises(ValueError):
        solve_unique(RatMatrix.from_rows([[1, 1]]), [Fraction(0)])


@settings(max_examples=200)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_rank_matches_minor_oracle(rows, cols, data):
    entries = [
        [data.draw(st.integers(-2, 2)) for _ in range(cols)] for _ in range(rows)
    ]
    m = RatMatrix.from_rows(entries)
    assert m.rank() == minor_rank(entries)


@settings(max_examples=120)
@given(st.data())
def test_modular_rank_never_exceeds_rational(data):
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    entries = [
        [Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 5)))
         for _ in range(cols)]
        for _ in range(rows)
    ]
    m = RatMatrix.from_rows(entries)
    assert m.rank_mod() <= m.rank()


def test_modular_unusable_denominator():
    # rank_mod reduces the integer rescaling of each row, so a denominator
    # divisible by p cannot break it
    m = RatMatrix.from_rows([[Fraction(1, DEFAULT_PRIME)]])
    assert m.rank_mod() == m.rank() == 1
    m = RatMatrix.from_rows([[101, 1], [0, 101]])
    assert m.rank_mod(101) == 1  # both pivots vanish mod 101
    assert m.rank_mod() == m.rank() == 2


_RATIONAL = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.data())
def test_matrix_agrees_with_fraction_oracles(integer, data):
    # integer rows are passed directly with multiplier 1, as condition
    # matrices are; rational rows go through from_rows
    nrows = data.draw(st.integers(1, 4))
    ncols = data.draw(st.integers(1, 4))
    entry = st.integers(-3, 3) if integer else _RATIONAL
    rows = [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if integer:
        m = RatMatrix(nrows, ncols, tuple(map(tuple, rows)), (1,) * nrows)
        assert m == RatMatrix.from_rows(rows)
    else:
        m = RatMatrix.from_rows(rows)
    assert (m.rows, m.cols) == (nrows, ncols)
    assert all(m.entry(i, j) == rows[i][j] for i in range(nrows) for j in range(ncols))
    assert m.rank() == minor_rank(rows)
    if nrows == ncols:
        assert m.det() == fraction_det(rows)
    # rank_mod reduces each row times the lcm of its denominators
    scaled = [[x * lcm(*(Fraction(y).denominator for y in row)) for x in row] for row in rows]
    for p in (2, 3, DEFAULT_PRIME):
        assert m.rank_mod(p) == minor_rank(scaled, p)
