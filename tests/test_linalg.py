"""Exact rank/determinant against the exhaustive minor oracle, and the
packed modular rank against the row-by-row reference."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodal_degen.linalg import DEFAULT_PRIME, RatMatrix
from oracles import fraction_det, minor_rank, rank_mod_reference, solve_unique


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


def _integer_matrix(rows, ncols):
    return RatMatrix(len(rows), ncols, tuple(map(tuple, rows)), (1,) * len(rows))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((2, 3, 101, DEFAULT_PRIME)), st.integers(0, 12), st.integers(0, 30), st.data()
)
def test_rank_mod_matches_reference(p, nrows, ncols, data):
    # entries up to 10**40 in size, small ones and exact multiples of p;
    # zero rows and zero columns; and a last row that is the sum of two
    # earlier ones, so that the rank can drop
    big = 10**40
    entry = st.one_of(
        st.integers(-big, big),
        st.integers(-3, 3),
        st.integers(-big // p, big // p).map(lambda k: k * p),
    )
    rows = [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    indices = st.sets(st.integers(0, max(nrows, ncols)))
    zero_rows, zero_cols = data.draw(indices), data.draw(indices)
    rows = [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    if nrows >= 3 and data.draw(st.booleans()):
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
    assert _integer_matrix(rows, ncols).rank_mod(p) == rank_mod_reference(rows, p)


@pytest.mark.parametrize("full", [True, False], ids=["full", "last-pivot-zero"])
@pytest.mark.parametrize("p", [2, DEFAULT_PRIME])
def test_rank_mod_field_width_holds_the_most_additions(p, full):
    # A = L U mod p, with L unit lower triangular and 1 below the diagonal,
    # and U upper triangular with a unit diagonal and residues near p - 1
    # above it.  The elimination multipliers are L's entries, so every lower
    # row takes an addition at every pivot, the most a row can take, and
    # each addition is (p - 1) times a residue near p - 1, near the p**2
    # bound.  70 rows cross 64, where bitlen(rows) grows to 7.  With U's
    # last pivot zero the last row must end divisible by p in every field,
    # which a carry between fields would break.
    n = 70
    rng = random.Random(p)
    upper = [
        [0] * i + [1] + [p - 1 - rng.randrange(min(p - 1, 8)) for _ in range(n - 1 - i)]
        for i in range(n)
    ]
    if not full:
        upper[-1][-1] = 0
    rows, acc = [], [0] * n
    for u in upper:
        acc = [(a + b) % p for a, b in zip(acc, u)]
        rows.append(acc)
    rank = _integer_matrix(rows, n).rank_mod(p)
    assert rank == rank_mod_reference(rows, p) == (n if full else n - 1)
