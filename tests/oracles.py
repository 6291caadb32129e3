"""Slow, independent reference computations that the tests check the library
against: rational S-polynomials and multivariate division, an exhaustive
minor-search rank, and a Gauss-Jordan solver over Fraction."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from nodal_degen.linalg import RatMatrix
from nodal_degen.polynomials import Monomial, MultiPoly, grlex_key


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _msub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def _madd(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """S-polynomial over the rationals."""
    if f.is_zero() or g.is_zero():
        return MultiPoly.zero(f.arity)
    (lf, cf), (lg, cg) = f.leading(), g.leading()
    big = tuple(max(x, y) for x, y in zip(lf, lg))
    mf = MultiPoly(f.arity, {_msub(big, lf): Fraction(1) / cf})
    mg = MultiPoly(g.arity, {_msub(big, lg): Fraction(1) / cg})
    return mf * f - mg * g


def normal_form(p: MultiPoly, basis: Sequence[MultiPoly]) -> MultiPoly:
    """Full remainder of p under multivariate division by the basis."""
    basis = [b for b in basis if not b.is_zero()]
    leads = [b.leading() for b in basis]
    work = {e: c for e, c in p.terms()}
    rem: dict[Monomial, Fraction] = {}
    while work:
        m = max(work, key=grlex_key)
        c = work.pop(m)
        hit = next(
            ((lm, lc, b) for (lm, lc), b in zip(leads, basis) if _divides(lm, m)),
            None,
        )
        if hit is None:
            rem[m] = c
            continue
        lm, lc, b = hit
        shift = _msub(m, lm)
        factor = c / lc
        for e, bc in b.terms():
            if e == lm:
                continue
            e2 = _madd(e, shift)
            v = work.get(e2, Fraction(0)) - factor * bc
            if v:
                work[e2] = v
            else:
                work.pop(e2, None)
    return MultiPoly(p.arity, rem)


def minor_rank(matrix: RatMatrix) -> int:
    """Exhaustive minor-search rank (exponential; small matrices only).

    The rank is the largest k such that some k-by-k minor has nonzero
    determinant.
    """
    rows = matrix.to_rows()
    for k in range(min(matrix.rows, matrix.cols), 0, -1):
        for ri in combinations(range(matrix.rows), k):
            for ci in combinations(range(matrix.cols), k):
                sub = RatMatrix.from_rows([[rows[i][j] for j in ci] for i in ri])
                if sub.det() != 0:
                    return k
    return 0


def solve_unique(matrix: RatMatrix, rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve A x = b for the unique solution; raises if none or many exist."""
    if len(rhs) != matrix.rows:
        raise ValueError("rhs length must equal the number of rows")
    n = matrix.cols
    aug = [list(matrix.row(i)) + [Fraction(rhs[i])] for i in range(matrix.rows)]
    pivots: list[int] = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, len(aug)) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = aug[row][col]
        aug[row] = [x / inv for x in aug[row]]
        for r in range(len(aug)):
            if r != row and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, len(aug)):
        if aug[r][n]:
            raise ValueError("inconsistent linear system")
    if len(pivots) < n:
        raise ValueError("underdetermined linear system")
    sol = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        sol[col] = aug[r][n]
    return sol
