"""Exact rational matrices: fraction-free rank and determinant.

Rank and determinant run Bareiss fraction-free elimination on an integer
rescaling of the matrix, so intermediate values stay integral and exact.
``rank_mod`` reduces the same integer rows modulo a word-size prime; it is
reported as a cross-check only, never used as a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

#: Default word-size prime of ``RatMatrix.rank_mod``.
DEFAULT_PRIME = 2**31 - 1


@dataclass(frozen=True)
class RatMatrix:
    """Dense exact matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entries length must equal rows*cols")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[Fraction] = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            flat.extend(Fraction(x) for x in row)
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls.from_rows(
            [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        )

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def _int_rows(self) -> tuple[list[list[int]], Fraction]:
        """Integer rescaling (row by row) and the product of the row scalings."""
        out: list[list[int]] = []
        scale = Fraction(1)
        for i in range(self.rows):
            row = self.row(i)
            mult = lcm(*(x.denominator for x in row)) if row else 1
            scale *= mult
            out.append([x.numerator * (mult // x.denominator) for x in row])
        return out, scale

    def rank(self) -> int:
        """Exact rank via fraction-free (Bareiss) elimination."""
        m, _ = self._int_rows()
        return _bareiss_rank(m, self.rows, self.cols)

    def det(self) -> Fraction:
        """Exact determinant (square matrices only)."""
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        if self.rows == 0:
            return Fraction(1)
        m, scale = self._int_rows()
        return Fraction(_bareiss_det(m, self.rows)) / scale

    def rank_mod(self, p: int = DEFAULT_PRIME) -> int:
        """Rank over the prime field F_p of the integer rescaling of the rows.

        Row scaling keeps the rational rank, and reduction mod p can only
        lower it, so the value never exceeds :meth:`rank`.
        """
        rows, _ = self._int_rows()
        m = [[x % p for x in row] for row in rows]
        rank = 0
        for col in range(self.cols):
            pivot = next((r for r in range(rank, self.rows) if m[r][col]), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            inv = pow(m[rank][col], -1, p)
            for r in range(rank + 1, self.rows):
                if m[r][col]:
                    factor = m[r][col] * inv % p
                    m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[rank])]
            rank += 1
            if rank == self.rows:
                break
        return rank


def _bareiss_rank(m: list[list[int]], nrows: int, ncols: int) -> int:
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        piv = m[rank][col]
        row_p = m[rank]
        # The pivot rescaling applies to every lower row, zero head or not,
        # so that later exact divisions by `prev` stay integral.
        for r in range(rank + 1, nrows):
            head = m[r][col]
            row_r = m[r]
            for c in range(col, ncols):
                row_r[c] = (row_r[c] * piv - head * row_p[c]) // prev
        prev = piv
        rank += 1
        if rank == nrows:
            break
    return rank


def _bareiss_det(m: list[list[int]], n: int) -> int:
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        piv = m[k][k]
        for r in range(k + 1, n):
            head = m[r][k]
            row_r = m[r]
            row_k = m[k]
            for c in range(k, n):
                row_r[c] = (row_r[c] * piv - head * row_k[c]) // prev
        prev = piv
    return sign * m[n - 1][n - 1]
