"""Exact rational matrices: fraction-free rank and determinant.

A matrix keeps, from construction on, the integer rescaling it eliminates
on: row i is ``int_rows[i] / multipliers[i]`` with integer entries and a
positive multiplier.  One Bareiss fraction-free elimination on those integer
rows gives both the rank and, from its last pivot signed by the row swaps,
the determinant; intermediate values stay integral and exact.

``rank_mod`` reduces the same integer rows modulo a prime and eliminates on
packed rows: each row is one int holding its residues in fields of ``w``
bits, ``2*bitlen(p) + bitlen(rows) + 1`` rounded up to whole bytes, with the
current column in the lowest field.  A row update is one big-integer
multiply-add by the pivot row, which is reduced and scaled once per column;
no field ever reaches ``2**w``, because a row takes at most ``rows - 1``
additions of less than ``p**2`` each.  The modular rank is a cross-check
that decides no verdict, never a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from .polynomials import exact_rational

#: Default word-size prime of ``RatMatrix.rank_mod``.
DEFAULT_PRIME = 2**31 - 1


@dataclass(frozen=True)
class RatMatrix:
    """Dense exact matrix stored as integer rows over positive multipliers.

    Entry (i, j) is ``int_rows[i][j] / multipliers[i]``.  ``from_rows`` reads
    each entry exactly (an int or a Fraction; anything else raises TypeError)
    and takes each multiplier to be the lcm of its row's denominators, so
    equal entries give equal matrices; integer rows are passed directly with
    multiplier 1.
    """

    rows: int
    cols: int
    int_rows: tuple[tuple[int, ...], ...]
    multipliers: tuple[int, ...]

    def __post_init__(self):
        if len(self.int_rows) != self.rows or len(self.multipliers) != self.rows:
            raise ValueError("need one integer row and one multiplier per row")
        if any(len(row) != self.cols for row in self.int_rows):
            raise ValueError("ragged rows")
        if any(m <= 0 for m in self.multipliers):
            raise ValueError("row multipliers must be positive")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        int_rows = []
        multipliers = []
        for row in rows:
            row = [exact_rational(x, "entry") for x in row]
            mult = lcm(*(x.denominator for x in row))
            int_rows.append(tuple(x.numerator * (mult // x.denominator) for x in row))
            multipliers.append(mult)
        ncols = len(int_rows[0]) if int_rows else 0
        return cls(len(int_rows), ncols, tuple(int_rows), tuple(multipliers))

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.int_rows[i][j], self.multipliers[i])

    def rank(self) -> int:
        """Exact rank via fraction-free (Bareiss) elimination."""
        return _bareiss(self.int_rows, self.rows, self.cols)[0]

    def det(self) -> Fraction:
        """Exact determinant (square matrices only)."""
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        rank, pivot = _bareiss(self.int_rows, self.rows, self.cols)
        return Fraction(pivot if rank == self.rows else 0, prod(self.multipliers))

    def rank_mod(self, p: int = DEFAULT_PRIME) -> int:
        """Rank over the prime field F_p of the integer rows.

        Row scaling keeps the rational rank, and reduction mod p can only
        lower it, so the value never exceeds :meth:`rank`.  It is a
        cross-check that decides no verdict.

        Each row is packed into one int whose fields of ``w`` bits hold its
        residues mod p, the current column in the lowest field; ``w`` is
        ``2*bitlen(p) + bitlen(rows) + 1`` rounded up to whole bytes.  Per
        column, the pivot row is reduced mod p field by field and scaled to
        head 1, once; a lower row with head residue e takes
        ``row + (p - e) * pivot``, one big-integer multiply-add that leaves
        its head field divisible by p.  Every row then drops its head field
        by a shift of one field (the pivot is added already shifted).

        Invariant: every field stays nonnegative and below ``2**w``, so no
        carry crosses into the next field.  A field starts below p and a
        row takes at most ``rows - 1`` additions, each below p**2, so it
        stays below ``rows * p**2 < 2**(w - 1)``.
        """
        step = (2 * p.bit_length() + self.rows.bit_length() + 8) // 8
        w = 8 * step
        head_mask = (1 << w) - 1

        def pack(residues: list[int]) -> int:
            data = b"".join([r.to_bytes(step, "little") for r in residues])
            return int.from_bytes(data, "little")

        rows = [pack([x % p for x in row]) for row in self.int_rows]
        rank = 0
        for left in reversed(range(self.cols)):
            heads = [(row & head_mask) % p for row in rows]
            pivot_at = next((i for i, e in enumerate(heads) if e), None)
            if pivot_at is None:
                rows = [row >> w for row in rows]
                continue
            inv = pow(heads.pop(pivot_at), -1, p)
            tail = (rows.pop(pivot_at) >> w).to_bytes(left * step, "little")
            fields = range(0, len(tail), step)
            pivot = pack([int.from_bytes(tail[k : k + step], "little") * inv % p for k in fields])
            rows = [(row >> w) + (p - e) * pivot if e else row >> w for row, e in zip(rows, heads)]
            rank += 1
            if not rows:
                break
        return rank


def _bareiss(int_rows, nrows: int, ncols: int) -> tuple[int, int]:
    """Rank and last pivot, signed by the row swaps, of Bareiss elimination.

    At full rank a square matrix skips no column, so its last pivot is the
    leading minor of the row-swapped matrix: the signed pivot is the
    determinant (1 for the empty matrix).
    """
    m = [list(row) for row in int_rows]
    rank = 0
    prev = 1
    sign = 1
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
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
    return rank, sign * prev
