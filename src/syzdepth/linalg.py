"""Exact linear algebra over the rationals.

Matrices are lists of row lists holding ints or Fractions.  Everything here
is deterministic: pivots are chosen left to right, top to bottom.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm as int_lcm


def _integer_rows(rows):
    """Scale each row by the lcm of its denominators; rank is unchanged.

    Ints and Fractions both carry numerator and denominator, and a row whose
    denominators are all 1 (every row of a Slices engine over a complex with
    integer entries) is read off its numerators with no Fraction arithmetic.
    """
    out = []
    for row in rows:
        scale = int_lcm(*[x.denominator for x in row])
        if scale == 1:
            out.append([x.numerator for x in row])
        else:
            out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def exact_rank(rows) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination."""
    if not rows:
        return 0
    m = _integer_rows(rows)
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, nrows):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != row:
            m[row], m[pivot] = m[pivot], m[row]
        p = m[row][col]
        for r in range(row + 1, nrows):
            factor = m[r][col]
            if factor or p != prev:  # otherwise the update leaves the row as it is
                for c in range(col + 1, ncols):
                    m[r][c] = (m[r][c] * p - factor * m[row][c]) // prev
            m[r][col] = 0
        prev = p
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def rref(rows):
    """Reduced row echelon form over Q; returns (nonzero rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, nrows):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return m[:row], pivots


def solve_exact(columns, target):
    """One rational solution x of sum_j x_j * columns[j] = target, or None.

    Free variables are set to zero, so the answer is deterministic.
    """
    ncols = len(columns)
    nrows = len(target)
    aug = [[Fraction(columns[j][i]) for j in range(ncols)] + [Fraction(target[i])]
           for i in range(nrows)]
    reduced, pivots = rref(aug)
    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        if col == ncols:  # pivot in the target column: inconsistent system
            return None
        sol[col] = reduced[r][ncols]
    return sol
