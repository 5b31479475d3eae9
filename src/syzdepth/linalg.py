"""Exact linear algebra over the rationals.

Dense matrices are lists of row lists holding ints or Fractions; rref and
solve_exact work on them.  exact_rank takes sparse rows instead, dicts
{column: value} with no zero values, and eliminates on integers.
Everything here is deterministic: pivots are chosen left to right, top to
bottom.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def integer_row(row: dict) -> dict:
    """The sparse row scaled by the lcm of its denominators; rank is unchanged.

    Ints and Fractions both carry numerator and denominator, so a row whose
    denominators are all 1 is read off its numerators.
    """
    scale = lcm(*[x.denominator for x in row.values()])
    if scale == 1:
        return {c: x.numerator for c, x in row.items()}
    return {c: x.numerator * (scale // x.denominator) for c, x in row.items()}


def exact_rank(rows) -> int:
    """Rank over Q of sparse rows, by fraction-free elimination.

    A row holding a Fraction is first scaled by integer_row.  Each row is
    then split into its leading (smallest) column's entry B and the rest.
    While a pivot (A, pivot rest) sits at that column, the row becomes
    (A / g) * rest - (B / g) * (pivot rest), with g = gcd(A, B), divided by
    its content.  A row left nonzero becomes the pivot of its leading
    column.  The input rows are not modified.
    """
    pivots = {}  # leading column -> (leading entry, the other entries)
    for row in rows:
        if Fraction in map(type, row.values()):
            row = integer_row(row)
        while row:
            lead = min(row)
            rest = dict(row)
            b = rest.pop(lead)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = (b, rest)
                break
            head, tail = pivot
            g = gcd(head, b)
            a, b = head // g, b // g
            if a != 1:
                rest = {c: a * x for c, x in rest.items()}
            for c, x in tail.items():
                y = rest.get(c, 0) - b * x
                if y:
                    rest[c] = y
                else:
                    del rest[c]
            content = gcd(*rest.values())
            if content > 1:
                rest = {c: x // content for c, x in rest.items()}
            row = rest
    return len(pivots)


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
