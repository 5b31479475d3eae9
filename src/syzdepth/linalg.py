"""Exact linear algebra over the rationals: one elimination step.

Rows are sparse, dicts {column: value} of ints or Fractions with no zero
values.  eliminate reduces one integer row against a dict of pivots, each
row on its leading (smallest) column, and is the library's only kernel:
exact_rank runs it over a list of rows, and freemod.Slices over the rows
active down the lcm-closure tree, keeping its pivots, for the exactness
certificate and the Hilbert-slice check.  Its update, add_scaled, also
composes and minimizes complexes and runs groebner's one row division.
quotient is the library's one exact division, so the field is known here.
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


def quotient(x, y=1):
    """x / y exactly: an int where integral, a Fraction otherwise, so that
    quotient(x) reads an integral Fraction back as an int."""
    q = x * y if y in (1, -1) else Fraction(x) / y
    return q.numerator if q.denominator == 1 else q


def add_scaled(row: dict, q, other: dict) -> None:
    """row += q * other, in place, with zero entries dropped."""
    for c, x in other.items():
        y = row.get(c, 0) + q * x
        if y:
            row[c] = y
        else:
            del row[c]


def eliminate(pivots: dict, row: dict):
    """Reduce the integer row against the pivots, fraction-free; returns the
    leading column of the new pivot it leaves, or None if it reduces to zero.

    pivots maps a leading column to (leading entry, the other entries).  The
    row is split into its leading (smallest) column's entry B and the rest.
    While a pivot (A, pivot rest) sits at that column, the row becomes
    (A / g) * rest - (B / g) * (pivot rest), with g = gcd(A, B), divided by
    its content.  A row left nonzero becomes the pivot of its leading
    column.  Neither the row nor any pivot is modified.
    """
    while row:
        lead = min(row)
        rest = dict(row)
        b = rest.pop(lead)
        pivot = pivots.get(lead)
        if pivot is None:
            pivots[lead] = (b, rest)
            return lead
        head, tail = pivot
        g = gcd(head, b)
        a, b = head // g, b // g
        if a != 1:
            rest = {c: a * x for c, x in rest.items()}
        add_scaled(rest, -b, tail)
        content = gcd(*rest.values())
        if content > 1:
            rest = {c: x // content for c, x in rest.items()}
        row = rest
    return None


def exact_rank(rows) -> int:
    """Rank over Q of sparse rows: each row, scaled by integer_row if it
    holds a Fraction, is eliminated against the pivots of those before it.
    The input rows are not modified."""
    pivots = {}
    for row in rows:
        if Fraction in map(type, row.values()):
            row = integer_row(row)
        eliminate(pivots, row)
    return len(pivots)
