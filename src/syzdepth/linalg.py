"""Exact linear algebra over the rationals: one elimination step.

Rows are sparse, dicts {column: value} of ints or Fractions with no zero
values.  eliminate reduces one row against a dict of monic pivots, each
row on its leading (smallest) column, and is the library's only kernel:
exact_rank runs it over a list of rows, and freemod.Slices over the rows
active down the lcm-closure tree, keeping one pivot dict per block, for
the exactness certificate and the Hilbert-slice check.  Its two
operations are groebner's too: monic makes a pivot, as it makes each
Buchberger element and each column the lifter files, and add_scaled
cancels a leading entry, as it runs groebner's one row division and
composes and minimizes complexes.  quotient is the library's one exact
division, so quotient and add_scaled alone know the field, and
EXACT_TYPES says which values a row may hold.
"""

from __future__ import annotations

from fractions import Fraction


def quotient(x, y=1):
    """x / y exactly: an int where integral, a Fraction otherwise, so that
    quotient(x) reads an integral Fraction back as an int."""
    q = x * y if y in (1, -1) else Fraction(x) / y
    return q.numerator if q.denominator == 1 else q


# The types of a row's values, each of which must also be nonzero: a float
# would lose exactness, and a zero entry would be divided by in monic.
EXACT_TYPES = frozenset({int, Fraction})


def add_scaled(row: dict, q, other: dict) -> None:
    """row += q * other, in place, with zero entries dropped."""
    for c, x in other.items():
        y = row.get(c, 0) + q * x
        if y:
            row[c] = y
        else:
            del row[c]


def monic(row: dict) -> dict:
    """The nonzero row divided by its leading (smallest-column) entry: as it
    is by 1, negated by -1, and otherwise entry by entry by quotient."""
    lead = row[min(row)]
    if lead == 1:
        return row
    if lead == -1:
        return {c: -x for c, x in row.items()}
    return {c: quotient(x, lead) for c, x in row.items()}


def eliminate(pivots: dict, row: dict):
    """Reduce the row against the pivots; returns the leading column of the
    new pivot it leaves, or None if it reduces to zero.

    pivots maps a leading column to a monic row leading there.  While a
    pivot sits at the row's leading (smallest) column, the row becomes
    row - (its leading entry) * pivot, which cancels that entry; a row left
    nonzero becomes, made monic, the pivot of its leading column.  The row
    is copied once, and neither it nor any pivot is modified.
    """
    row = dict(row)
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            pivots[lead] = monic(row)
            return lead
        add_scaled(row, -row[lead], pivot)
    return None


def exact_rank(rows) -> int:
    """Rank over Q of sparse rows: each row is eliminated against the
    pivots of those before it.  The input rows are not modified."""
    pivots = {}
    for row in rows:
        eliminate(pivots, row)
    return len(pivots)
