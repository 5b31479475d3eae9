"""The slice engine the references of the exactness certificate and of the
Hilbert-slice oracle are written against: every rank taken in full with
the fraction-free elimination below and cached per bitmask of chosen
vectors.

This is freemod.Slices as it read before it became the one engine that
reduces down a chain of degrees, without its quick_rank, which no
reference calls.  integer_row and eliminate are linalg's as they read
before linalg.eliminate reduced against monic pivots, so the references
share no rank kernel with the library.
"""

from math import gcd, lcm

from syzdepth.freemod import DegreeMasks, OrderedBasis, multidegree_of
from syzdepth.linalg import add_scaled
from syzdepth.monomials import Mono


def integer_row(row: dict) -> dict:
    """The sparse row scaled by the lcm of its denominators; rank is unchanged.

    Ints and Fractions both carry numerator and denominator, so a row whose
    denominators are all 1 is read off its numerators.
    """
    scale = lcm(*[x.denominator for x in row.values()])
    if scale == 1:
        return {c: x.numerator for c, x in row.items()}
    return {c: x.numerator * (scale // x.denominator) for c, x in row.items()}


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


class RankSlices:
    """Multidegree slices of the span of multihomogeneous vectors.

    The degree-a piece of F has one monomial, a / deg e_j, at each basis
    position j with deg e_j | a, so a vector of degree d | a contributes the
    scalar row position -> coefficient to the slice at a, whatever a is.
    The vectors whose degree divides a are found by AND-ing per-coordinate
    bitsets.  Each row is stored once, as integers scaled by the lcm of its
    denominators, which changes no rank: rank eliminates those sparse rows
    with the fraction-free eliminate above and caches the answer per
    bitmask.  Pass degrees to give each vector a
    degree of its own (a zero vector then still counts as active); otherwise
    zero vectors have no degree and are never active.  Every slice is fixed
    by which of the degrees in self.degrees divide a.
    """

    def __init__(self, vectors, basis: OrderedBasis, degrees=None):
        self._rows = []
        known = []  # (index, degree) of every vector that has a degree
        for i, v in enumerate(vectors):
            d = multidegree_of(v, basis)
            if d is None and not v.is_zero():
                raise ValueError("slices need multihomogeneous vectors")
            if degrees is not None:
                if d is not None and d != degrees[i]:
                    raise ValueError(f"vector {i} does not have degree {degrees[i]}")
                d = degrees[i]
            self._rows.append(integer_row({pos: c for (pos, _), c in v.items()}))
            if d is not None:
                known.append((i, d))
        self.degrees = [d for _, d in known]
        self._masks = DegreeMasks(known, basis.n, len(self._rows))
        self._ranks = {}

    def active(self, a: Mono) -> int:
        """Bitmask of the vectors whose degree divides a."""
        return self._masks.dividing(a)

    def rank(self, mask: int) -> int:
        """Exact rank of the chosen vectors."""
        if mask not in self._ranks:
            pivots = {}
            for i in _bits(mask):
                eliminate(pivots, self._rows[i])
            self._ranks[mask] = len(pivots)
        return self._ranks[mask]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
