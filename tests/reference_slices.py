"""The slice engine the references of the exactness certificate and of the
Hilbert-slice oracle are written against: every rank taken in full with
linalg.exact_rank and cached per bitmask of chosen vectors.

This is freemod.Slices as it read before it became the one engine that
reduces down a chain of degrees, without its quick_rank, which no
reference calls.
"""

from syzdepth import linalg
from syzdepth.freemod import DegreeMasks, OrderedBasis, multidegree_of
from syzdepth.monomials import Mono


class RankSlices:
    """Multidegree slices of the span of multihomogeneous vectors.

    The degree-a piece of F has one monomial, a / deg e_j, at each basis
    position j with deg e_j | a, so a vector of degree d | a contributes the
    scalar row position -> coefficient to the slice at a, whatever a is.
    The vectors whose degree divides a are found by AND-ing per-coordinate
    bitsets.  Each row is stored once, as integers scaled by the lcm of its
    denominators, which changes no rank: rank hands those sparse rows to
    linalg.exact_rank, which runs the library's one elimination step, and
    caches the answer per bitmask.  Pass degrees to give each vector a
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
            self._rows.append(linalg.integer_row({pos: c for (pos, _), c in v.items()}))
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
            rows = self._rows
            self._ranks[mask] = linalg.exact_rank([rows[i] for i in _bits(mask)])
        return self._ranks[mask]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
