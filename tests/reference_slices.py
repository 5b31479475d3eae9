"""The slice engines the library's walks are checked against.

RankSlices is the engine the references of the exactness certificate and
of the Hilbert-slice oracle are written against: every rank taken in full
with the fraction-free elimination below and cached per bitmask of chosen
vectors.  It is freemod.Slices as it read before it became the one engine
that reduces down a chain of degrees, without its quick_rank, which no
reference calls.  integer_row and eliminate are linalg's as they read
before linalg.eliminate reduced against monic pivots, so the references
share no rank kernel with the library.

Slices and walk_closure are freemod's per-family engine and its walk as
they read before one freemod.Slices took every family as a block: one
engine per family, each marked, reduced and undone at every closure
degree.  They reduce with linalg.eliminate, the library's kernel, and
check the block engine's walk order, ranks and failures.
"""

from math import gcd, lcm
from typing import Optional

from syzdepth import linalg, monomials
from syzdepth.freemod import DegreeMasks, OrderedBasis
from syzdepth.linalg import add_scaled
from syzdepth.monomials import Mono

from reference_vectors import multidegree_of


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
        self._masks = DegreeMasks(known, basis.n)
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


class Slices:
    """Multidegree slices of the span of multihomogeneous vectors, reduced
    down a chain of degrees.

    The degree-a piece of F has one monomial, a / deg e_j, at each basis
    position j with deg e_j | a, so a vector of degree d | a contributes the
    scalar row position -> coefficient to the slice at a, whatever a is.
    The engine takes those rows and their degrees, as scalar_rows, unit_rows
    or a complex gives them, and keeps the rows as they are, as
    linalg.eliminate modifies none.  A DegreeMasks finds the rows whose
    degree divides a.  A degree of None is never active.

    The engine keeps the pivots made on the current path and the mask of
    the rows already reduced there.  Down a chain of degrees, each a
    multiple of the one before, reduce(active(a)) reduces each row once,
    with linalg.eliminate, and mark and undo go back to an earlier point.
    """

    def __init__(self, rows, degrees, basis: OrderedBasis):
        self.rows = list(rows)
        known = [(i, d) for i, d in enumerate(degrees) if d is not None]
        self.degrees = [d for _, d in known]
        self._masks = DegreeMasks(known, basis.n)
        self._positions = len(basis)
        self.pivots = {}
        self._reduced = 0  # bitmask of the rows reduced on the path
        self._made = []  # leading columns of the pivots, in the order made

    def active(self, a: Mono) -> int:
        """Bitmask of the rows whose degree divides a."""
        return self._masks.dividing(a)

    def reduce(self, active: int, bound: Optional[int] = None) -> int:
        """Reduce the rows of the mask active(a) not reduced yet, until there
        are bound pivots, and return the number of pivots.  Down a chain of
        degrees that ends at a, that is the rank of the slice at a if it is
        below bound, and at least bound otherwise; the rows left wait for a
        later call.  The default bound is the number of basis positions,
        which no rank exceeds."""
        if bound is None:
            bound = self._positions
        pivots, rows, made = self.pivots, self.rows, self._made
        pending = active & ~self._reduced
        while pending and len(pivots) < bound:
            low = pending & -pending
            pending ^= low
            self._reduced |= low
            lead = linalg.eliminate(pivots, rows[low.bit_length() - 1])
            if lead is not None:
                made.append(lead)
        return len(pivots)

    def mark(self):
        """The point to which undo goes back."""
        return self._reduced, len(self._made)

    def undo(self, mark) -> None:
        """Drop the pivots made, and forget the rows reduced, since mark."""
        self._reduced, size = mark
        while len(self._made) > size:
            del self.pivots[self._made.pop()]


def walk_closure(degrees, n: int, engines, visit, exhaustive: bool = False):
    """Visit every degree of the lcm closure of degrees depth first down
    its parent tree (monomials.lcm_closure), in which each degree is a
    multiple of its parent, so each engine's reduce sees a chain of
    degrees; each engine is marked before a visit and undone once the
    visited degree's subtree is done.

    visit(a) returns None where a passes.  Returns (failures, size): the
    (lex index, degree, visit's value) triples of the failing degrees in lex
    order and the size of the closure.  A degree lies after its ancestors
    in lex order, so once a failure is found, every subtree rooted after it
    is skipped and only the first failure is kept, unless exhaustive.
    """
    closure = monomials.lcm_closure(degrees, n)
    index = {a: i for i, a in enumerate(closure)}
    children = {a: [] for a in closure}
    for a, parent in closure.items():
        if parent is not None:
            children[parent].append(a)
    failures = []
    first = len(closure)  # lex index of the first failure found so far
    # An entry (a, None) visits a; (None, marks) undoes the engines.
    stack = [(monomials.unit(n), None)]
    while stack:
        a, marks = stack.pop()
        if marks is not None:
            for engine, mark in zip(engines, marks):
                engine.undo(mark)
            continue
        i = index[a]
        if i > first and not exhaustive:
            continue
        marks = [engine.mark() for engine in engines]
        failure = visit(a)
        if failure is not None:
            failures.append((i, a, failure))
            first = min(first, i)
        stack.append((None, marks))
        stack.extend((b, None) for b in reversed(children[a]))
    failures.sort()
    return (failures if exhaustive else failures[:1]), len(closure)
