"""Free multigraded modules with ordered bases and the position-over-lex order.

The library's element form is the scalar row: a multihomogeneous element of
degree d has at most one term per basis position, x^(d - deg e_j) at
position j, so it is the dict {position: coefficient} of its nonzero
entries, ints where integral, read at d.  The term order compares basis
positions first (position 0 is the largest basis element), then monomials
lexicographically, so a row's leading term sits at its smallest position.
Every public entry point takes and returns rows, and check_rows guards
the rows it is given.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import le
from typing import Any, Iterable, Optional

from . import linalg, monomials
from .monomials import Mono


@dataclass(frozen=True)
class BasisElement:
    degree: Mono
    label: Any = None


class OrderedBasis:
    """An ordered multihomogeneous basis; the sequence order is the module order.

    The constructor checks that every degree has length n; _made takes
    elements the library made, and checks nothing.
    """

    __slots__ = ("n", "elements", "degrees")

    def __init__(self, n: int, elements: Iterable[BasisElement]):
        self.n = n
        self.elements = tuple(elements)
        for e in self.elements:
            if len(e.degree) != n:
                raise ValueError(f"basis degree {e.degree} does not have length {n}")
        self.degrees = tuple(e.degree for e in self.elements)

    @classmethod
    def _made(cls, n: int, elements: Iterable[BasisElement]) -> "OrderedBasis":
        """The basis of library-made elements, whose degrees have length n."""
        basis = object.__new__(cls)
        basis.n = n
        basis.elements = tuple(elements)
        basis.degrees = tuple(e.degree for e in basis.elements)
        return basis

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, OrderedBasis)
            and self.n == other.n
            and self.elements == other.elements
        )

    def __repr__(self):
        return f"OrderedBasis(n={self.n}, degrees={[e.degree for e in self.elements]})"

    def degree(self, position: int) -> Mono:
        return self.degrees[position]

    def sort_lex_refined(self):
        """Stable sort with lexicographically largest degrees first.

        Returns (sorted basis, perm) where perm[old_position] = new_position.
        """
        order = sorted(range(len(self.elements)),
                       key=lambda i: self.elements[i].degree, reverse=True)
        perm = [0] * len(order)
        for new, old in enumerate(order):
            perm[old] = new
        basis = OrderedBasis._made(self.n, (self.elements[i] for i in order))
        return basis, tuple(perm)


class DegreeMasks:
    """Bitmasks over indexed exponent vectors, bit i standing for vector i.

    Per coordinate k, the distinct values of the vectors' k-th coordinates
    in increasing order, and their prefix masks: prefix j holds the vectors
    whose k-th coordinate is one of the first j values.  So the vectors
    that divide a are an AND of one prefix mask per coordinate, each found
    by bisection.  The tables hold one mask per distinct value, however
    large the exponents are.  degrees is a sequence of (index, exponent
    vector) pairs.
    """

    def __init__(self, degrees, n: int):
        self._known = 0  # the vectors that have a degree
        for i, _ in degrees:
            self._known |= 1 << i
        # Per coordinate (values, prefixes, top): a coordinate at or past
        # the top, the largest value, keeps every vector that has a degree.
        self._tables = []
        for k in range(n):
            by_value = {}
            for i, d in degrees:
                by_value[d[k]] = by_value.get(d[k], 0) | 1 << i
            values, prefixes = sorted(by_value), [0]
            for t in values:
                prefixes.append(prefixes[-1] | by_value[t])
            self._tables.append((values, prefixes, values[-1] if values else 0))

    def dividing(self, a: Mono) -> int:
        """Bitmask of the vectors that divide a."""
        mask = self._known
        for (values, prefixes, top), t in zip(self._tables, a):
            if t < top:
                mask &= prefixes[bisect_right(values, t)]
        return mask


def check_rows(name: str, rows, degrees, target: OrderedBasis) -> None:
    """Refuse (ValueError, naming the map name and the column) rows that are
    not the columns of a map into target whose column j has degree
    degrees[j]: a count other than len(degrees), a degree not in target.n
    variables, a position outside target, an entry whose position's degree
    does not divide the column's (a zero column may have degree None), or a
    coefficient that is zero or not of one of linalg.EXACT_TYPES."""
    if len(rows) != len(degrees):
        raise ValueError(f"{name} has {len(rows)} columns, expected {len(degrees)}")
    targets, rank, exact = target.degrees, len(target), linalg.EXACT_TYPES
    for j, (row, d) in enumerate(zip(rows, degrees)):
        if d is not None and len(d) != target.n:
            raise ValueError(f"{name}: column {j} has degree {d}, not of length {target.n}")
        for r, c in row.items():
            if not (type(r) is int and 0 <= r < rank):
                raise ValueError(f"{name}: column {j} has position {r}, outside a basis "
                                 f"of rank {rank}")
            if d is None or not all(map(le, targets[r], d)):
                raise ValueError(f"{name}: column {j} has degree {d}, which the degree "
                                 f"{targets[r]} of position {r} does not divide")
            if type(c) not in exact or not c:
                raise ValueError(f"{name}: column {j} has coefficient {c!r} at position "
                                 f"{r}, not a nonzero int or Fraction")


def unit_rows(generators, basis: OrderedBasis):
    """The scalar rows and degrees of the elements u e_j, for the (j, u)
    pairs of generators: {j: 1} at degree u deg e_j."""
    rows, degrees = [], []
    for j, u in generators:
        rows.append({j: 1})
        degrees.append(monomials.mul(u, basis.degree(j)))
    return rows, degrees


class Slices:
    """Multidegree slices of the spans of families of multihomogeneous
    vectors, reduced down a chain of degrees.

    The degree-a piece of F has one monomial, a / deg e_j, at each basis
    position j with deg e_j | a, so a vector of degree d | a contributes the
    scalar row position -> coefficient to the slice at a, whatever a is.
    Each family is a block (rows, degrees, target rank), the rows kept as
    the caller, unit_rows or a complex gives them, as linalg.eliminate
    modifies none, and the target rank that of their free module.  One
    DegreeMasks, block k's rows at its own bit offset, finds the rows whose
    degree divides a; a degree of None is never active.

    Down a chain of degrees, each a multiple of the one before,
    rank(k, active(a)) reduces each row of block k once with
    linalg.eliminate, into block k's pivots; one mask of the rows reduced
    and one list of the pivots made serve mark and undo for every block.
    """

    def __init__(self, blocks, n: int):
        self.n = n
        self.rows, known = [], []
        self.blocks = []  # per block: (bitmask of its rows, target rank)
        for rows, degrees, rank in blocks:
            start = len(self.rows)
            self.rows.extend(rows)
            known.extend((start + i, d) for i, d in enumerate(degrees) if d is not None)
            self.blocks.append(((1 << len(self.rows)) - (1 << start), rank))
        self.degrees = [d for _, d in known]
        self._masks = DegreeMasks(known, n)
        self.pivots = [{} for _ in self.blocks]
        self._reduced = 0  # bitmask of the rows reduced on the path
        self._made = []  # (block, leading column) of the pivots, in the order made

    def active(self, a: Mono) -> int:
        """Bitmask of the rows whose degree divides a."""
        return self._masks.dividing(a)

    def rank(self, k: int, active: int, bound: Optional[int] = None) -> int:
        """Reduce the rows of block k in the mask active(a) not reduced yet,
        until the block has bound pivots, and return its number of pivots.
        Down a chain of degrees that ends at a, that is the rank of block
        k's slice at a if it is below bound, and at least bound otherwise;
        the rows left wait for a later call.  The default bound is the
        block's target rank, which no rank exceeds."""
        block, top = self.blocks[k]
        if bound is None:
            bound = top
        pivots, rows, made = self.pivots[k], self.rows, self._made
        pending = active & block & ~self._reduced
        while pending and len(pivots) < bound:
            low = pending & -pending
            pending ^= low
            self._reduced |= low
            lead = linalg.eliminate(pivots, rows[low.bit_length() - 1])
            if lead is not None:
                made.append((k, lead))
        return len(pivots)

    def mark(self):
        """The point to which undo goes back."""
        return self._reduced, len(self._made)

    def undo(self, mark) -> None:
        """Drop the pivots made, and forget the rows reduced, since mark."""
        self._reduced, size = mark
        while len(self._made) > size:
            k, lead = self._made.pop()
            del self.pivots[k][lead]

    def walk(self, visit):
        """Visit every degree a of the lcm closure of the engine's degrees
        as visit(a, active(a)), depth first down monomials.lcm_closure's
        parent tree, where each degree is a multiple of its parent, so the
        ranks see chains of degrees; the engine is marked before a visit and
        undone once the visited degree's subtree is done.

        visit returns None where a passes.  Returns (failure, size): the
        (lex index, degree, visit's value) triple of the first failing
        degree in lex order, or None, and the closure's size.  A degree
        lies after its ancestors in lex order, so once a failure is found,
        every subtree rooted after it is skipped, and a failure found later
        lies before it.
        """
        closure = monomials.lcm_closure(self.degrees, self.n)
        children = {a: [] for a in closure}  # (lex index, degree) pairs
        for i, (a, parent) in enumerate(closure.items()):
            if parent is not None:
                children[parent].append((i, a))
        failure = None
        first = len(closure)  # lex index of the failure kept
        # An entry (i, a, None) visits a, of lex index i; (None, None, mark) undoes.
        stack = [(0, monomials.unit(self.n), None)]
        while stack:
            i, a, mark = stack.pop()
            if mark is not None:
                self.undo(mark)
                continue
            if i > first:
                continue
            mark = self.mark()
            value = visit(a, self.active(a))
            if value is not None:
                failure, first = (i, a, value), i
            stack.append((None, None, mark))
            stack.extend((j, b, None) for j, b in reversed(children[a]))
        return failure, len(closure)
