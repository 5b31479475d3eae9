"""Free multigraded modules with ordered bases and position-over-term orders.

An element of a free module is a normalized sum of terms (coefficient,
monomial, basis position).  The term order compares basis positions first
(position 0 is the largest basis element), then monomials under the chosen
scalar order.  For multihomogeneous elements the leading term depends only
on the basis ordering, never on the scalar order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, NamedTuple, Optional

from . import linalg, monomials
from .monomials import Mono, order_key


@dataclass(frozen=True)
class BasisElement:
    degree: Mono
    label: Any = None


class OrderedBasis:
    """An ordered multihomogeneous basis; the sequence order is the module order."""

    __slots__ = ("n", "elements")

    def __init__(self, n: int, elements: Iterable[BasisElement]):
        self.n = n
        self.elements = tuple(elements)
        for e in self.elements:
            if len(e.degree) != n:
                raise ValueError(f"basis degree {e.degree} does not have length {n}")

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
        return self.elements[position].degree

    @property
    def degrees(self):
        return tuple(e.degree for e in self.elements)

    def is_lex_refined(self) -> bool:
        degs = self.degrees
        return all(degs[i] >= degs[i + 1] for i in range(len(degs) - 1))

    def sort_lex_refined(self):
        """Stable sort with lexicographically largest degrees first.

        Returns (sorted basis, perm) where perm[old_position] = new_position.
        """
        order = sorted(range(len(self.elements)),
                       key=lambda i: self.elements[i].degree, reverse=True)
        perm = [0] * len(order)
        for new, old in enumerate(order):
            perm[old] = new
        basis = OrderedBasis(self.n, (self.elements[i] for i in order))
        return basis, tuple(perm)


class Term(NamedTuple):
    coeff: Fraction
    monomial: Mono
    position: int


@dataclass(frozen=True)
class TermOrder:
    """Position-over-term order on a free module with a fixed ordered basis."""

    basis: OrderedBasis
    scalar: str = "lex"

    def key(self, position: int, monomial: Mono):
        return (-position, order_key(self.scalar)(monomial))


class ModuleVector:
    """Normalized term sum; zero is the empty sum."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self._terms = {}
        if terms:
            for key, coeff in (terms.items() if isinstance(terms, dict) else terms):
                if coeff:
                    pos, mono = key
                    cur = self._terms.get((pos, mono))
                    new = (cur + coeff) if cur is not None else Fraction(coeff)
                    if new:
                        self._terms[(pos, mono)] = new
                    elif cur is not None:
                        del self._terms[(pos, mono)]

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[Term]) -> "ModuleVector":
        return cls(n, [((t.position, tuple(t.monomial)), Fraction(t.coeff)) for t in terms])

    @classmethod
    def generator(cls, n: int, position: int, monomial: Optional[Mono] = None,
                  coeff=1) -> "ModuleVector":
        mono = tuple(monomial) if monomial is not None else monomials.unit(n)
        return cls(n, {(position, mono): Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self._terms

    def items(self):
        return self._terms.items()

    def terms(self, order: Optional[TermOrder] = None):
        """Terms, sorted descending when an order is given."""
        items = self._terms.items()
        if order is not None:
            items = sorted(items, key=lambda kv: order.key(*kv[0]), reverse=True)
        return [Term(c, mono, pos) for (pos, mono), c in items]

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        return (isinstance(other, ModuleVector) and self.n == other.n
                and self._terms == other._terms)

    def __repr__(self):
        return f"ModuleVector({self._terms})"

    def __add__(self, other):
        out = dict(self._terms)
        for key, c in other._terms.items():
            new = out.get(key, 0) + c
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        v = ModuleVector(self.n)
        v._terms = out
        return v

    def __neg__(self):
        v = ModuleVector(self.n)
        v._terms = {k: -c for k, c in self._terms.items()}
        return v

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff, monomial: Optional[Mono] = None) -> "ModuleVector":
        """Multiply by coeff * x^monomial."""
        coeff = Fraction(coeff)
        v = ModuleVector(self.n)
        if not coeff:
            return v
        if monomial is None or not any(monomial):
            v._terms = {k: c * coeff for k, c in self._terms.items()}
        else:
            v._terms = {(pos, monomials.mul(mono, monomial)): c * coeff
                        for (pos, mono), c in self._terms.items()}
        return v

    def map_positions(self, shift) -> "ModuleVector":
        """Relabel positions through a callable or an offset int."""
        fn = (lambda p: p + shift) if isinstance(shift, int) else shift
        v = ModuleVector(self.n)
        v._terms = {(fn(pos), mono): c for (pos, mono), c in self._terms.items()}
        return v

    def coefficient(self, position: int, monomial: Mono) -> Fraction:
        return self._terms.get((position, monomial), Fraction(0))


def leading_term(v: ModuleVector, order: TermOrder) -> Term:
    if v.is_zero():
        raise ValueError("zero vector has no leading term")
    pos, mono = max(v._terms, key=lambda key: order.key(*key))
    return Term(v._terms[(pos, mono)], mono, pos)


def multidegree_of(v: ModuleVector, basis: OrderedBasis) -> Optional[Mono]:
    """The common multidegree of all terms, or None (zero and mixed vectors)."""
    degree = None
    for (pos, mono), _ in v.items():
        d = monomials.mul(mono, basis.degree(pos))
        if degree is None:
            degree = d
        elif degree != d:
            return None
    return degree


class DegreeMasks:
    """Bitmasks over indexed exponent vectors, bit i standing for vector i.

    at_most[k][t] holds the vectors whose k-th coordinate is at most t, so
    the vectors in a box are an AND of one prefix mask per coordinate.
    degrees is a sequence of (index, exponent vector) pairs, and size the
    number of bits of the full mask.
    """

    def __init__(self, degrees, n: int, size: int):
        self.full = (1 << size) - 1
        self.at_most = []
        for k in range(n):
            below = [0] * (max((d[k] for _, d in degrees), default=0) + 1)
            for i, d in degrees:
                below[d[k]] |= 1 << i
            for t in range(1, len(below)):
                below[t] |= below[t - 1]
            self.at_most.append(below)

    def dividing(self, a: Mono) -> int:
        """Bitmask of the vectors that divide a."""
        mask = self.full
        for below, t in zip(self.at_most, a):
            mask &= below[min(t, len(below) - 1)]
        return mask

    def multiples(self, a: Mono) -> int:
        """Bitmask of the vectors that a divides."""
        mask = self.full
        for below, t in zip(self.at_most, a):
            if t > 0:
                mask &= ~below[min(t - 1, len(below) - 1)]
        return mask


class Slices:
    """Multidegree slices of the span of multihomogeneous vectors.

    The degree-a piece of F has one monomial, a / deg e_j, at each basis
    position j with deg e_j | a, so a vector of degree d | a contributes the
    scalar row position -> coefficient to the slice at a, whatever a is.
    The vectors whose degree divides a are found by AND-ing per-coordinate
    bitsets, and ranks are cached per bitmask.  Pass degrees to give each
    vector a degree of its own (a zero vector then still counts as active);
    otherwise zero vectors have no degree and are never active.
    """

    def __init__(self, vectors, basis: OrderedBasis, degrees=None):
        self.basis = basis
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
            self._rows.append({pos: c for (pos, _), c in v.items()})
            if d is not None:
                known.append((i, d))
        self._masks = DegreeMasks(known, basis.n, len(self._rows))
        self._ranks = {}

    def active(self, a: Mono) -> int:
        """Bitmask of the vectors whose degree divides a."""
        return self._masks.dividing(a)

    def _matrix(self, mask: int, extra=None):
        rows = [self._rows[i] for i in _bits(mask)]
        if extra is not None:
            rows.append(extra)
        positions = sorted({pos for row in rows for pos in row})
        return [[row.get(pos, 0) for pos in positions] for row in rows], positions

    def rank(self, mask: int) -> int:
        """Exact rank of the chosen vectors."""
        if mask not in self._ranks:
            self._ranks[mask] = linalg.exact_rank(self._matrix(mask)[0])
        return self._ranks[mask]

    def piece(self, a: Mono):
        """A basis of the degree-a slice, as vectors in RREF."""
        matrix, positions = self._matrix(self.active(a))
        reduced, _ = linalg.rref(matrix)
        return [ModuleVector(self.basis.n,
                             {(pos, monomials.divide(a, self.basis.degree(pos))): c
                              for pos, c in zip(positions, row) if c})
                for row in reduced]

    def solve(self, target: ModuleVector, a: Mono):
        """Coefficients {index: c} with sum c * x^(a - deg v_index) * v_index
        equal to the degree-a target, or None when the slice misses it."""
        mask = self.active(a)
        matrix, _ = self._matrix(mask, {pos: c for (pos, _), c in target.items()})
        *columns, goal = matrix
        sol = linalg.solve_exact(columns, goal)
        if sol is None:
            return None
        return {i: c for i, c in zip(_bits(mask), sol) if c}


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def graded_piece(gens, a: Mono, basis: OrderedBasis):
    """Basis of the degree-a slice of the module generated by gens.

    Every generator must be multihomogeneous; the slice is spanned by the
    monomial multiples x^(a - deg g) * g that land in degree a.
    """
    return Slices(gens, basis).piece(a)


def graded_dimension(gens, a: Mono, basis: OrderedBasis) -> int:
    slices = Slices(gens, basis)
    return slices.rank(slices.active(a))
