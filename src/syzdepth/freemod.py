"""Free multigraded modules with ordered bases and the position-over-lex order.

An element of a free module is a normalized sum of terms (coefficient,
monomial, basis position).  The term order is fixed: it compares basis
positions first (position 0 is the largest basis element), then monomials
lexicographically.  A multihomogeneous element has at most one term per
position, x^(d - deg e_j) at position j, so its leading term is fixed by the
basis ordering alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Any, Iterable, NamedTuple, Optional

from . import linalg, monomials
from .monomials import Mono


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


def term_key(key):
    """Sort key of a (position, monomial) pair under position over lex."""
    position, monomial = key
    return (-position, monomial)


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
                    if cur is not None:
                        new = cur + coeff
                    else:
                        new = coeff if type(coeff) is Fraction else Fraction(coeff)
                    if new:
                        self._terms[(pos, mono)] = new
                    elif cur is not None:
                        del self._terms[(pos, mono)]

    @classmethod
    def generator(cls, n: int, position: int, monomial: Optional[Mono] = None,
                  coeff=1) -> "ModuleVector":
        mono = tuple(monomial) if monomial is not None else monomials.unit(n)
        return cls(n, {(position, mono): Fraction(coeff)})

    @classmethod
    def from_terms(cls, n: int, terms: dict) -> "ModuleVector":
        """The vector with the term dict terms, taken as it is, without the
        normalising loop: every coefficient must be a nonzero Fraction."""
        v = cls(n)
        v._terms = terms
        return v

    def is_zero(self) -> bool:
        return not self._terms

    def items(self):
        return self._terms.items()

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
            old = out.get(key)
            new = c if old is None else old + c
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        return ModuleVector.from_terms(self.n, out)

    def __neg__(self):
        return ModuleVector.from_terms(self.n, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff, monomial: Optional[Mono] = None) -> "ModuleVector":
        """Multiply by coeff * x^monomial; by 1 or -1 the coefficients are
        copied or negated, not multiplied."""
        if type(coeff) is not Fraction:
            coeff = Fraction(coeff)
        if not coeff:
            return ModuleVector(self.n)
        items = self._terms.items()
        if monomial is not None and any(monomial):
            items = [((pos, monomials.mul(mono, monomial)), c) for (pos, mono), c in items]
        if coeff == 1:
            terms = dict(items)
        elif coeff == -1:
            terms = {k: -c for k, c in items}
        else:
            terms = {k: c * coeff for k, c in items}
        return ModuleVector.from_terms(self.n, terms)

    def map_positions(self, shift) -> "ModuleVector":
        """Relabel positions through a callable or an offset int."""
        fn = (lambda p: p + shift) if isinstance(shift, int) else shift
        return ModuleVector.from_terms(
            self.n, {(fn(pos), mono): c for (pos, mono), c in self._terms.items()})

    def coefficient(self, position: int, monomial: Mono) -> Fraction:
        return self._terms.get((position, monomial), Fraction(0))


def add_multiple(terms: dict, items, coeff, shift: Mono) -> None:
    """terms += coeff * x^shift * items, in place, with zero sums dropped.

    terms maps (position, monomial) to a coefficient, and items is a
    sequence of such pairs.  A coeff of 1 or -1 adds or subtracts the item
    coefficients, ints or Fractions, as they are, without multiplying.  A
    missing key starts from c, -c or c * coeff, not from 0 + ..., which
    would send every new Fraction through its reflected operator.
    """
    moved = any(shift)
    sign = 1 if coeff == 1 else -1 if coeff == -1 else 0
    for (pos, mono), c in items:
        key = (pos, tuple(map(add, mono, shift))) if moved else (pos, mono)
        old = terms.get(key)
        if sign > 0:
            new = c if old is None else old + c
        elif sign < 0:
            new = -c if old is None else old - c
        else:
            new = c * coeff if old is None else old + c * coeff
        if new:
            terms[key] = new
        else:
            terms.pop(key, None)


def leading_term(v: ModuleVector) -> Term:
    if v.is_zero():
        raise ValueError("zero vector has no leading term")
    pos, mono = max(v._terms, key=term_key)
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
        # A coordinate at or past its table's top keeps every vector that
        # has a degree, the top's mask; the tables never change, so each
        # top index and the mask's complement are stored once.
        self._known = 0
        for i, _ in degrees:
            self._known |= 1 << i
        self._unknown = self.full & ~self._known
        self._tables = [(below, len(below) - 1) for below in self.at_most]

    def dividing(self, a: Mono) -> int:
        """Bitmask of the vectors that divide a."""
        mask = self._known
        for (below, top), t in zip(self._tables, a):
            if t < top:
                mask &= below[t]
        return mask

    def multiples(self, a: Mono) -> int:
        """Bitmask of the vectors that a divides."""
        mask = self.full
        for (below, top), t in zip(self._tables, a):
            if t > top:
                mask &= self._unknown
            elif t > 0:
                mask &= ~below[t - 1]
        return mask


class Slices:
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
    zero vectors have no degree and are never active.  Every slice is fixed by which of
    the degrees in self.degrees divide a.
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
