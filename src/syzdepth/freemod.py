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


def vector_to_row(v: ModuleVector, coords: dict):
    row = [0] * len(coords)
    for key, c in v.items():
        row[coords[key]] = c
    return row


def graded_piece(gens, a: Mono, basis: OrderedBasis):
    """Basis of the degree-a slice of the module generated by gens.

    Every generator must be multihomogeneous; the slice is spanned by the
    monomial multiples x^(a - deg g) * g that land in degree a.
    """
    multiples = []
    for g in gens:
        if g.is_zero():
            continue
        d = multidegree_of(g, basis)
        if d is None:
            raise ValueError("graded_piece needs multihomogeneous generators")
        shift = monomials.divide(a, d)
        if shift is not None:
            multiples.append(g.scale(1, shift))
    if not multiples:
        return []
    coords = {}
    for v in multiples:
        for key in v._terms:
            coords.setdefault(key, len(coords))
    rows = [vector_to_row(v, coords) for v in multiples]
    reduced, _ = linalg.rref(rows)
    keys = list(coords)
    out = []
    for row in reduced:
        out.append(ModuleVector(basis.n, {keys[i]: c for i, c in enumerate(row) if c}))
    return out


def graded_dimension(gens, a: Mono, basis: OrderedBasis) -> int:
    return len(graded_piece(gens, a, basis))
