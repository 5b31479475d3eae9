"""Buchberger's algorithm over free multigraded modules with POT orders.

This is the independent oracle the rest of the library is checked against:
initial modules of syzygy modules are computed here from generators alone,
with no reference to how the generators arose.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import monomials
from .freemod import (
    ModuleVector,
    OrderedBasis,
    Slices,
    Term,
    TermOrder,
    leading_term,
)
from .monomials import Mono, MonomialIdeal


@dataclass(frozen=True)
class GroebnerBasis:
    generators: tuple
    order: TermOrder

    def leading_terms(self):
        return [leading_term(g, self.order) for g in self.generators]


@dataclass(frozen=True)
class InitialModule:
    """ini(M) = (+) I_j e_j, one monomial ideal per basis position."""

    basis: OrderedBasis
    components: tuple  # MonomialIdeal per position

    def __eq__(self, other):
        return (isinstance(other, InitialModule)
                and self.basis.degrees == other.basis.degrees
                and self.components == other.components)

    def component(self, position: int) -> MonomialIdeal:
        return self.components[position]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def nonzero_components(self):
        return [(j, c) for j, c in enumerate(self.components) if not c.is_zero()]

    def to_jsonable(self) -> dict:
        return {
            "degrees": [list(d) for d in self.basis.degrees],
            "components": [[list(g) for g in c.gens] for c in self.components],
        }


def normal_form(v: ModuleVector, reducers: Sequence, order: TermOrder) -> ModuleVector:
    """Full remainder of v on division by the reducers.

    reducers is a sequence of (vector, leading term) pairs, tried in order.
    """
    return _divide(v, reducers, order)[1]


def _divide(v: ModuleVector, reducers: Sequence, order: TermOrder):
    """The division of normal_form, returning (quotient, remainder).

    The quotient maps (reducer index, monomial) to a coefficient c, so that v
    is the sum of c * x^monomial * reducer over its entries plus the remainder.
    """
    n = v.n
    rem = v
    tail = ModuleVector(n)
    quotient = {}
    while not rem.is_zero():
        t = leading_term(rem, order)
        hit = None
        for i, (g, lt) in enumerate(reducers):
            if lt.position == t.position:
                mono = monomials.divide(t.monomial, lt.monomial)
                if mono is not None:
                    hit = (i, g, t.coeff / lt.coeff, mono)
                    break
        if hit is None:
            tail = tail + ModuleVector(n, {(t.position, t.monomial): t.coeff})
            rem = rem - ModuleVector(n, {(t.position, t.monomial): t.coeff})
        else:
            i, g, coeff, mono = hit
            quotient[(i, mono)] = quotient.get((i, mono), 0) + coeff
            rem = rem - g.scale(coeff, mono)
    return quotient, tail


def _spair(f, lt_f: Term, g, lt_g: Term):
    l = monomials.lcm(lt_f.monomial, lt_g.monomial)
    return (f.scale(1 / lt_f.coeff, monomials.divide(l, lt_f.monomial))
            - g.scale(1 / lt_g.coeff, monomials.divide(l, lt_g.monomial)))


def _single_position(v: ModuleVector) -> Optional[int]:
    positions = {pos for (pos, _), _ in v.items()}
    return positions.pop() if len(positions) == 1 else None


def buchberger(gens: Iterable[ModuleVector], order: TermOrder) -> GroebnerBasis:
    """The unique reduced Groebner basis of the submodule generated by gens.

    Pairs are processed by increasing multidegree of the S-pair lcm (total
    degree first, then lex, then insertion index), and every new element is
    fully reduced.  The product criterion is applied only to pairs whose
    elements both live in a single basis position; for genuine module
    elements the criterion is unsound and is not used.
    """
    basis = []  # list of (vector, leading term)
    n = order.basis.n

    def pair_key(i, j):
        lt_i, lt_j = basis[i][1], basis[j][1]
        l = monomials.lcm(lt_i.monomial, lt_j.monomial)
        degree = monomials.mul(l, order.basis.degree(lt_i.position))
        return (sum(degree), degree, i, j)

    def add_element(v):
        lt = leading_term(v, order)
        v = v.scale(1 / lt.coeff)
        lt = Term(Fraction(1), lt.monomial, lt.position)
        index = len(basis)
        basis.append((v, lt))
        for i in range(index):
            if basis[i][1].position == lt.position:
                pairs.append((i, index))

    pairs = []
    for g in gens:
        if g is not None and not g.is_zero():
            add_element(g)

    while pairs:
        pairs.sort(key=lambda ij: pair_key(*ij))
        i, j = pairs.pop(0)
        f, lt_f = basis[i]
        g, lt_g = basis[j]
        if (monomials.gcd(lt_f.monomial, lt_g.monomial) == monomials.unit(n)
                and _single_position(f) is not None
                and _single_position(g) is not None):
            continue
        s = _spair(f, lt_f, g, lt_g)
        rem = normal_form(s, basis, order)
        if not rem.is_zero():
            add_element(rem)

    # Minimalize: drop elements whose leading term another one divides.
    kept = []
    for idx, (g, lt) in enumerate(basis):
        redundant = False
        for idx2, (_, lt2) in enumerate(basis):
            if idx2 == idx:
                continue
            if lt2.position == lt.position and monomials.divides(lt2.monomial, lt.monomial):
                if monomials.divides(lt.monomial, lt2.monomial) and idx2 > idx:
                    continue  # equal leading terms: keep the earliest
                redundant = True
                break
        if not redundant:
            kept.append((g, lt))
    # Inter-reduce tails for the unique reduced basis.
    reduced = []
    for i, (g, lt) in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        head = ModuleVector(n, {(lt.position, lt.monomial): Fraction(1)})
        tail = normal_form(g - head, others, order)
        reduced.append(head + tail)
    reduced.sort(key=lambda v: order.key(leading_term(v, order).position,
                                         leading_term(v, order).monomial),
                 reverse=True)
    return GroebnerBasis(tuple(reduced), order)


def initial_module(gens: Iterable[ModuleVector], order: TermOrder) -> InitialModule:
    """Minimal generators of ini(M) per basis position, via Buchberger.

    For multihomogeneous generators the result depends only on the basis,
    not on the scalar order; the test suite checks this as a property.
    """
    gens = [g for g in gens if not g.is_zero()]
    gb = buchberger(gens, order)
    return monomial_module_from_terms(gb.order.basis, gb.leading_terms())


def monomial_module_from_terms(basis: OrderedBasis, terms: Iterable[Term]) -> InitialModule:
    """The monomial module generated by the terms, one ideal per basis position."""
    per_position = {}
    for t in terms:
        per_position.setdefault(t.position, []).append(t.monomial)
    components = tuple(MonomialIdeal(basis.n, per_position.get(j, []))
                       for j in range(len(basis)))
    return InitialModule(basis, components)


def hilbert_slice_check(gens: Sequence[ModuleVector], initial: InitialModule,
                        box: Mono):
    """Graded dimensions of the span of gens and of the initial module agree
    on every degree of the box.  Returns (ok, first failing degree).

    Both sides are ranks of one slice engine each; the initial module enters
    through its generators u e_j, which are unit rows.
    """
    span = Slices(gens, initial.basis)
    monomial = Slices([ModuleVector.generator(initial.basis.n, j, u)
                       for j, ideal in enumerate(initial.components) for u in ideal.gens],
                      initial.basis)
    for a in itertools.product(*(range(b + 1) for b in box)):
        if span.rank(span.active(a)) != monomial.rank(monomial.active(a)):
            return False, a
    return True, None


def is_squarefree_module(initial: InitialModule) -> bool:
    """All minimal generators u e_j carry squarefree total multidegree."""
    for j, ideal in initial.nonzero_components():
        d = initial.basis.degree(j)
        for g in ideal.gens:
            if not monomials.is_squarefree(monomials.mul(g, d)):
                return False
    return True


def kernel_generators(columns: Sequence[ModuleVector], source_basis: OrderedBasis,
                      target_basis: OrderedBasis, scalar: str = "lex"):
    """Generators of the kernel of the map sending e_j to columns[j].

    Uses the tag-module trick: each column is extended by a shadow term
    recording its source position, the extended module is eliminated with the
    target positions ranked above the shadow positions, and basis elements
    with vanishing target part are kernel elements.  The surviving shadow
    parts form a Groebner basis of the kernel under the source POT order.
    """
    n = target_basis.n
    r = len(target_basis)
    from .freemod import BasisElement

    extended = OrderedBasis(n, list(target_basis.elements)
                            + [BasisElement(e.degree, ("tag", e.label))
                               for e in source_basis.elements])
    order = TermOrder(extended, scalar)
    tagged = []
    for j, col in enumerate(columns):
        tagged.append(col + ModuleVector.generator(n, r + j))
    gb = buchberger(tagged, order)
    kernel = []
    for g in gb.generators:
        if all(pos >= r for (pos, _), _ in g.items()):
            kernel.append(g.map_positions(-r))
    return kernel
