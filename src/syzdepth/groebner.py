"""Buchberger's algorithm over free multigraded modules, position over lex.

This is the independent oracle the rest of the library is checked against:
initial modules of syzygy modules are computed here from generators alone,
with no reference to how the generators arose.  The term order is the one
of freemod, read on the ordered basis passed in.

The S-pair loop keeps its pairs in a heap keyed once, when a pair is
pushed, by the multidegree of its lcm.  Division reduces one term dict in
place against reducers bucketed by leading position, each bucket in the
given order, so the first divisor found is the first in the whole list.
Arithmetic is exact throughout; multiplying by 1 or -1 copies or negates.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from operator import le, sub
from typing import Iterable, Sequence

from . import monomials
from .freemod import (
    BasisElement,
    ModuleVector,
    OrderedBasis,
    Slices,
    Term,
    add_multiple,
    leading_term,
    scalar_rows,
    term_key,
    unit_rows,
    walk_closure,
)
from .monomials import MonomialIdeal


@dataclass(frozen=True)
class GroebnerBasis:
    generators: tuple
    basis: OrderedBasis

    def leading_terms(self):
        return [leading_term(g) for g in self.generators]


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


def normal_form(v: ModuleVector, reducers: Sequence) -> ModuleVector:
    """Full remainder of v on division by the reducers.

    reducers is a sequence of (vector, leading term) pairs, tried in order.
    """
    buckets = {}
    for i, (g, lt) in enumerate(reducers):
        _add_reducer(buckets, i, g, lt)
    return ModuleVector(v.n, _reduce(dict(v.items()), buckets))


def _add_reducer(buckets: dict, index: int, g: ModuleVector, lt: Term) -> tuple:
    """File reducer g under its leading position, after the earlier ones, as
    the entry (index, leading monomial, leading coefficient, other terms),
    which is returned."""
    lead = (lt.position, lt.monomial)
    entry = (index, lt.monomial, lt.coeff, [(key, c) for key, c in g.items() if key != lead])
    buckets.setdefault(lt.position, []).append(entry)
    return entry


def _reduce(rem: dict, buckets: dict) -> dict:
    """Divide the terms rem, in place, by the bucketed reducers; return the
    remainder terms in the order they were found.

    Each step takes the leading term of rem and the first reducer of its
    position whose leading monomial divides it.  The reducer's leading term
    cancels it exactly, so it is popped and the other terms are subtracted.
    """
    tail = {}
    while rem:
        lead = max(rem, key=term_key)
        c = rem.pop(lead)
        pos, mono = lead
        for _, lm, lc, rest in buckets.get(pos, ()):
            if all(map(le, lm, mono)):
                break
        else:
            tail[lead] = c
            continue
        shift = tuple(map(sub, mono, lm))
        coeff = c if lc == 1 else c / lc
        add_multiple(rem, rest, -coeff, shift)
    return tail


def buchberger(gens: Iterable[ModuleVector], basis: OrderedBasis) -> GroebnerBasis:
    """The unique reduced Groebner basis of the submodule generated by gens:
    the S-pair loop, minimalisation, then inter-reduction of the tails."""
    kept = _minimal(_spair_loop(gens, basis))
    # Inter-reduce tails for the unique reduced basis, keyed by leading term.
    n = basis.n
    reduced = {}
    for i, (g, lt) in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        head = ModuleVector(n, {(lt.position, lt.monomial): Fraction(1)})
        tail = normal_form(g - head, others)
        reduced[(lt.position, lt.monomial)] = head + tail
    ordered = sorted(reduced, key=term_key, reverse=True)
    return GroebnerBasis(tuple(reduced[key] for key in ordered), basis)


def _spair_loop(gens: Iterable[ModuleVector], basis: OrderedBasis) -> list:
    """A Groebner basis of the submodule generated by gens, as a list of
    (monic vector, leading term) pairs.

    Pairs wait in a heap keyed by the multidegree of their lcm (total degree
    first, then lex, then the two indices); each key is computed once, when
    the pair is pushed, and no two are equal.  Every new element is fully
    reduced against the earlier ones, bucketed by leading position.  The
    product criterion is applied only to pairs whose elements both live in a
    single basis position; for genuine module elements it is unsound and is
    not used.
    """
    elements = []  # list of (vector, leading term)
    entries = []  # the reducer entry of each element
    single = []  # whether each element lives in a single basis position
    buckets = {}  # leading position -> reducer entries, by index
    queue = []  # heap of (total degree, degree, i, j)

    def add_element(v):
        lt = leading_term(v)
        v = v.scale(lt.coeff ** -1)
        lt = Term(Fraction(1), lt.monomial, lt.position)
        index = len(elements)
        degree = basis.degree(lt.position)
        for i, lm, _, _ in buckets.get(lt.position, ()):
            d = monomials.mul(monomials.lcm(lm, lt.monomial), degree)
            heapq.heappush(queue, (sum(d), d, i, index))
        elements.append((v, lt))
        entries.append(_add_reducer(buckets, index, v, lt))
        single.append(len({pos for (pos, _), _ in v.items()}) == 1)

    for g in gens:
        if g is not None and not g.is_zero():
            add_element(g)

    while queue:
        _, _, i, j = heapq.heappop(queue)
        _, lm_i, _, rest_i = entries[i]
        _, lm_j, _, rest_j = entries[j]
        if single[i] and single[j] and not any(map(min, lm_i, lm_j)):
            continue
        # The S-pair x^(l/lm_i) v_i - x^(l/lm_j) v_j; the monic leading
        # terms cancel, so only the other terms enter it.
        l = monomials.lcm(lm_i, lm_j)
        s = {}
        add_multiple(s, rest_i, 1, monomials.divide(l, lm_i))
        add_multiple(s, rest_j, -1, monomials.divide(l, lm_j))
        tail = _reduce(s, buckets)
        if tail:
            add_element(ModuleVector(basis.n, tail))
    return elements


def _minimal(elements: list) -> list:
    """The elements whose leading term no other one divides (of equal
    leading terms the earliest): a minimal Groebner basis."""
    kept = []
    for idx, (g, lt) in enumerate(elements):
        redundant = False
        for idx2, (_, lt2) in enumerate(elements):
            if idx2 == idx:
                continue
            if lt2.position == lt.position and monomials.divides(lt2.monomial, lt.monomial):
                if monomials.divides(lt.monomial, lt2.monomial) and idx2 > idx:
                    continue  # equal leading terms: keep the earliest
                redundant = True
                break
        if not redundant:
            kept.append((g, lt))
    return kept


def initial_module(gens: Iterable[ModuleVector], basis: OrderedBasis) -> InitialModule:
    """Minimal generators of ini(M) per basis position: the leading terms of
    a minimal Groebner basis, which are those of the reduced one, so the
    tails are never inter-reduced."""
    kept = _minimal(_spair_loop(gens, basis))
    return monomial_module_from_terms(basis, [lt for _, lt in kept])


def monomial_module_from_terms(basis: OrderedBasis, terms: Iterable[Term]) -> InitialModule:
    """The monomial module generated by the terms, one ideal per basis position."""
    per_position = {}
    for t in terms:
        per_position.setdefault(t.position, []).append(t.monomial)
    components = tuple(MonomialIdeal(basis.n, per_position.get(j, []))
                       for j in range(len(basis)))
    return InitialModule(basis, components)


def hilbert_slice_check(gens: Sequence[ModuleVector], initial: InitialModule):
    """Graded dimensions of the span of gens and of the initial module agree
    in every multidegree.  Returns (ok, first failing degree in lex order).

    Both sides are one Slices engine each: the generators, and the initial
    module's generators u e_j, which are unit rows {j: 1} at degree
    u deg e_j.  Both ranks are fixed by which generator degrees divide the
    degree, so freemod.walk_closure takes both engines down the lcm closure
    of those degrees.
    """
    basis = initial.basis
    span = Slices(*scalar_rows(gens, basis), basis)
    monomial = Slices(*unit_rows(((j, u) for j, ideal in enumerate(initial.components)
                                  for u in ideal.gens), basis), basis)

    def differs(a):
        return True if span.reduce(span.active(a)) != monomial.reduce(monomial.active(a)) else None

    failures, _ = walk_closure(span.degrees + monomial.degrees, basis.n, [span, monomial], differs)
    return (False, failures[0][1]) if failures else (True, None)


def is_squarefree_module(initial: InitialModule) -> bool:
    """All minimal generators u e_j carry squarefree total multidegree."""
    for j, ideal in initial.nonzero_components():
        d = initial.basis.degree(j)
        for g in ideal.gens:
            if not monomials.is_squarefree(monomials.mul(g, d)):
                return False
    return True


def kernel_generators(columns: Sequence[ModuleVector], source_basis: OrderedBasis,
                      target_basis: OrderedBasis):
    """Generators of the kernel of the map sending e_j to columns[j].

    The elements of the tagged Groebner basis (_tagged_groebner) with no
    target part are kernel elements, and their tag parts form a Groebner
    basis of the kernel under the source POT order.
    """
    gb = _tagged_groebner(columns, source_basis, target_basis)
    r = len(target_basis)
    kernel = []
    for g in gb.generators:
        if all(pos >= r for (pos, _), _ in g.items()):
            kernel.append(g.map_positions(-r))
    return kernel


def _tagged_groebner(columns: Sequence[ModuleVector], source_basis: OrderedBasis,
                    target_basis: OrderedBasis) -> GroebnerBasis:
    """The tag-module trick: the reduced Groebner basis of the columns, each
    extended by a tag term e_(r+j) recording its source position j.

    The extended basis is the target basis (r positions) followed by the
    source basis, so the target positions rank above the tags.  Every
    element of the tagged module is d(w) + w with w read at the tags.
    """
    n = target_basis.n
    r = len(target_basis)
    extended = OrderedBasis(n, list(target_basis.elements)
                            + [BasisElement(e.degree, ("tag", e.label))
                               for e in source_basis.elements])
    tagged = [col + ModuleVector.generator(n, r + j) for j, col in enumerate(columns)]
    return buchberger(tagged, extended)
