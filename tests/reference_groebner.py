"""The Groebner engine on module vectors, the kernel the row engine of
syzdepth.groebner replaced, kept as the reference it is tested against.

These are groebner.GroebnerBasis, normal_form, _add_reducer, _reduce,
buchberger, _spair_loop, _minimal and initial_module as they read when
Buchberger's algorithm divided ModuleVectors of tuple monomials and
Fraction coefficients: term dicts keyed by (position, monomial), the
largest term found by term_key, and every element scaled to a monic
Fraction vector; freemod.add_multiple, their update of a term dict; and
the vector term order they read, freemod.Term, term_key and leading_term,
with groebner.monomial_module_from_terms, from before rows became the
library's element form.  Where the engine once called ModuleVector's
scale, + or -, it builds the same vector with the constructor, whose
normalising loop sums the terms in the same order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, sub
from typing import Iterable, NamedTuple, Sequence

from syzdepth import monomials
from syzdepth.freemod import OrderedBasis
from syzdepth.groebner import InitialModule
from syzdepth.monomials import Mono, MonomialIdeal

from reference_vectors import ModuleVector


class Term(NamedTuple):
    coeff: Fraction
    monomial: Mono
    position: int


def term_key(key):
    """Sort key of a (position, monomial) pair under position over lex."""
    position, monomial = key
    return (-position, monomial)


def leading_term(v: ModuleVector) -> Term:
    if v.is_zero():
        raise ValueError("zero vector has no leading term")
    pos, mono = max(v._terms, key=term_key)
    return Term(v._terms[(pos, mono)], mono, pos)


def monomial_module_from_terms(basis: OrderedBasis, terms: Iterable[Term]) -> InitialModule:
    """The monomial module generated by the terms, one ideal per basis position."""
    per_position = {}
    for t in terms:
        per_position.setdefault(t.position, []).append(t.monomial)
    components = tuple(MonomialIdeal(basis.n, per_position.get(j, []))
                       for j in range(len(basis)))
    return InitialModule(basis, components)


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


@dataclass(frozen=True)
class GroebnerBasis:
    generators: tuple
    basis: OrderedBasis

    def leading_terms(self):
        return [leading_term(g) for g in self.generators]


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
        tail = normal_form(ModuleVector(n, [*g.items(), *((k, -c) for k, c in head.items())]),
                           others)
        reduced[(lt.position, lt.monomial)] = ModuleVector(n, [*head.items(), *tail.items()])
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
        v = ModuleVector(v.n, {key: c * lt.coeff ** -1 for key, c in v.items()})
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
