"""Buchberger's algorithm over free multigraded modules, position over lex.

This is the independent oracle the rest of the library is checked against:
initial modules of syzygy modules are computed here from generators alone,
with no reference to how the generators arose.  The term order is the one
of freemod, read on the ordered basis passed in.

A multihomogeneous element has one term x^(d - deg e_j) at each position j
of its scalar row {j: coefficient} at its degree d, so the engine runs on
the (rows, degrees, basis) triple of freemod.Slices and of every
FreeComplex level.  Elements are monic and filed by leading (smallest)
position in the order made, and x^(d_k - deg e_r) divides x^(d - deg e_r)
exactly when d_k | d.  Arithmetic is exact: a quotient by an entry other
than 1 or -1 is a Fraction, integral values kept as ints.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from operator import le, sub
from typing import Iterable, Sequence

from . import linalg, monomials
from .freemod import (
    BasisElement,
    ModuleVector,
    OrderedBasis,
    Slices,
    Term,
    read_columns,
    row_vectors,
    scalar_rows,
    unit_rows,
    walk_closure,
)
from .monomials import MonomialIdeal


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis as monic scalar rows and their degrees on the
    basis; generators, its module vectors, are made from them when read."""

    rows: tuple
    degrees: tuple
    basis: OrderedBasis

    @property
    def generators(self) -> tuple:
        return tuple(row_vectors(self.rows, self.degrees, self.basis))

    def leading_terms(self):
        return leading_terms_of_rows(self.rows, self.degrees, self.basis)

    def remainder(self, row: dict, degree) -> dict:
        """The remainder of the row of the degree on division by the basis."""
        filed = {}
        for index, element in enumerate(zip(self.rows, self.degrees)):
            _file(filed, index, *element)
        return _reduce(dict(row), degree, filed)


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


def leading_terms_of_rows(rows, degrees, basis: OrderedBasis) -> list:
    """The leading terms of the nonzero rows at their degrees: the entry c
    at the smallest position r of a row of degree d is the term
    c x^(d - deg e_r)."""
    targets, terms = basis.degrees, []
    for row, d in zip(rows, degrees):
        if row:
            r = min(row)
            terms.append(Term(Fraction(row[r]), tuple(map(sub, d, targets[r])), r))
    return terms


def _monic(row: dict) -> dict:
    """The row divided by its leading entry: as it is by 1, negated by -1,
    and otherwise by Fraction quotients, integral values kept as ints."""
    lead = row[min(row)]
    if lead == 1:
        return row
    if lead == -1:
        return {r: -c for r, c in row.items()}
    quotients = ((r, Fraction(c) / lead) for r, c in row.items())
    return {r: q.numerator if q.denominator == 1 else q for r, q in quotients}


def _file(filed: dict, index: int, row: dict, degree) -> tuple:
    """File the monic row of the degree under its leading position, after
    the earlier ones, as (index, degree, the other entries); returns the
    position and that entry."""
    r = min(row)
    entry = (index, degree, {k: c for k, c in row.items() if k != r})
    filed.setdefault(r, []).append(entry)
    return r, entry


def _reduce(rem: dict, degree, filed: dict) -> dict:
    """Divide the row rem of the degree, in place, by the filed elements;
    return the remainder entries in the order they were found.  Each step
    pops the smallest position r left and subtracts that many times the
    other entries, all past r, of the first element filed under r whose
    degree divides the degree, as its leading 1 cancels the popped entry."""
    tail = {}
    while rem:
        r = min(rem)
        c = rem.pop(r)
        for _, d, rest in filed.get(r, ()):
            if all(map(le, d, degree)):
                break
        else:
            tail[r] = c
            continue
        linalg.add_scaled(rem, -c, rest)
    return tail


def buchberger(gens: Iterable[ModuleVector], basis: OrderedBasis) -> GroebnerBasis:
    """The unique reduced Groebner basis of the submodule generated by gens,
    read by freemod.scalar_rows, which refuses (ValueError) a generator that
    is not multihomogeneous or has a position outside the basis."""
    return buchberger_rows(*scalar_rows(gens, basis), basis)


def buchberger_rows(rows, degrees, basis: OrderedBasis) -> GroebnerBasis:
    """buchberger on scalar rows and their degrees: the S-pair loop,
    minimalisation, then inter-reduction of the tails against the kept
    elements, filed once, as a tail lies past its own leading position.
    The rows are sorted by leading term, largest first."""
    filed = {}
    kept = _minimal(_spair_loop(rows, degrees, basis))
    entries = [_file(filed, index, *element) for index, element in enumerate(kept)]
    reduced = sorted(((r, d, {r: 1, **_reduce(dict(rest), d, filed)})
                      for r, (_, d, rest) in entries),
                     key=lambda element: (-element[0], element[1]), reverse=True)
    return GroebnerBasis(tuple(row for _, _, row in reduced),
                         tuple(d for _, d, _ in reduced), basis)


def _spair_loop(rows, degrees, basis: OrderedBasis) -> list:
    """A Groebner basis of the submodule generated by the rows, as a list of
    (monic row, degree) pairs; an empty row is skipped.

    Pairs of elements filed under one position r wait in a heap keyed once
    by the lcm l of their degrees (total degree, lex, then the two indices).
    The S-pair, the difference of the rows without their leading entries at
    degree l, is fully reduced against the elements so far.  The product
    criterion, gcd(d_i - deg e_r, d_j - deg e_r) = 0, is applied only when
    both rows have a single entry; for module elements it is unsound.
    """
    elements, entries, filed, queue = [], [], {}, []
    targets = basis.degrees

    def add(row, degree):
        row, index = _monic(row), len(elements)
        for i, d, _ in filed.get(min(row), ()):
            l = tuple(map(max, d, degree))
            heapq.heappush(queue, (sum(l), l, i, index))
        elements.append((row, degree))
        entries.append(_file(filed, index, row, degree))

    for row, d in zip(rows, degrees):
        if row:
            add(row, d)

    while queue:
        _, l, i, j = heapq.heappop(queue)
        r, (_, d_i, rest_i) = entries[i]
        _, (_, d_j, rest_j) = entries[j]
        if not rest_i and not rest_j and tuple(map(min, d_i, d_j)) == targets[r]:
            continue
        s = dict(rest_i)
        linalg.add_scaled(s, -1, rest_j)
        tail = _reduce(s, l, filed)
        if tail:
            add(tail, l)
    return elements


def _minimal(elements: list) -> list:
    """The elements whose leading term no other one divides (of equal
    leading terms the earliest): a minimal Groebner basis.  An element is
    compared only with those of its leading position."""
    leads = [min(row) for row, _ in elements]
    filed = {}
    for index, (r, (_, d)) in enumerate(zip(leads, elements)):
        filed.setdefault(r, []).append((index, d))
    return [(row, d) for index, (r, (row, d)) in enumerate(zip(leads, elements))
            if not any(k != index and all(map(le, e, d)) and (e != d or k < index)
                       for k, e in filed[r])]


def initial_module(gens: Iterable[ModuleVector], basis: OrderedBasis) -> InitialModule:
    """Minimal generators of ini(M) per basis position, read as buchberger
    reads gens."""
    return initial_module_rows(*scalar_rows(gens, basis), basis)


def initial_module_rows(rows, degrees, basis: OrderedBasis) -> InitialModule:
    """initial_module on scalar rows and their degrees: the leading terms of
    a minimal Groebner basis, which are those of the reduced one, so the
    tails are never inter-reduced."""
    kept = _minimal(_spair_loop(rows, degrees, basis))
    return monomial_module_from_terms(basis, leading_terms_of_rows(
        [row for row, _ in kept], [d for _, d in kept], basis))


def monomial_module_from_terms(basis: OrderedBasis, terms: Iterable[Term]) -> InitialModule:
    """The monomial module generated by the terms, one ideal per basis position."""
    per_position = {}
    for t in terms:
        per_position.setdefault(t.position, []).append(t.monomial)
    components = tuple(MonomialIdeal(basis.n, per_position.get(j, []))
                       for j in range(len(basis)))
    return InitialModule(basis, components)


def hilbert_slice_check(rows, degrees, initial: InitialModule):
    """Graded dimensions of the span of the generators, given as scalar rows
    and their degrees (None for a zero row), and of the initial module agree
    in every multidegree.  Returns (ok, first failing degree in lex order).

    Both sides are one Slices engine each: the generators, and the initial
    module's generators u e_j, which are unit rows {j: 1} at degree
    u deg e_j.  Both ranks are fixed by which generator degrees divide the
    degree, so freemod.walk_closure takes both engines down the lcm closure
    of those degrees.
    """
    basis = initial.basis
    span = Slices(rows, degrees, basis)
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

    The columns are read by freemod.read_columns, which refuses one off the
    degree of its basis element or with a position outside the target.  The
    elements of the tagged Groebner basis (_tagged_groebner) with no target
    part are kernel elements, and their tag parts form a Groebner basis of
    the kernel under the source POT order.
    """
    rows = read_columns("the map", columns, source_basis, target_basis)
    gb = _tagged_groebner(rows, source_basis, target_basis)
    r = len(target_basis)
    kernel = [({pos - r: c for pos, c in row.items()}, d)
              for row, d in zip(gb.rows, gb.degrees) if min(row) >= r]
    return row_vectors([row for row, _ in kernel], [d for _, d in kernel], source_basis)


def _tagged_groebner(rows, source_basis: OrderedBasis,
                     target_basis: OrderedBasis) -> GroebnerBasis:
    """The tag-module trick: the reduced Groebner basis of the rows of a
    map's columns, each extended by a tag entry 1 at r + j recording its
    source position j, at the degree of e_j.

    The extended basis is the target basis (r positions) followed by the
    source basis, so the target positions rank above the tags.  Every
    element of the tagged module is d(w) + w with w read at the tags.
    """
    r = len(target_basis)
    extended = OrderedBasis(target_basis.n, list(target_basis.elements)
                            + [BasisElement(e.degree, ("tag", e.label))
                               for e in source_basis.elements])
    tagged = [{**row, r + j: 1} for j, row in enumerate(rows)]
    return buchberger_rows(tagged, source_basis.degrees, extended)
