"""Buchberger's algorithm over free multigraded modules, position over lex.

This is the independent oracle the rest of the library is checked against:
initial modules of syzygy modules are computed here from generators alone,
with no reference to how the generators arose.  The term order is the one
of freemod, read on the ordered basis passed in.

A multihomogeneous element has one term x^(d - deg e_j) at each position j
of its scalar row {j: coefficient} at its degree d, so the engine runs on
the (rows, degrees, basis) triple of every FreeComplex level, which is a
freemod.Slices block with the basis's rank in place of the basis.
Elements are made monic by linalg.monic and filed by leading (smallest)
position in the order made, and x^(d_k - deg e_r) divides x^(d - deg e_r)
exactly when d_k | d.  _reduce is the library's one division of rows, for
Buchberger and for the lifts through a differential (complexes._Lifter),
which ask it for the quotients.  Its update, linalg.add_scaled, and
linalg.monic are the two operations of the rank engine linalg.eliminate
too, so the field is known in linalg alone.

Each public name that takes rows (buchberger, initial_module,
leading_module, hilbert_slice_check, kernel_generators) checks them once with
freemod.check_rows and runs its engine, the same name behind an
underscore.  The library calls the engines on the rows of its complexes,
which the FreeComplex constructor checked or the library wrote, and on
rows it made from those, so no row is checked twice.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import le, sub

from . import linalg, monomials
from .freemod import BasisElement, OrderedBasis, Slices, check_rows, unit_rows
from .monomials import MonomialIdeal


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis as monic scalar rows and their degrees on the
    basis."""

    rows: tuple
    degrees: tuple
    basis: OrderedBasis

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

    def nonzero_components(self):
        return [(j, c) for j, c in enumerate(self.components) if not c.is_zero()]

    def to_jsonable(self) -> dict:
        return {
            "degrees": [list(d) for d in self.basis.degrees],
            "components": [[list(g) for g in c.gens] for c in self.components],
        }


def _file(filed: dict, index: int, row: dict, degree) -> tuple:
    """File the monic row of the degree under its leading position, after
    the earlier ones, as (index, degree, the other entries); returns the
    position and that entry."""
    r, rest = min(row), dict(row)
    del rest[r]
    entry = (index, degree, rest)
    filed.setdefault(r, []).append(entry)
    return r, entry


def _reduce(rem: dict, degree, filed: dict, quotients: dict = None) -> dict:
    """Divide the row rem of the degree, in place, by the filed elements;
    return the remainder entries in the order they were found.  Each step
    pops the smallest position r left and subtracts that many times the
    other entries, all past r, of the first element filed under r whose
    degree divides the degree, as its leading 1 cancels the popped entry.
    Given quotients, each step records its multiple there under the
    element's index, in step order; as r only grows, no element is used
    twice, and the row is the sum of quotient * element and remainder."""
    tail = {}
    while rem:
        r = min(rem)
        c = rem.pop(r)
        for index, d, rest in filed.get(r, ()):
            if all(map(le, d, degree)):
                break
        else:
            tail[r] = c
            continue
        if quotients is not None:
            quotients[index] = c
        linalg.add_scaled(rem, -c, rest)
    return tail


def buchberger(rows, degrees, basis: OrderedBasis) -> GroebnerBasis:
    """The unique reduced Groebner basis of the submodule generated by the
    scalar rows at their degrees (None for a zero row), which
    freemod.check_rows guards before _buchberger runs."""
    check_rows("the generators", rows, degrees, basis)
    return _buchberger(rows, degrees, basis)


def _buchberger(rows, degrees, basis: OrderedBasis) -> GroebnerBasis:
    """buchberger's engine, on rows that are the columns of a map into the
    basis: the S-pair loop, minimalisation, then inter-reduction of the
    tails against the kept elements, filed once, as a tail lies past its
    own leading position.  The rows are sorted by leading term, largest
    first."""
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
        row, index = linalg.monic(row), len(elements)
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


def initial_module(rows, degrees, basis: OrderedBasis) -> InitialModule:
    """Minimal generators of ini(M) per basis position, for the submodule M
    generated by the rows, given as buchberger takes them and checked as it
    checks them before _initial_module runs."""
    check_rows("the generators", rows, degrees, basis)
    return _initial_module(rows, degrees, basis)


def _initial_module(rows, degrees, basis: OrderedBasis) -> InitialModule:
    """initial_module's engine: the leading terms of a minimal Groebner
    basis, which are those of the reduced one, so the tails are never
    inter-reduced."""
    kept = _minimal(_spair_loop(rows, degrees, basis))
    return _leading_module([row for row, _ in kept], [d for _, d in kept], basis)


def leading_module(rows, degrees, basis: OrderedBasis) -> InitialModule:
    """The monomial module generated by the leading terms of the nonzero
    rows at their degrees, given and checked as buchberger takes them, one
    ideal per basis position, from _leading_module."""
    check_rows("the rows", rows, degrees, basis)
    return _leading_module(rows, degrees, basis)


def _leading_module(rows, degrees, basis: OrderedBasis) -> InitialModule:
    """leading_module's engine: a row of degree d leads at its smallest
    position r with the monomial x^(d - deg e_r), which the rows' degrees
    make a monomial, so each position's ideal is made unchecked."""
    targets, per_position = basis.degrees, {}
    for row, d in zip(rows, degrees):
        if row:
            r = min(row)
            per_position.setdefault(r, []).append(tuple(map(sub, d, targets[r])))
    return InitialModule(basis, tuple(MonomialIdeal._made(basis.n, per_position.get(j, ()))
                                      for j in range(len(basis))))


def hilbert_slice_check(rows, degrees, initial: InitialModule):
    """Graded dimensions of the span of the generators, given and checked as
    buchberger takes them, and of the initial module agree in every
    multidegree.  Returns (ok, first failing degree in lex order), from
    _hilbert_slice_check.
    """
    check_rows("the generators", rows, degrees, initial.basis)
    return _hilbert_slice_check(rows, degrees, initial)


def _hilbert_slice_check(rows, degrees, initial: InitialModule):
    """hilbert_slice_check's engine.

    Both sides are blocks of one Slices engine: the generators, and the
    initial module's generators u e_j, which are unit rows {j: 1} at degree
    u deg e_j.  Both ranks are fixed by which generator degrees divide the
    degree, so the engine's walk takes both blocks down the lcm closure of
    those degrees.
    """
    basis = initial.basis
    monomial = unit_rows(((j, u) for j, ideal in enumerate(initial.components)
                          for u in ideal.gens), basis)
    engine = Slices([(rows, degrees, len(basis)), (*monomial, len(basis))], basis.n)

    def differs(a, active):
        return True if engine.rank(0, active) != engine.rank(1, active) else None

    failure, _ = engine.walk(differs)
    return (True, None) if failure is None else (False, failure[1])


def is_squarefree_module(initial: InitialModule) -> bool:
    """All minimal generators u e_j carry squarefree total multidegree."""
    for j, ideal in initial.nonzero_components():
        d = initial.basis.degree(j)
        for g in ideal.gens:
            if not monomials.is_squarefree(monomials.mul(g, d)):
                return False
    return True


def kernel_generators(rows, source_basis: OrderedBasis, target_basis: OrderedBasis):
    """Generators of the kernel of the map sending e_j to the element with
    the scalar row rows[j] at the degree of e_j, which freemod.check_rows
    guards before _kernel_generators runs: the rows of the kernel's
    generators on the source basis and their degrees."""
    check_rows("the map", rows, source_basis.degrees, target_basis)
    return _kernel_generators(rows, source_basis, target_basis)


def _kernel_generators(rows, source_basis: OrderedBasis, target_basis: OrderedBasis):
    """kernel_generators' engine.

    The elements of the tagged Groebner basis (_tagged_groebner) with no
    target part are kernel elements, and their tag parts form a Groebner
    basis of the kernel under the source POT order.
    """
    gb = _tagged_groebner(rows, source_basis, target_basis)
    r = len(target_basis)
    kernel = [({pos - r: c for pos, c in row.items()}, d)
              for row, d in zip(gb.rows, gb.degrees) if min(row) >= r]
    return [row for row, _ in kernel], [d for _, d in kernel]


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
    extended = OrderedBasis._made(target_basis.n, list(target_basis.elements)
                                  + [BasisElement(e.degree, ("tag", e.label))
                                     for e in source_basis.elements])
    tagged = [{**row, r + j: 1} for j, row in enumerate(rows)]
    return _buchberger(tagged, source_basis.degrees, extended)
