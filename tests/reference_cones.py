"""The comparison map and its mapping cone on module-vector columns, the
path the row-based cone step replaced, kept as the reference it is tested
against.

This is complexes.comparison_cone as it read when phi was a list of
ModuleVector columns: every phi_i lifted by lift_through, whose division by
d_p's columns was groebner._divide (the division of normal_form, recording
its quotient), then ChainMap.validate composing d^F phi and phi d^G as
vectors, and mapping_cone reading phi's vector columns into the cone's rows.
complexes._lift_by_groebner is kept as it read when it took and returned
vectors, and FreeComplex.apply, the image of a vector under d_p, is
apply_columns on the complex's columns, differential(C, p) in
reference_vectors.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import le, sub
from typing import Optional, Sequence

from syzdepth import monomials
from syzdepth.complexes import FreeComplex, taylor_complex
from syzdepth.freemod import BasisElement, OrderedBasis
from syzdepth.groebner import _tagged_groebner
from syzdepth.monomials import Mono

from reference_groebner import _add_reducer, add_multiple, leading_term, term_key
from reference_vectors import (ModuleVector, differential, multidegree_of, row_vectors,
                               scalar_rows)


def _divide(v: ModuleVector, reducers: Sequence):
    """The division of normal_form, returning (quotient, remainder).

    The quotient maps (reducer index, monomial) to a coefficient c, so that v
    is the sum of c * x^monomial * reducer over its entries plus the remainder.
    """
    quotient = {}
    tail = _reduce(dict(v.items()), _bucketed(reducers), quotient)
    return quotient, ModuleVector(v.n, tail)


def _bucketed(reducers: Sequence) -> dict:
    buckets = {}
    for i, (g, lt) in enumerate(reducers):
        _add_reducer(buckets, i, g, lt)
    return buckets


def _reduce(rem: dict, buckets: dict, quotient: Optional[dict] = None) -> dict:
    """Divide the terms rem, in place, by the bucketed reducers; return the
    remainder terms in the order they were found, and record the quotient
    when a dict is passed for it."""
    tail = {}
    while rem:
        lead = max(rem, key=term_key)
        c = rem.pop(lead)
        pos, mono = lead
        for i, lm, lc, rest in buckets.get(pos, ()):
            if all(map(le, lm, mono)):
                break
        else:
            tail[lead] = c
            continue
        shift = tuple(map(sub, mono, lm))
        coeff = c if lc == 1 else c / lc
        if quotient is not None:
            old = quotient.get((i, shift))
            quotient[(i, shift)] = coeff if old is None else old + coeff
        add_multiple(rem, rest, -coeff, shift)
    return tail


def apply_columns(columns, v: ModuleVector, n: int) -> ModuleVector:
    """Image of v under the map sending e_j to columns[j]."""
    out = {}
    for (pos, mono), coeff in v.items():
        add_multiple(out, columns[pos].items(), coeff, mono)
    return ModuleVector(n, out)


@dataclass
class ReferenceChainMap:
    """A degree-0 multigraded chain map between complexes, stored columnwise."""

    source: FreeComplex
    target: FreeComplex
    columns: Sequence[Sequence[ModuleVector]]  # columns of phi_i for i = 0..len(source)

    def apply(self, i: int, v: ModuleVector) -> ModuleVector:
        cols = self.columns[i] if i < len(self.columns) else ()
        return apply_columns(cols, v, self.source.n)

    def validate(self) -> None:
        G, F = self.source, self.target
        if len(self.columns) < G.length + 1:
            raise ValueError("chain map must provide columns for every level of "
                             "the source complex")
        for i in range(G.length + 1):
            cols = self.columns[i]
            if len(cols) != G.rank(i):
                raise ValueError(f"phi_{i} has {len(cols)} columns, expected {G.rank(i)}")
            for j, col in enumerate(cols):
                if not col.is_zero() and multidegree_of(col, F.basis(i)) != G.basis(i).degree(j):
                    raise ValueError(f"phi_{i} does not preserve the multidegree of "
                                     f"basis element {j}")
        for i in range(1, G.length + 1):
            for j in range(G.rank(i)):
                left = (apply_columns(differential(F, i), self.columns[i][j], F.n)
                        if i <= F.length else ModuleVector(F.n))
                right = self.apply(i - 1, differential(G, i)[j])
                if left != right:
                    raise ValueError(f"chain map does not commute at homological "
                                     f"degree {i}, basis element {j}")


def reference_mapping_cone(phi: ReferenceChainMap) -> FreeComplex:
    """Cone of phi: G -> F, with C_i = G_{i-1} (+) F_i and the G part first.

    The row of e in G_{i-1} lists -d^G(e) and then phi(e), the entry order
    of the column -d^G(e) + phi(e), and the row of e in F_i lists d^F(e)."""
    phi.validate()
    G, F = phi.source, phi.target
    n = F.n
    levels = []
    for i in range(max(G.length + 1, F.length) + 1):
        shift = G.rank(i - 2)  # the positions of G_{i-2}, first in C_{i-1}
        elements, rows = [], []
        if 1 <= i <= G.length + 1:
            basis, below = G._level(i - 1)
            elements += [BasisElement(e.degree, ("G", e.label)) for e in basis]
            for g_row, col in zip(below, phi.columns[i - 1]):
                row = {r: -c for r, c in g_row.items()}
                # phi is validated, so its columns are multihomogeneous.
                row.update((pos + shift, c.numerator if c.denominator == 1 else c)
                           for (pos, _), c in col.items())
                rows.append(row)
        if i <= F.length:
            basis, below = F._level(i)
            elements += [BasisElement(e.degree, ("F", e.label)) for e in basis]
            rows += [{r + shift: c for r, c in f_row.items()} for f_row in below]
        levels.append((OrderedBasis(n, elements), rows))
    return FreeComplex._made_on_read(n, [len(basis) for basis, _ in levels], levels.__getitem__)


def _lift_by_groebner(C: FreeComplex, p: int, z: ModuleVector) -> ModuleVector:
    """A preimage of the multihomogeneous z from the tagged Groebner basis
    of d_p's rows.

    Each basis element is d_p(w) + w with w at the tag positions, which rank
    below every target position.  So z is a boundary exactly when its
    remainder has no target entry, and then z - (remainder) = d_p(w) + w
    with w = -(remainder).
    """
    target = C.basis(p - 1)
    (row,), (a,) = scalar_rows([z], target)
    if a is None:
        raise ValueError("can only lift multihomogeneous elements")
    gb = _tagged_groebner(C._level(p)[1], C.basis(p), target)
    r = len(target)
    rem = gb.remainder(row, a)
    if min(rem, default=r) < r:
        raise RuntimeError(f"lifting failed at homological degree {p}: "
                           "the complex is not exact there")
    return row_vectors([{pos - r: -c for pos, c in rem.items()}], [a], C.basis(p))[0]


def reference_lift_through(C: FreeComplex, p: int, z: ModuleVector) -> ModuleVector:
    """A preimage w with d_p(w) = z, by division against the columns."""
    n = C.n
    if z.is_zero():
        return ModuleVector(n)
    columns = differential(C, p)
    nonzero = [j for j, col in enumerate(columns) if not col.is_zero()]
    divisors = [(columns[j], leading_term(columns[j])) for j in nonzero]
    quotient, rem = _divide(z, divisors)
    if not rem.is_zero():
        return _lift_by_groebner(C, p, z)
    return ModuleVector(n, {(nonzero[i], mono): c for (i, mono), c in quotient.items()})


def reference_comparison_cone(F: FreeComplex, colon_gens: Sequence[Mono], u: Mono):
    """Cone of the comparison map phi: G -> F over multiplication by u, with
    phi lifted and validated on vector columns.  Returns (cone, phi)."""
    if F.rank(0) != 1:
        raise ValueError("expected a rank-one module in homological degree 0")
    n = F.n
    T = taylor_complex(colon_gens, n)
    G = FreeComplex._made_on_read(n, T.ranks, lambda p: (
        OrderedBasis(n, (BasisElement(monomials.mul(e.degree, u), e.label) for e in T.basis(p))),
        T._level(p)[1]))
    phi_columns = [[ModuleVector(n, {(0, u): Fraction(1)})]]
    for i in range(1, G.length + 1):
        phi_columns.append([reference_lift_through(F, i,
                                                   apply_columns(phi_columns[i - 1], col, n))
                            for col in differential(G, i)])
    phi = ReferenceChainMap(G, F, phi_columns)
    return reference_mapping_cone(phi), phi


def reference_taylor_step_cone(gens, n):
    """verify.taylor_step_cone on the reference: the cone of the last Taylor
    iteration step for the sequence.  Returns (cone, phi)."""
    last = gens[-1]
    quotients = [monomials.divide(u, monomials.gcd(u, last)) for u in gens[:-1]]
    return reference_comparison_cone(taylor_complex(gens[:-1], n), quotients, last)
