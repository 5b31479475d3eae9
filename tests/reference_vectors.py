"""The module-vector form of free-module elements, kept as the reference
form the row engines are tested against.

ModuleVector, multidegree_of, scalar_rows and row_vectors are freemod's as
they read when the library kept a vector form beside its scalar rows, for
input and views; the reference engines (reference_groebner, reference_cones,
reference_slices) compute on them.  differential is FreeComplex's cached
view of the columns of d_p, a function here, with no cache; complex_of
builds a FreeComplex from vector columns by scalar_rows, as its constructor
once read them.
"""

from fractions import Fraction
from operator import sub
from typing import Optional

from syzdepth import linalg, monomials
from syzdepth.complexes import FreeComplex
from syzdepth.freemod import OrderedBasis
from syzdepth.monomials import Mono


class ModuleVector:
    """Normalized term sum, keyed by (position, monomial), with Fraction
    coefficients; zero is the empty sum.  It is read into scalar rows by
    scalar_rows and made from them by row_vectors."""

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


def scalar_rows(vectors, basis: OrderedBasis):
    """The scalar rows {position: coefficient} of the vectors, integral
    coefficients read as ints, and their degrees, None for a zero vector; a
    vector with a position outside the basis, or a mixed one, raises
    ValueError naming its index as a column.  row_vectors is the inverse."""
    vectors, degrees, rank = list(vectors), [], len(basis)
    for j, v in enumerate(vectors):
        outside = next((pos for (pos, _), _ in v.items() if not 0 <= pos < rank), None)
        if outside is not None:
            raise ValueError(f"column {j} has position {outside}, outside a basis "
                             f"of rank {rank}")
        degrees.append(multidegree_of(v, basis))
        if degrees[-1] is None and not v.is_zero():
            raise ValueError(f"column {j} is not multihomogeneous")
    return [{pos: linalg.quotient(c) for (pos, _), c in v.items()} for v in vectors], degrees


_UNITS = {1: Fraction(1), -1: Fraction(-1)}  # one Fraction for all ±1 entries


def row_vectors(rows, degrees, basis: OrderedBasis) -> list:
    """The vectors of the rows at their degrees, the inverse of scalar_rows:
    the entry c in row r of degree d is the term c x^(d - deg e_r)."""
    targets = basis.degrees
    return [ModuleVector.from_terms(basis.n, {
        (r, tuple(map(sub, d, targets[r]))): _UNITS.get(c) or Fraction(c)
        for r, c in row.items()}) for row, d in zip(rows, degrees)]


def differential(C: FreeComplex, p: int) -> tuple:
    """Columns of the map F_p -> F_{p-1}; empty beyond the length."""
    if not 1 <= p <= C.length:
        return ()
    basis, rows = C._level(p)
    return tuple(row_vectors(rows, basis.degrees, C.basis(p - 1)))


def complex_of(n: int, bases, differentials) -> FreeComplex:
    """The complex with the vector columns differentials[p - 1] of each d_p,
    read into rows by scalar_rows."""
    return FreeComplex(n, bases, [scalar_rows(columns, bases[p - 1])[0]
                                  for p, columns in enumerate(differentials, start=1)])
