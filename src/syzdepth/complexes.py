"""Multigraded free complexes: Taylor, mapping cones, Eliahou-Kervaire.

A complex stores one ordered basis per homological degree and the columns of
each differential as module vectors.  Homological degree 0 is the target free
module; for an ideal I the complex of the sequence u_1..u_m has F_0 = S and
the p-th syzygy module Z_p is the image of the (p+1)-st differential, so
Z_0 = I.  Exactness is certified degreewise on the lcm closure of the basis
and module-generator degrees, which decides it in every multidegree.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from . import linalg, monomials
from .freemod import (
    BasisElement,
    DegreeMasks,
    ModuleVector,
    OrderedBasis,
    Slices,
    add_multiple,
    leading_term,
    multidegree_of,
)
from .groebner import _divide, _tagged_groebner, normal_form
from .monomials import Mono, MonomialIdeal


class FreeComplex:
    """A chain of free modules F_L -> ... -> F_1 -> F_0 with exact coefficients.

    Level p is the basis of F_p and the columns of d_p.  A complex built by
    _made_on_read makes each level the first time basis, differential or
    bases reads it and keeps it; length, rank and ranks read no level.
    _complex is set once check_complex has passed it, and a later check
    returns at once.
    """

    __slots__ = ("n", "ranks", "_levels", "_make_level", "_complex")

    def __init__(self, n: int, bases: Sequence[OrderedBasis],
                 differentials: Sequence[Sequence[ModuleVector]]):
        bases = tuple(bases)
        if len(differentials) != max(len(bases) - 1, 0):
            raise ValueError("need one differential per positive homological degree")
        levels = [(bases[0], ())] if bases else []
        for p, cols in enumerate(differentials, start=1):
            cols = tuple(cols)
            if len(cols) != len(bases[p]):
                raise ValueError(f"differential {p} has {len(cols)} columns, "
                                 f"expected {len(bases[p])}")
            levels.append((bases[p], cols))
        self.n = n
        self.ranks = tuple(map(len, bases))
        self._levels = levels
        self._make_level = None
        self._complex = False

    @classmethod
    def _made_on_read(cls, n: int, ranks: Sequence[int], make_level):
        """The complex whose level p is make_level(p), made when first read:
        the basis of F_p and the columns of d_p, ranks[p] of each (no
        columns at p = 0)."""
        C = cls.__new__(cls)
        C.n = n
        C.ranks = tuple(ranks)
        C._levels = [None] * len(C.ranks)
        C._make_level = make_level
        C._complex = False
        return C

    def _make(self, p: int):
        """Make level p and keep it; a negative p counts from the top, as
        it does for a list."""
        level = self._levels[p] = self._make_level(p % len(self._levels))
        return level

    @property
    def length(self) -> int:
        return len(self.ranks) - 1

    @property
    def bases(self):
        return tuple((level or self._make(p))[0] for p, level in enumerate(self._levels))

    def basis(self, p: int) -> OrderedBasis:
        return (self._levels[p] or self._make(p))[0]

    def rank(self, p: int) -> int:
        return self.ranks[p] if 0 <= p <= self.length else 0

    def differential(self, p: int):
        """Columns of the map F_p -> F_{p-1}; empty beyond the length."""
        if 1 <= p <= self.length:
            return (self._levels[p] or self._make(p))[1]
        return ()

    def apply(self, p: int, v: ModuleVector) -> ModuleVector:
        """Image of v in F_p under the p-th differential."""
        return apply_columns(self.differential(p), v, self.n)

    def __repr__(self):
        return f"FreeComplex(n={self.n}, ranks={self.ranks})"


def apply_columns(columns, v: ModuleVector, n: int) -> ModuleVector:
    """Image of v under the map sending e_j to columns[j]."""
    return ModuleVector(n, _image_terms(columns, v))


def _image_terms(columns, v: ModuleVector) -> dict:
    """The terms of apply_columns, summed in one dict with zeros dropped."""
    out = {}
    for (pos, mono), coeff in v.items():
        add_multiple(out, columns[pos].items(), coeff, mono)
    return out


# ---------------------------------------------------------------------------
# Taylor complexes


def taylor_complex(gens: Sequence[Mono], n: int) -> FreeComplex:
    """Taylor complex of the sequence; bases are labelled by subsets of [m].

    Basis elements at each level are ordered with the subset containing the
    later generators first, matching the order induced by the iterated
    mapping-cone construction, which compares subsets largest element
    first.  Subsets are int masks, bit i standing for generator i + 1, and
    each level is in descending order of its masks: two subsets of one size
    are ordered by the largest element of their symmetric difference, and
    so are their masks as ints.  Labels are frozensets of 1-based indices.

    The generators are checked here; each level is made the first time it
    is read, so a call that reads levels 1 and 2 of many generators builds
    only those, and the ranks C(m, p) need no level.
    """
    gens = [tuple(u) for u in gens]
    m = len(gens)
    if m < 1:
        raise ValueError("need at least one generator")
    for u in gens:
        monomials.check_monomial(u)
        if len(u) != n:
            raise ValueError(f"generator {u} does not have length {n}")
        if sum(u) == 0:
            raise ValueError("unit generator: the ideal is the whole ring")

    # The masks of each size made so far, in descending order, and the lcm,
    # label and position within its level of each of their subsets, each
    # from those of the subset without its largest element, one size down.
    levels = [[0]]
    lcms = {0: monomials.unit(n)}
    labels = {0: frozenset()}
    position = {0: 0}
    bits = [1 << i for i in reversed(range(m))]
    signs = (Fraction(1), Fraction(-1))

    def make_level(p):
        while len(levels) <= p:
            # combinations keeps the descending order of bits, and the masks
            # come out in descending order.
            level = list(map(sum, itertools.combinations(bits, len(levels))))
            for i, F in enumerate(level):
                top = F.bit_length()
                rest = F ^ (1 << (top - 1))
                lcms[F] = tuple(map(max, lcms[rest], gens[top - 1]))
                labels[F] = labels[rest] | {top}
                position[F] = i
            levels.append(level)
        level = levels[p]
        basis = OrderedBasis(n, [BasisElement(lcms[F], labels[F]) for F in level])
        cols = []
        for F in level if p else ():
            # One term per face F - {i}, for the elements i of F in
            # increasing order; lcm(F - {i}) divides lcm(F), so the quotient
            # needs no check, and the faces' positions differ.
            degree = lcms[F]
            terms = {}
            rest = F
            j = 0
            while rest:
                low = rest & -rest
                face = F ^ low
                terms[position[face], tuple(map(operator.sub, degree, lcms[face]))] = signs[j & 1]
                rest ^= low
                j += 1
            cols.append(ModuleVector.from_terms(n, terms))
        return basis, tuple(cols)

    return FreeComplex._made_on_read(n, [math.comb(m, p) for p in range(m + 1)], make_level)


def is_regular_sequence(gens: Sequence[Mono]) -> bool:
    """Monomials form a regular sequence iff their supports are pairwise disjoint."""
    supports = [monomials.support(u) for u in gens]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if supports[i] & supports[j]:
                return False
    return True


# ---------------------------------------------------------------------------
# Mapping cones


@dataclass
class ChainMap:
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
                if col.is_zero():
                    continue
                d = multidegree_of(col, F.basis(i))
                if d != G.basis(i).degree(j):
                    raise ValueError(f"phi_{i} does not preserve the multidegree of "
                                     f"basis element {j}")
        for i in range(1, G.length + 1):
            for j in range(G.rank(i)):
                left = F.apply(i, self.columns[i][j]) if i <= F.length else ModuleVector(F.n)
                right = self.apply(i - 1, G.differential(i)[j])
                if left != right:
                    raise ValueError(f"chain map does not commute at homological "
                                     f"degree {i}, basis element {j}")


def mapping_cone(phi: ChainMap) -> FreeComplex:
    """Cone of phi: G -> F, with C_i = G_{i-1} (+) F_i and the G part first."""
    phi.validate()
    G, F = phi.source, phi.target
    n = F.n
    length = max(G.length + 1, F.length)
    bases = []
    for i in range(length + 1):
        elems = []
        if 1 <= i <= G.length + 1:
            for e in G.basis(i - 1):
                elems.append(BasisElement(e.degree, ("G", e.label)))
        if i <= F.length:
            for e in F.basis(i):
                elems.append(BasisElement(e.degree, ("F", e.label)))
        bases.append(OrderedBasis(n, elems))

    diffs = []
    for i in range(1, length + 1):
        g_rank_target = G.rank(i - 2)
        cols = []
        for j in range(G.rank(i - 1)):
            col = phi.columns[i - 1][j].map_positions(g_rank_target)
            if i >= 2:
                col = -G.differential(i - 1)[j] + col
            cols.append(col)
        for column in F.differential(i):
            cols.append(column.map_positions(g_rank_target))
        diffs.append(cols)
    return FreeComplex(n, bases, diffs)


# ---------------------------------------------------------------------------
# Linear quotients, stable ideals, Eliahou-Kervaire


class LinearQuotients(NamedTuple):
    variable_sets: Optional[tuple]  # tuple of frozensets of 0-based indices
    failed_at: Optional[int]  # 1-based index of the first bad colon ideal

    @property
    def ok(self) -> bool:
        return self.failed_at is None


def linear_quotients(gens: Sequence[Mono], n: int) -> LinearQuotients:
    """Successive colon ideals (u_1..u_j):(u_{j+1}), when all variable-generated."""
    gens = [tuple(u) for u in gens]
    degrees = [sum(u) for u in gens]
    if any(degrees[i] > degrees[i + 1] for i in range(len(gens) - 1)):
        raise ValueError("generators must be ordered by weakly increasing degree")
    sets = []
    for j in range(1, len(gens)):
        colon = MonomialIdeal(n, gens[:j]).colon(gens[j])
        if any(sum(g) != 1 for g in colon.gens):
            return LinearQuotients(None, j)
        sets.append(frozenset(g.index(1) for g in colon.gens))
    return LinearQuotients(tuple(sets), None)


def _exchange_monomials(u: Mono):
    support = [i for i, e in enumerate(u) if e > 0]
    if not support:
        return
    m = support[-1]
    lowered = list(u)
    lowered[m] -= 1
    for j in range(m):
        v = list(lowered)
        v[j] += 1
        yield tuple(v)


def is_stable(I: MonomialIdeal) -> bool:
    """Exchange condition x_j * u / x_{m(u)} in I on all minimal generators."""
    return first_stability_violation(I) is None


def first_stability_violation(I: MonomialIdeal):
    for u in I.gens:
        for v in _exchange_monomials(u):
            if not I.contains(v):
                return u, v
    return None


def stable_closure(I: MonomialIdeal) -> MonomialIdeal:
    """Smallest stable ideal containing I, by saturating the exchange rule."""
    gens = set(I.gens)
    changed = True
    while changed:
        changed = False
        for u in list(gens):
            for v in _exchange_monomials(u):
                if not any(monomials.divides(g, v) for g in gens):
                    gens.add(v)
                    changed = True
    return MonomialIdeal(I.n, gens)


def stable_order(I: MonomialIdeal) -> tuple:
    """Minimal generators sorted by total degree, lex-descending within a degree."""
    by_lex_desc = sorted(I.gens, reverse=True)
    return tuple(sorted(by_lex_desc, key=sum))


def lift_through(C: FreeComplex, p: int, z: ModuleVector) -> ModuleVector:
    """A preimage w with d_p(w) = z, by division against the columns.

    When the boundaries of F_p's generators form a Groebner basis of their
    span, as they do for Eliahou-Kervaire and the resolutions of the paper's
    second theorem, the division leaves no remainder.  Otherwise the lift
    divides z by a Groebner basis of the tagged columns (_lift_by_groebner);
    it raises RuntimeError if no preimage exists.
    """
    n = C.n
    if z.is_zero():
        return ModuleVector(n)
    columns = C.differential(p)
    nonzero = [j for j, col in enumerate(columns) if not col.is_zero()]
    divisors = [(columns[j], leading_term(columns[j])) for j in nonzero]
    quotient, rem = _divide(z, divisors)
    if not rem.is_zero():
        return _lift_by_groebner(C, p, z)
    return ModuleVector(n, {(nonzero[i], mono): c for (i, mono), c in quotient.items()})


def _lift_by_groebner(C: FreeComplex, p: int, z: ModuleVector) -> ModuleVector:
    """A preimage of the multihomogeneous z from the tagged Groebner basis.

    Each basis element is d_p(w) + w with w at the tag positions, which rank
    below every target position.  So z is a boundary exactly when its normal
    form has no target term, and then z - (normal form) = d_p(w) + w with
    w = -(normal form).
    """
    target = C.basis(p - 1)
    if multidegree_of(z, target) is None:
        raise ValueError("can only lift multihomogeneous elements")
    gb = _tagged_groebner(C.differential(p), C.basis(p), target)
    r = len(target)
    rem = normal_form(z, [(g, leading_term(g)) for g in gb.generators])
    if any(pos < r for (pos, _), _ in rem.items()):
        raise RuntimeError(f"lifting failed at homological degree {p}: "
                           "the complex is not exact there")
    return (-rem).map_positions(-r)


def eliahou_kervaire(I: MonomialIdeal) -> FreeComplex:
    """Iterated mapping cone over the stable order; minimal for stable ideals.

    Each generator after the first is one comparison_cone step over the
    variables of its colon ideal, never empty, as that ideal is proper and
    nonzero.  A non-minimal outcome triggers a warning.
    """
    if I.is_zero() or I.is_unit():
        raise ValueError("need a proper nonzero monomial ideal")
    violation = first_stability_violation(I)
    if violation is not None:
        u, v = violation
        raise ValueError(f"ideal is not stable: generator {u} fails the exchange "
                         f"rule (missing {v})")
    gens = stable_order(I)
    n = I.n
    quotients = linear_quotients(gens, n)
    if not quotients.ok:
        raise ValueError(f"stable order has no linear quotients at step {quotients.failed_at}")

    F = taylor_complex(gens[:1], n)
    for u, variables in zip(gens[1:], quotients.variable_sets):
        F, _ = comparison_cone(F, [monomials.variable(i, n) for i in sorted(variables)], u)
    if not is_minimal(F):
        warnings.warn("iterated mapping cone is not minimal", stacklevel=2)
    return F


def comparison_cone(F: FreeComplex, colon_gens: Sequence[Mono], u: Mono):
    """Cone of the comparison map phi: G -> F over multiplication by u.

    G is the Taylor complex of colon_gens, the generators of (J : u) when F
    resolves S/J, with every degree shifted by u.  phi_0 sends G_0 to u times
    the one basis element of F_0; each higher phi_i is lifted through the
    differentials of F.  Returns (cone, phi).
    """
    if F.rank(0) != 1:
        raise ValueError("expected a rank-one module in homological degree 0")
    n = F.n
    T = taylor_complex(colon_gens, n)
    G = FreeComplex(n, [OrderedBasis(n, (BasisElement(monomials.mul(e.degree, u), e.label)
                                         for e in basis))
                        for basis in T.bases],
                    [T.differential(p) for p in range(1, T.length + 1)])
    phi_columns = [[ModuleVector(n, {(0, u): Fraction(1)})]]
    for i in range(1, G.length + 1):
        phi_columns.append([lift_through(F, i, apply_columns(phi_columns[i - 1], col, n))
                            for col in G.differential(i)])
    phi = ChainMap(G, F, phi_columns)
    return mapping_cone(phi), phi


class Resolution(NamedTuple):
    """One method: build(I, gens) makes its complex from the ideal and its
    minimal generators in input order and raises ValueError on an ideal it
    cannot resolve; taylor_of_input says the complex is the Taylor complex
    of gens."""
    build: Callable[[MonomialIdeal, Sequence[Mono]], FreeComplex]
    taylor_of_input: bool


def _koszul(I: MonomialIdeal, gens: Sequence[Mono]) -> FreeComplex:
    """The Koszul complex of a regular sequence is its Taylor complex."""
    if not is_regular_sequence(gens):
        warnings.warn("generators are not a regular sequence; returning the "
                      "Taylor complex", stacklevel=2)
    return taylor_complex(gens, I.n)


# One entry per --method.  The builders are looked up when called, so that
# one replaced on this module, as bench/tracing.py does, is the one that runs.
RESOLUTIONS = {
    "taylor": Resolution(lambda I, gens: taylor_complex(gens, I.n), True),
    "koszul": Resolution(_koszul, True),
    "ek": Resolution(lambda I, gens: eliahou_kervaire(I), False),
}


# ---------------------------------------------------------------------------
# Syzygies, minimization, verification


def syzygy_generators(C: FreeComplex, p: int):
    """Generators of Z_p: the columns of the (p+1)-st differential."""
    if p < 1:
        raise ValueError("syzygy index must be at least 1 (Z_0 is the module itself)")
    return list(C.differential(p + 1))


def is_minimal(C: FreeComplex) -> bool:
    """No differential entry has a nonzero constant term."""
    zero = monomials.unit(C.n)
    for p in range(1, C.length + 1):
        for col in C.differential(p):
            for (_, mono), coeff in col.items():
                if mono == zero and coeff:
                    return False
    return True


def minimize(C: FreeComplex) -> FreeComplex:
    """Cancel unit entries until every entry lies in the maximal ideal.

    Each column of d_p is a dict {row: (monomial, coeff)}, one term per row
    as the input is a complex, which is checked first.  A unit lam in row r
    of column c is cancelled by the Schur complement: every other live
    column with an entry in row r loses (entry / lam) times column c, which
    clears its row r.  Then column c leaves d_p, column r leaves d_{p-1},
    and row c leaves d_{p+1}, where d o d = 0 has made it zero.  The search
    resumes at column c of d_p: a new unit in an earlier column would need
    that column to hold a unit in row r, which the search would have met
    first.  So the cancellations come in the order of a search that starts
    again at d_1 after each one.  Every column the cursor meets is live: a
    column of d_p dies as a pivot behind the cursor, or as the row of a
    cancellation in d_{p+1}, which comes later.  Basis degrees survive;
    each level of the result is re-sorted lex-refined.
    """
    if not check_complex(C):
        raise RuntimeError("minimization needs d o d = 0 and multihomogeneous "
                           "columns; the input was not a complex")
    n = C.n
    zero = monomials.unit(n)
    length = C.length
    cols = [None] + [[{r: (mono, coeff) for (r, mono), coeff in col.items()}
                      for col in C.differential(p)] for p in range(1, length + 1)]
    alive = [[True] * C.rank(p) for p in range(length + 1)]
    for p in range(1, length + 1):
        for c, pivot in enumerate(cols[p]):
            r = next((r for r, (mono, coeff) in pivot.items() if mono == zero and coeff),
                     None)
            if r is None:
                continue
            lam = pivot[r][1]
            for c2, col in enumerate(cols[p]):
                if c2 == c or not alive[p][c2] or r not in col:
                    continue
                mono2, coeff2 = col[r]
                t_coeff = coeff2 / lam
                for r3, (mono3, coeff3) in pivot.items():
                    new = col.get(r3, (None, Fraction(0)))[1] - t_coeff * coeff3
                    if new:
                        col[r3] = (monomials.mul(mono3, mono2), new)
                    else:
                        col.pop(r3, None)
            alive[p][c] = alive[p - 1][r] = False
            if p < length:
                for col in cols[p + 1]:
                    col.pop(c, None)

    bases, remap = [], []
    for p in range(length + 1):
        live = [i for i in range(C.rank(p)) if alive[p][i]]
        basis, perm = OrderedBasis(n, (C.basis(p).elements[i] for i in live)).sort_lex_refined()
        bases.append(basis)
        remap.append({old: perm[k] for k, old in enumerate(live)})
    while len(bases) > 1 and not bases[-1]:
        bases.pop()
    diffs = []
    for p in range(1, len(bases)):
        level = [None] * len(bases[p])
        for old, new in remap[p].items():
            level[new] = ModuleVector(n, {(remap[p - 1][r], mono): coeff
                                          for r, (mono, coeff) in cols[p][old].items()})
        diffs.append(level)
    out = FreeComplex(n, bases, diffs)
    if not check_complex(out):
        raise RuntimeError("minimization broke the complex property")
    return out


def check_complex(C: FreeComplex) -> bool:
    """d composed with d vanishes and every column is multihomogeneous.

    The multidegree check of each level comes first: a nonzero column of
    d_p has the degree of its basis element e_j, so its term at position r
    is x^(deg e_j - deg e_r).  Then every term of d_{p-1}(d_p(e_j)) at
    position s has the monomial x^(deg e_j - deg e_s), and d o d vanishes
    exactly when the coefficient matrices multiply to zero: the sums run on
    positions only, with no monomial built.  Each integral coefficient is
    read as an int and the others stay Fractions, so the sums are exact; no
    row is scaled to integers, as a scale per column would change the
    product.  A complex that passes is marked, and checking it again
    returns True at once.
    """
    return C._complex or _complex_rows(C) is not None


def _scalar_row(col: ModuleVector) -> dict:
    """The column as {position: coefficient}, each integral coefficient read
    as an int, its numerator, and the others kept as Fractions."""
    return {pos: c.numerator if c.denominator == 1 else c for (pos, _), c in col.items()}


def _complex_rows(C: FreeComplex):
    """The check of check_complex, which marks a complex that passes: the
    columns of d_1..d_L as _scalar_rows, level p at index p - 1, or None
    when C is not a complex."""
    rows = []
    for p in range(1, C.length + 1):
        target, degrees = C.basis(p - 1), C.basis(p).degrees
        level = []
        for j, col in enumerate(C.differential(p)):
            if not col.is_zero() and multidegree_of(col, target) != degrees[j]:
                return None
            level.append(_scalar_row(col))
        if rows:
            below = rows[-1]
            for col in level:
                image = {}
                for r, coeff in col.items():
                    for s, c in below[r].items():
                        old = image.get(s)
                        image[s] = coeff * c if old is None else old + coeff * c
                if any(image.values()):
                    return None
        rows.append(level)
    C._complex = True
    return rows


@dataclass
class ExactnessReport:
    ok: bool
    failures: list = field(default_factory=list)  # (p, degree) pairs
    degrees_checked: int = 0


def check_exactness_on_box(C: FreeComplex, module_gens, *,
                           exhaustive: bool = False) -> ExactnessReport:
    """Degreewise exactness in every multidegree, with the cokernel at level
    zero matching the module generated by module_gens.

    It starts with check_complex, whose read of the columns as scalar rows
    also gives the rows of every rank below; a complex checked before is
    only read.  The module is one Slices engine, which holds the columns of
    d_1 too, so that their containment in the module is checked next.

    Each slice is fixed by which module-generator and F_1..F_L basis
    degrees divide the degree, so walking their lcm closure decides every
    degree (Gasharov-Peeva-Welker).  The walk goes depth first down the
    closure's parent tree (monomials.lcm_closure), where a degree is a
    multiple of its parent and so has every row its parent has.  Per
    differential it keeps the pivots made on the path from the root and
    the mask of the rows already reduced, reduces only the others, with
    linalg.eliminate, and undoes its pivots on the way back up.

    Each rank is reduced only until it meets its upper bound: rank d_1 at
    a is at most the module's rank at a, as d_1 maps into the module, and
    rank d_{p+1} at most dim F_{p,a} - rank d_p, as d o d = 0.  A rank that
    meets its bound equals it; a rank below its bound after every row is a
    failure at that level, and the rows not reduced wait for the children.
    So every rank is exact.

    Failures are reported by their lex index in the closure: the first one
    with degrees_checked its index + 1, or, with exhaustive, every failing
    closure degree in lex order.  A degree lies after its ancestors in lex
    order, so once a failure is found, every subtree rooted after it is
    skipped.
    """
    if C._complex:
        rows = [[_scalar_row(col) for col in C.differential(p)]
                for p in range(1, C.length + 1)]
    else:
        rows = _complex_rows(C)
        if rows is None:
            return ExactnessReport(False, failures=[(-1, None)])
    if isinstance(module_gens, MonomialIdeal):
        if len(C.basis(0)) != 1:
            raise ValueError("monomial-ideal comparison expects a rank-one F_0")
        module_gens = [ModuleVector.generator(C.n, 0, u) for u in module_gens.gens]
    module_gens = list(module_gens)
    # The module engine also holds the columns of d_1, for image containment,
    # so that the rank of d_1 is at most the module's.
    module = Slices(module_gens + list(C.differential(1)), C.basis(0))
    own = (1 << len(module_gens)) - 1
    for j, col in enumerate(C.differential(1)):
        mask = module.active(C.basis(1).degree(j)) & own
        if module.rank(mask) != module.rank(mask | 1 << (len(module_gens) + j)):
            return ExactnessReport(False, failures=[(0, None)])

    length = C.length
    rows = [[linalg.integer_row(row) if Fraction in map(type, row.values()) else row
             for row in level] for level in rows]
    masks = [DegreeMasks(list(enumerate(C.basis(p).degrees)), C.n, C.rank(p))
             for p in range(1, length + 1)]
    pivots = [{} for _ in range(length)]  # per differential, on the path
    reduced = [0] * length  # per differential, the rows reduced on the path

    def failing_level(a, added):
        """First level whose slice at a is not exact, or None; each pivot
        made is appended to added as (level index, leading column)."""
        bound = module.rank(module.active(a) & own)
        for p in range(length):
            active = masks[p].dividing(a)
            kept = pivots[p]
            pending = active & ~reduced[p]
            while pending and len(kept) < bound:
                low = pending & -pending
                pending ^= low
                reduced[p] |= low
                lead = linalg.eliminate(kept, rows[p][low.bit_length() - 1])
                if lead is not None:
                    added.append((p, lead))
            if len(kept) < bound:
                return p
            bound = active.bit_count() - len(kept)
        return length if bound else None

    closure = monomials.lcm_closure(
        module.degrees + [d for p in range(1, length + 1) for d in C.basis(p).degrees], C.n)
    index = {a: i for i, a in enumerate(closure)}
    children = {a: [] for a in closure}
    for a, parent in closure.items():
        if parent is not None:
            children[parent].append(a)
    failures = []  # (lex index, level, degree)
    first = len(closure)  # lex index of the first failure found so far
    # An entry (a, None) visits a; (None, undo) restores a parent's state.
    stack = [(monomials.unit(C.n), None)]
    while stack:
        a, undo = stack.pop()
        if undo is not None:
            reduced[:], added = undo
            for p, lead in added:
                del pivots[p][lead]
            continue
        i = index[a]
        if i > first and not exhaustive:
            continue
        undo = (reduced[:], [])
        bad_p = failing_level(a, undo[1])
        if bad_p is not None:
            failures.append((i, bad_p, a))
            first = min(first, i)
        stack.append((None, undo))
        stack.extend((b, None) for b in reversed(children[a]))

    failures.sort()
    report = ExactnessReport(not failures, degrees_checked=len(closure))
    if failures and not exhaustive:
        del failures[1:]
        report.degrees_checked = failures[0][0] + 1
    report.failures = [(p, a) for _, p, a in failures]
    return report


# ---------------------------------------------------------------------------
# Serialization


def complex_json(C: FreeComplex, indent: str = "\n") -> Iterator[str]:
    """Yield the chunks of the complex's JSON text: its ranks, basis degrees
    and, per differential, a rows x columns matrix whose cells list the
    terms of that entry as {"coeff": str(c), "monomial": [...]}, in the
    order the terms have in the column.

    The chunks joined are json.dumps(value, indent=2, sort_keys=True) of
    that value, byte for byte, with indent the newline and indentation in
    front of the closing brace, as for cli._dumps.  The first chunk holds
    the degrees, each differential's matrix is one chunk, made when it is
    read, and the last holds n and the ranks.  Each column's terms are read
    once into their cells; each distinct (coeff, monomial) cell is written
    once, and every empty cell is the constant "[]".
    """
    pad = [indent + "  " * k for k in range(8)]  # pad[k]: k levels inside
    degrees = [_json_list([_json_ints(e.degree, pad[3]) for e in basis], pad[2])
               for basis in C.bases]
    yield f'{{{pad[1]}"degrees": {_json_list(degrees, pad[1])},{pad[1]}"differentials": '
    cells = {}  # (coeff, monomial) -> the text of a cell with that one term
    for p in range(1, C.length + 1):
        # The matrices form a list one level inside the object.
        yield ("[" if p == 1 else ",") + pad[2] + _matrix_json(C, p, pad, cells)
    yield (f'{pad[1] + "]" if C.length else "[]"},'
           f'{pad[1]}"n": {int.__repr__(C.n)},'
           f'{pad[1]}"ranks": {_json_ints(C.ranks, pad[1])}{indent}}}')


def _matrix_json(C: FreeComplex, p: int, pad, cells: dict) -> str:
    """The JSON text of d_p's matrix, two levels inside complex_json's
    object; cells caches the text of each one-term cell."""
    cut = len(pad[4]) + 1  # a cell's closing pad[4] + "]"
    grid = [["[]"] * C.rank(p) for _ in range(C.rank(p - 1))]
    for c, col in enumerate(C.differential(p)):
        for (pos, mono), coeff in col.items():
            text = cells.get((coeff, mono))
            if text is None:
                # The str of a Fraction or int needs no JSON escapes.
                text = cells[coeff, mono] = (
                    f'[{pad[5]}{{{pad[6]}"coeff": "{str(coeff)}",{pad[6]}"monomial": '
                    f'{_json_ints(mono, pad[6])}{pad[5]}}}{pad[4]}]')
            row = grid[pos]
            # Only a column that is not multihomogeneous puts two terms in
            # one cell.
            row[c] = text if row[c] == "[]" else row[c][:-cut] + "," + text[1:]
    return _json_list([_json_list(row, pad[3]) for row in grid], pad[2])


def _json_list(items, indent: str) -> str:
    """The JSON list of the item texts, its closing bracket behind indent."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _json_ints(values, indent: str) -> str:
    return _json_list(list(map(int.__repr__, values)), indent)
