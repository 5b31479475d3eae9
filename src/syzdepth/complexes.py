"""Multigraded free complexes: Taylor, mapping cones, Eliahou-Kervaire.

A complex stores one ordered basis per homological degree and the scalar
rows of each differential, mapping cones included.  Homological degree 0
is the target free module; for an ideal I the complex of the sequence
u_1..u_m has F_0 = S and the p-th syzygy module Z_p is the image of the
(p+1)-st differential, so Z_0 = I.
Exactness is certified degreewise on the lcm closure of the basis and
module-generator degrees, which decides it in every multidegree.
The module writes no JSON: cli writes a complex's text from its public
reads, the bases, length, ranks and syzygy_rows.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

from . import linalg, monomials
from .freemod import BasisElement, OrderedBasis, Slices, check_rows, unit_rows
from .groebner import _file, _reduce, _tagged_groebner
from .monomials import Mono, MonomialIdeal


class FreeComplex:
    """A chain of free modules F_L -> ... -> F_1 -> F_0 with exact coefficients.

    Level p is the basis of F_p and the scalar rows of d_p: per column, a
    dict {row: coefficient} of nonzero entries, ints where integral, whose
    entry c in row r is the term c x^(deg e_j - deg e_r) of the column of
    e_j, as in a cellular resolution (Bayer-Sturmfels; Miller-Sturmfels,
    Ch. 4).  The constructor takes one list of rows per positive
    homological degree, checked by freemod.check_rows against the degrees of
    F_p's basis, and keeps copies.  Taylor, minimize and comparison_cone
    write rows through _made_on_read, which makes each level when first read
    and checks nothing, as their rows and bases are made from checked ones.
    check_complex marks (_complex) a complex that passes, so that a later
    check returns at once.
    """

    __slots__ = ("n", "ranks", "_levels", "_make_level", "_complex")

    def __init__(self, n: int, bases: Sequence[OrderedBasis], rows: Sequence[Sequence[dict]]):
        bases = tuple(bases)
        if len(rows) != max(len(bases) - 1, 0):
            raise ValueError("need one differential per positive homological degree")
        self._levels = [(bases[0], [{}] * len(bases[0]))] if bases else []  # d_0 is zero
        for p, level in enumerate(rows, start=1):
            check_rows(f"differential {p}", level, bases[p].degrees, bases[p - 1])
            self._levels.append((bases[p], list(map(dict, level))))
        self.n = n
        self.ranks = tuple(map(len, bases))
        self._make_level = None
        self._complex = False

    @classmethod
    def _made_on_read(cls, n: int, ranks: Sequence[int], make_level):
        """The complex whose level p is make_level(p), made when first read:
        the basis of F_p and the rows of d_p, ranks[p] of each; d_0 is the
        zero map, one empty row per basis element."""
        C = cls(n, (), ())
        C.ranks = tuple(ranks)
        C._levels = [None] * len(C.ranks)
        C._make_level = make_level
        return C

    def _level(self, p: int):
        """Level p, made on first read; ValueError unless 0 <= p <= length."""
        if not 0 <= p < len(self._levels):
            raise ValueError(f"homological degree {p} is outside 0..{self.length}")
        level = self._levels[p]
        if level is None:
            level = self._levels[p] = self._make_level(p)
        return level

    @property
    def length(self) -> int:
        return len(self.ranks) - 1

    @property
    def bases(self):
        return tuple(self.basis(p) for p in range(len(self.ranks)))

    def basis(self, p: int) -> OrderedBasis:
        return self._level(p)[0]

    def rank(self, p: int) -> int:
        return self.ranks[p] if 0 <= p <= self.length else 0

    def __repr__(self):
        return f"FreeComplex(n={self.n}, ranks={self.ranks})"


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
        basis = OrderedBasis._made(n, [BasisElement(lcms[F], labels[F]) for F in level])
        rows = []
        for F in level:
            # One entry per face F - {i}, for the elements i of F in
            # increasing order with alternating signs from 1; lcm(F - {i})
            # divides lcm(F), and the faces' positions differ.
            faces = [F ^ bit for bit in reversed(bits) if F & bit]
            rows.append({position[face]: -1 if j & 1 else 1 for j, face in enumerate(faces)})
        return basis, rows

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


class ChainMap(NamedTuple):
    """A degree-0 multigraded chain map phi: G -> F, stored as scalar rows:
    rows[i] holds phi_i's columns as FreeComplex holds d_p's, i = 0..G.length.
    comparison_cone alone builds one, from rows it lifted, and checks
    nothing."""

    source: FreeComplex
    target: FreeComplex
    rows: list


def _compose(row: dict, below) -> dict:
    """The row of the image of the column row under the map with the columns
    below; for multihomogeneous maps the sum runs on positions only."""
    image = {}
    for r, coeff in row.items():
        linalg.add_scaled(image, coeff, below[r])
    return image


def _cone(G: FreeComplex, F: FreeComplex, phi_rows) -> FreeComplex:
    """The cone of the chain map with the rows phi_rows.  The row of e in
    G_{i-1} lists -d^G(e) and then phi(e), the entry order of the column
    -d^G(e) + phi(e), and the row of e in F_i lists d^F(e)."""
    n = F.n
    levels = []
    for i in range(max(G.length + 1, F.length) + 1):
        shift = G.rank(i - 2)  # the positions of G_{i-2}, first in C_{i-1}
        elements, rows = [], []
        if 1 <= i <= G.length + 1:
            basis, below = G._level(i - 1)
            elements += [BasisElement(e.degree, ("G", e.label)) for e in basis]
            for g_row, phi_row in zip(below, phi_rows[i - 1]):
                row = {r: -c for r, c in g_row.items()}
                row.update((r + shift, c) for r, c in phi_row.items())
                rows.append(row)
        if i <= F.length:
            basis, below = F._level(i)
            elements += [BasisElement(e.degree, ("F", e.label)) for e in basis]
            rows += [{r + shift: c for r, c in f_row.items()} for f_row in below]
        levels.append((OrderedBasis._made(n, elements), rows))
    return FreeComplex._made_on_read(n, [len(basis) for basis, _ in levels], levels.__getitem__)


# ---------------------------------------------------------------------------
# Linear quotients, stable ideals, Eliahou-Kervaire


class LinearQuotients(NamedTuple):
    variable_sets: Optional[tuple]  # tuple of frozensets of 0-based indices
    failed_at: Optional[int]  # 1-based index of the first bad colon ideal

    @property
    def ok(self) -> bool:
        return self.failed_at is None


def linear_quotients(gens: Sequence[Mono], n: int) -> LinearQuotients:
    """Successive colon ideals (u_1..u_j):(u_{j+1}), when all variable-generated.
    Each generator must pass check_monomial."""
    gens = [monomials.check_monomial(tuple(u)) for u in gens]
    degrees = [sum(u) for u in gens]
    if any(degrees[i] > degrees[i + 1] for i in range(len(gens) - 1)):
        raise ValueError("generators must be ordered by weakly increasing degree")
    sets = []
    for j in range(1, len(gens)):
        colon = MonomialIdeal._made(n, gens[:j]).colon(gens[j])
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
    return MonomialIdeal._made(I.n, gens)


def stable_order(I: MonomialIdeal) -> tuple:
    """Minimal generators sorted by total degree, lex-descending within a degree."""
    by_lex_desc = sorted(I.gens, reverse=True)
    return tuple(sorted(by_lex_desc, key=sum))


class _Lifter:
    """Preimages under d_p by the Groebner division of groebner's _reduce.

    d_p's nonzero columns are filed monic once, in column order, and their
    leading entries kept; a row z of degree a is divided by them, and each
    recorded quotient over its column's leading entry is an entry of the
    lift.  When the boundaries of F_p's generators form a Groebner basis,
    as for Eliahou-Kervaire and the resolutions of the paper's second
    theorem, no remainder is left; otherwise the row z at a goes to
    _lift_by_groebner, which divides it by a Groebner basis of the tagged
    columns.  Either way the lift is a row on F_p's basis.
    """

    def __init__(self, C: FreeComplex, p: int):
        self.complex, self.p = C, p
        # Past C's length, d_p has no column.
        basis, columns = C._level(p) if p <= C.length else (OrderedBasis._made(C.n, ()), ())
        self._filed, self._leads = {}, {}
        for c, (column, d) in enumerate(zip(columns, basis.degrees)):
            if column:
                r, _ = _file(self._filed, c, linalg.monic(column), d)
                self._leads[c] = column[r]

    def lift(self, z: dict, a: Mono) -> dict:
        """The row w with d_p(w) = z of degree a, ints where integral."""
        quotients = {}
        if _reduce(dict(z), a, self._filed, quotients):
            return _lift_by_groebner(self.complex, self.p, z, a)
        return {c: linalg.quotient(q, self._leads[c]) for c, q in quotients.items()}


def _lift_by_groebner(C: FreeComplex, p: int, z: dict, a: Mono) -> dict:
    """A preimage under d_p of the row z of degree a, from the tagged
    Groebner basis of d_p's rows, as a row, ints where integral.

    Each basis element is d_p(w) + w with w at the tag positions, which rank
    below every target position.  So z is a boundary exactly when its
    remainder has no target entry, and then z - (remainder) = d_p(w) + w
    with w = -(remainder).  Past C's length d_p is zero, and r = inf makes
    every entry of z a target entry.
    """
    rem, r = z, math.inf
    if p <= C.length:
        target = C.basis(p - 1)
        r = len(target)
        rem = _tagged_groebner(C._level(p)[1], C.basis(p), target).remainder(z, a)
    if min(rem, default=r) < r:
        raise RuntimeError(f"lifting failed at homological degree {p}: "
                           "the complex is not exact there")
    return {pos - r: linalg.quotient(c, -1) for pos, c in rem.items()}


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
    the one basis element of F_0; each higher phi_i lifts (_Lifter) the rows
    of phi_{i-1} d^G (_compose) through d^F_i.  The lifts are exact, so phi
    commutes, and the cone is written from the rows with no second test
    (_cone).  Returns (cone, phi), phi the ChainMap of the rows, built here
    alone; neither phi nor the shifted bases of G are checked.
    """
    if F.rank(0) != 1:
        raise ValueError("expected a rank-one module in homological degree 0")
    n = F.n
    T = taylor_complex(colon_gens, n)
    # A degree shift changes no row, so G is T's rows on shifted bases.
    G = FreeComplex._made_on_read(n, T.ranks, lambda p: (
        OrderedBasis._made(n, (BasisElement(monomials.mul(e.degree, u), e.label)
                               for e in T.basis(p))),
        T._level(p)[1]))
    phi_rows = [[{0: 1}]]
    for i in range(1, G.length + 1):
        (basis, rows), lifter = G._level(i), _Lifter(F, i)
        phi_rows.append([lifter.lift(_compose(row, phi_rows[i - 1]), d)
                         for row, d in zip(rows, basis.degrees)])
    return _cone(G, F, phi_rows), ChainMap(G, F, phi_rows)


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


def syzygy_rows(C: FreeComplex, p: int):
    """Generators of Z_p: the scalar rows of d_{p+1} and their degrees, None
    for a zero row; at p = 0 they generate the resolved submodule, and
    beyond the length there are none.  The rows are C's own."""
    if p >= C.length:
        return [], []
    basis, rows = C._level(p + 1)
    return rows, [d if row else None for row, d in zip(rows, basis.degrees)]


def _unit_row(row: dict, degree: Mono, target) -> Optional[int]:
    """The first row r of the column, in entry order, whose degree target[r]
    is the column's degree, so that its entry is a unit; or None."""
    return next((r for r in row if target[r] == degree), None)


def is_minimal(C: FreeComplex) -> bool:
    """No differential entry is a unit, read from the rows."""
    for p in range(1, C.length + 1):
        (basis, rows), target = C._level(p), C.basis(p - 1).degrees
        if any(_unit_row(row, d, target) is not None for row, d in zip(rows, basis.degrees)):
            return False
    return True


def minimize(C: FreeComplex) -> FreeComplex:
    """Cancel unit entries until every entry lies in the maximal ideal.

    It runs on copies of check_complex's rows of C: the entry in row r of
    column c of d_p has the monomial deg e_c / deg e_r, a unit when the
    degrees are equal.  A unit lam in row r of column c is cancelled by the
    Schur complement: every other live column with an entry in row r loses
    (entry / lam) times column c, which clears its row r.  Then column c
    leaves d_p, column r leaves d_{p-1}, and row c leaves d_{p+1}, where
    d o d = 0 has made it zero.  The search resumes at column c of d_p: a
    new unit in an earlier column would need that column to hold a unit in
    row r, which the search would have met first.  So the cancellations come
    in the order of a search that starts again at d_1 after each one.  Every
    column the cursor meets is live: a column of d_p dies as a pivot behind
    the cursor, or as the row of a cancellation in d_{p+1}, which comes
    later.  Basis degrees survive; each level of the result is re-sorted
    lex-refined, and its rows renumbered.
    """
    rows = _read_rows(C)
    if rows is None:
        raise RuntimeError("minimization needs d o d = 0 and multihomogeneous "
                           "columns; the input was not a complex")
    # The rows are C's own, so the cancellations run on copies; d_0 is zero.
    cols = [[{}] * C.rank(0)] + [list(map(dict, level)) for level in rows]
    n, length = C.n, C.length
    alive = [[True] * C.rank(p) for p in range(length + 1)]
    for p in range(1, length + 1):
        source, target = C.basis(p).degrees, C.basis(p - 1).degrees
        for c, pivot in enumerate(cols[p]):
            r = _unit_row(pivot, source[c], target)
            if r is None:
                continue
            lam = pivot[r]
            for c2, col in enumerate(cols[p]):
                if c2 == c or not alive[p][c2] or r not in col:
                    continue
                linalg.add_scaled(col, -linalg.quotient(col[r], lam), pivot)
            alive[p][c] = alive[p - 1][r] = False
            if p < length:
                for col in cols[p + 1]:
                    col.pop(c, None)

    levels, remap = [], []
    for p in range(length + 1):
        live = [i for i in range(C.rank(p)) if alive[p][i]]
        live_basis = OrderedBasis._made(n, (C.basis(p).elements[i] for i in live))
        basis, perm = live_basis.sort_lex_refined()
        remap.append({old: perm[k] for k, old in enumerate(live)})
        rows = [None] * len(basis)
        for old, new in remap[p].items():
            # An integral entry is kept as an int, as check_complex reads it.
            rows[new] = {remap[p - 1][r]: linalg.quotient(c)
                         for r, c in cols[p][old].items()}
        levels.append((basis, rows))
    while len(levels) > 1 and not levels[-1][0]:
        levels.pop()
    out = FreeComplex._made_on_read(n, [len(basis) for basis, _ in levels], levels.__getitem__)
    if not check_complex(out):
        raise RuntimeError("minimization broke the complex property")
    return out


def check_complex(C: FreeComplex) -> bool:
    """d composed with d vanishes and every column is multihomogeneous.

    Two tests run on the rows of each level.  First, every entry's row
    degree divides its column degree, so the entry in row r of the column of
    e_j is a term x^(deg e_j - deg e_r), as the constructor makes sure of
    for its columns.  Then every term of d_{p-1}(d_p(e_j)) at position s
    has the monomial x^(deg e_j - deg e_s), and d o d vanishes exactly when
    the coefficient matrices multiply to zero: the sums run on positions
    only, with no monomial built.  Each integral coefficient is an int and
    the others are Fractions, so the sums are exact; no row is scaled to
    integers, as a scale per column would change the product.  A complex
    that passes is marked, and checking it again returns True at once.
    """
    return C._complex or _check_rows(C)


def _read_rows(C: FreeComplex):
    """The rows of d_1..d_L, level p at index p - 1, once check_complex has
    passed C, or None when C is not a complex."""
    if not check_complex(C):
        return None
    return [C._level(p)[1] for p in range(1, C.length + 1)]


def _check_rows(C: FreeComplex) -> bool:
    """The check of check_complex, which marks a complex that passes."""
    below = [{}] * C.rank(0)  # d_0 is zero
    for p in range(1, C.length + 1):
        (basis, level), tops = C._level(p), C.basis(p - 1).degrees
        for row, degree in zip(level, basis.degrees):
            if not all(all(map(operator.le, tops[r], degree)) for r in row):
                return False
        if any(_compose(col, below) for col in level):
            return False
        below = level
    C._complex = True
    return True


@dataclass
class ExactnessReport:
    ok: bool
    failures: list = field(default_factory=list)  # (p, degree) pairs
    degrees_checked: int = 0


def check_exactness_on_box(C: FreeComplex, module) -> ExactnessReport:
    """Degreewise exactness in every multidegree, with the cokernel at level
    zero matching the module: a MonomialIdeal, for a rank-one F_0, or the
    (rows, degrees) pair of its generators on F_0, which
    freemod.check_rows guards.

    It starts with check_complex, whose rows C keeps if it passed C
    before.  The containment of d_1's columns in the module comes next: a
    column of degree a is in the module when adding it to the module's rows
    active at a leaves their linalg.exact_rank unchanged.

    Each slice is fixed by which module-generator and F_1..F_L basis
    degrees divide the degree, so walking their lcm closure decides every
    degree (Gasharov-Peeva-Welker).  The module, block 0, and each d_p, its
    rows with F_p's degrees, block p, are the blocks of one Slices engine,
    whose walk goes depth first down the closure's parent tree, where a
    degree has every row its parent has, so each rank reduces only the
    rows its ancestors did not.

    Each rank of a differential is reduced only until it meets its upper
    bound: rank d_1 at a is at most the module's rank at a, as d_1 maps into
    the module, and rank d_{p+1} at most dim F_{p,a} - rank d_p, the active
    rows of d_p less its rank, as d o d = 0.  A rank that meets its bound
    equals it; a rank below its bound after every row is a failure at that
    level, and the rows not reduced wait for the children.  So every rank
    is exact.

    The first failing closure degree in lex order is the one reported,
    with degrees_checked its lex index + 1.
    """
    rows = _read_rows(C)
    if rows is None:
        return ExactnessReport(False, failures=[(-1, None)])
    if isinstance(module, MonomialIdeal):
        if len(C.basis(0)) != 1:
            raise ValueError("monomial-ideal comparison expects a rank-one F_0")
        module = unit_rows(((0, u) for u in module.gens), C.basis(0))
    else:
        check_rows("the module", *module, C.basis(0))
    engine = Slices([(*module, len(C.basis(0)))]
                    + [(level, C.basis(p).degrees, len(C.basis(p - 1)))
                       for p, level in enumerate(rows, start=1)], C.n)
    for j, row in enumerate(rows[0] if rows else ()):
        mask = engine.active(C.basis(1).degree(j))
        chosen = [r for i, r in enumerate(module[0]) if mask >> i & 1]
        if linalg.exact_rank(chosen) != linalg.exact_rank(chosen + [row]):
            return ExactnessReport(False, failures=[(0, None)])

    def failing_level(a, active):
        """First level whose slice at a is not exact, or None."""
        bound = engine.rank(0, active)
        for p in range(1, len(rows) + 1):
            rank = engine.rank(p, active, bound)
            if rank < bound:
                return p - 1
            bound = (active & engine.blocks[p][0]).bit_count() - rank
        return len(rows) if bound else None

    failure, size = engine.walk(failing_level)
    if failure is None:
        return ExactnessReport(True, degrees_checked=size)
    i, a, p = failure
    return ExactnessReport(False, failures=[(p, a)], degrees_checked=i + 1)

