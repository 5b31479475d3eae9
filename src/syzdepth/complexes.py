"""Multigraded free complexes: Taylor, Koszul, mapping cones, Eliahou-Kervaire.

A complex stores one ordered basis per homological degree and the columns of
each differential as module vectors.  Homological degree 0 is the target free
module; for an ideal I the complex of the sequence u_1..u_m has F_0 = S and
the p-th syzygy module Z_p is the image of the (p+1)-st differential, so
Z_0 = I.  Exactness is certified degreewise on a finite box.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import monomials
from .freemod import (
    BasisElement,
    ModuleVector,
    OrderedBasis,
    Slices,
    Term,
    TermOrder,
    leading_term,
    multidegree_of,
)
from .groebner import _divide
from .monomials import Mono, MonomialIdeal


class FreeComplex:
    """A chain of free modules F_L -> ... -> F_1 -> F_0 with exact coefficients."""

    __slots__ = ("n", "bases", "_diffs")

    def __init__(self, n: int, bases: Sequence[OrderedBasis],
                 differentials: Sequence[Sequence[ModuleVector]]):
        self.n = n
        self.bases = tuple(bases)
        if len(differentials) != max(len(self.bases) - 1, 0):
            raise ValueError("need one differential per positive homological degree")
        diffs = [()]
        for p, cols in enumerate(differentials, start=1):
            cols = tuple(cols)
            if len(cols) != len(self.bases[p]):
                raise ValueError(f"differential {p} has {len(cols)} columns, "
                                 f"expected {len(self.bases[p])}")
            diffs.append(cols)
        self._diffs = tuple(diffs)

    @property
    def length(self) -> int:
        return len(self.bases) - 1

    def basis(self, p: int) -> OrderedBasis:
        return self.bases[p]

    def rank(self, p: int) -> int:
        return len(self.bases[p]) if 0 <= p <= self.length else 0

    @property
    def ranks(self):
        return tuple(len(b) for b in self.bases)

    def differential(self, p: int):
        """Columns of the map F_p -> F_{p-1}; empty beyond the length."""
        if 1 <= p <= self.length:
            return self._diffs[p]
        return ()

    def apply(self, p: int, v: ModuleVector) -> ModuleVector:
        """Image of v in F_p under the p-th differential."""
        return apply_columns(self.differential(p), v, self.n)

    def degree_box(self) -> Mono:
        """One more than the largest basis degree, coordinatewise."""
        box = [0] * self.n
        for basis in self.bases:
            for e in basis:
                for i, d in enumerate(e.degree):
                    if d > box[i]:
                        box[i] = d
        return tuple(b + 1 for b in box)

    def __repr__(self):
        return f"FreeComplex(n={self.n}, ranks={self.ranks})"


def apply_columns(columns, v: ModuleVector, n: int) -> ModuleVector:
    out = ModuleVector(n)
    for (pos, mono), coeff in v.items():
        out = out + columns[pos].scale(coeff, mono)
    return out


# ---------------------------------------------------------------------------
# Taylor and Koszul complexes


def _subset_order_key(subset):
    # Iterated mapping-cone order: compare largest elements first.
    return tuple(sorted(subset, reverse=True))


def taylor_complex(gens: Sequence[Mono], n: int) -> FreeComplex:
    """Taylor complex of the sequence; bases are labelled by subsets of [m].

    Basis elements at each level are ordered with the subset containing the
    later generators first, matching the order induced by the iterated
    mapping-cone construction.
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

    def lcm_of(subset):
        deg = monomials.unit(n)
        for i in subset:
            deg = monomials.lcm(deg, gens[i - 1])
        return deg

    bases = []
    positions = []  # per level: subset -> position
    for p in range(m + 1):
        subsets = sorted((frozenset(c) for c in itertools.combinations(range(1, m + 1), p)),
                         key=_subset_order_key, reverse=True)
        bases.append(OrderedBasis(n, (BasisElement(lcm_of(F), F) for F in subsets)))
        positions.append({F: i for i, F in enumerate(subsets)})

    diffs = []
    for p in range(1, m + 1):
        cols = []
        for element in bases[p]:
            F = sorted(element.label)
            terms = []
            for j, i in enumerate(F):
                sub = frozenset(F) - {i}
                quotient = monomials.divide(element.degree, lcm_of(sub))
                sign = 1 if j % 2 == 0 else -1
                terms.append(Term(Fraction(sign), quotient, positions[p - 1][sub]))
            cols.append(ModuleVector.from_terms(n, terms))
        diffs.append(cols)
    return FreeComplex(n, bases, diffs)


def is_regular_sequence(gens: Sequence[Mono]) -> bool:
    """Monomials form a regular sequence iff their supports are pairwise disjoint."""
    supports = [monomials.support(u) for u in gens]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if supports[i] & supports[j]:
                return False
    return True


def koszul_complex(gens: Sequence[Mono], n: int) -> FreeComplex:
    """Koszul complex of a regular sequence of monomials.

    Coincides with the Taylor complex; a non-regular input triggers a warning
    and still returns the Taylor complex.
    """
    if not is_regular_sequence(gens):
        warnings.warn("generators are not a regular sequence; returning the "
                      "Taylor complex", stacklevel=2)
    return taylor_complex(gens, n)


def shift_complex(C: FreeComplex, a: Mono) -> FreeComplex:
    """Tensor with S(-a): add a to every basis degree."""
    bases = [OrderedBasis(C.n, (BasisElement(monomials.mul(e.degree, a), e.label)
                                for e in basis))
             for basis in C.bases]
    return FreeComplex(C.n, bases, [C.differential(p) for p in range(1, C.length + 1)])


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
                right = self.apply(i - 1, G.apply(i, ModuleVector.generator(G.n, j)))
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
        if 1 <= i <= G.length + 1 and i - 1 <= G.length:
            for e in G.basis(i - 1):
                elems.append(BasisElement(e.degree, ("G", e.label)))
        if i <= F.length:
            for e in F.basis(i):
                elems.append(BasisElement(e.degree, ("F", e.label)))
        bases.append(OrderedBasis(n, elems))

    diffs = []
    for i in range(1, length + 1):
        g_rank_target = G.rank(i - 2) if i >= 2 else 0
        cols = []
        if i - 1 <= G.length:
            for j in range(G.rank(i - 1)):
                col = ModuleVector(n)
                if i >= 2:
                    col = col + (-G.apply(i - 1, ModuleVector.generator(n, j)))
                col = col + phi.apply(i - 1, ModuleVector.generator(n, j)).map_positions(
                    g_rank_target)
                cols.append(col)
        if i <= F.length:
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
    return all(I.contains(v) for u in I.gens for v in _exchange_monomials(u))


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

    Falls back to exact linear algebra on the multidegree slice when the
    division leaves a remainder; raises RuntimeError if no preimage exists.
    """
    n = C.n
    if z.is_zero():
        return ModuleVector(n)
    order = TermOrder(C.basis(p - 1), "lex")
    columns = C.differential(p)
    nonzero = [j for j, col in enumerate(columns) if not col.is_zero()]
    divisors = [(columns[j], leading_term(columns[j], order)) for j in nonzero]
    quotient, rem = _divide(z, divisors, order)
    if not rem.is_zero():
        return _lift_by_slice(C, p, z)
    return ModuleVector(n, {(nonzero[i], mono): c for (i, mono), c in quotient.items()})


def _lift_by_slice(C: FreeComplex, p: int, z: ModuleVector) -> ModuleVector:
    d = multidegree_of(z, C.basis(p - 1))
    if d is None:
        raise ValueError("can only lift multihomogeneous elements")
    source = C.basis(p)
    sol = Slices(C.differential(p), C.basis(p - 1), source.degrees).solve(z, d)
    if sol is None:
        raise RuntimeError(f"lifting failed at homological degree {p}: "
                           "the complex is not exact there")
    return ModuleVector(C.n, {(j, monomials.divide(d, source.degree(j))): c
                              for j, c in sol.items()})


def eliahou_kervaire(I: MonomialIdeal) -> FreeComplex:
    """Iterated mapping cone over the stable order; minimal for stable ideals.

    Each step resolves the colon module by the Koszul complex on the colon
    variables; the comparison maps are produced by multigraded lifting and the
    cone is certified afterwards.  A non-minimal outcome triggers a warning.
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

    F = FreeComplex(
        n,
        [OrderedBasis(n, [BasisElement(monomials.unit(n), ("F0",))]),
         OrderedBasis(n, [BasisElement(gens[0], ("g", 1))])],
        [[ModuleVector(n, {(0, gens[0]): Fraction(1)})]],
    )
    for j in range(1, len(gens)):
        variables = sorted(quotients.variable_sets[j - 1])
        G = taylor_complex([monomials.variable(i, n) for i in variables], n) \
            if variables else FreeComplex(
                n, [OrderedBasis(n, [BasisElement(monomials.unit(n), frozenset())])], [])
        G = shift_complex(G, gens[j])
        G = _relabel(G, ("g", j + 1))
        F, _ = comparison_cone(G, F, gens[j])
    if not is_minimal(F):
        warnings.warn("iterated mapping cone is not minimal", stacklevel=2)
    return F


def _relabel(C: FreeComplex, tag) -> FreeComplex:
    bases = [OrderedBasis(C.n, (BasisElement(e.degree, (tag, e.label)) for e in basis))
             for basis in C.bases]
    return FreeComplex(C.n, bases, [C.differential(p) for p in range(1, C.length + 1)])


def comparison_cone(G: FreeComplex, F: FreeComplex, u: Mono):
    """Cone of the comparison map phi: G -> F over multiplication by u.

    phi_0 sends the single basis element of G_0 to u times the single basis
    element of F_0 (both must have rank one); each higher phi_i is lifted
    through the differentials of F.  Returns (cone, phi).
    """
    if F.rank(0) != 1 or G.rank(0) != 1:
        raise ValueError("expected rank-one modules in homological degree 0")
    n = F.n
    phi_columns = [[ModuleVector(n, {(0, u): Fraction(1)})]]
    for i in range(1, G.length + 1):
        cols = []
        for k in range(G.rank(i)):
            z = apply_columns(phi_columns[i - 1],
                              G.apply(i, ModuleVector.generator(n, k)), n)
            cols.append(lift_through(F, i, z))
        phi_columns.append(cols)
    phi = ChainMap(G, F, phi_columns)
    return mapping_cone(phi), phi


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

    Basis degrees survive; each level of the result is re-sorted lex-refined.
    """
    n = C.n
    zero = monomials.unit(n)
    length = C.length
    cols = [None] + [[dict(col.items()) for col in C.differential(p)]
                     for p in range(1, length + 1)]
    alive = [[True] * C.rank(p) for p in range(length + 1)]

    def find_unit():
        for p in range(1, length + 1):
            for c, col in enumerate(cols[p]):
                if not alive[p][c]:
                    continue
                for (r, mono), coeff in col.items():
                    if mono == zero and coeff and alive[p - 1][r]:
                        return p, r, c
        return None

    while True:
        hit = find_unit()
        if hit is None:
            break
        p, r, c = hit
        lam = cols[p][c][(r, zero)]
        pivot_col = dict(cols[p][c])
        # Column operations at level p: clear row r from all other columns.
        factors = {}
        for c2, col in enumerate(cols[p]):
            if c2 == c or not alive[p][c2]:
                continue
            row_terms = [(mono, coeff) for (r2, mono), coeff in col.items() if r2 == r]
            if not row_terms:
                continue
            if len(row_terms) > 1:
                raise ValueError("minimize expects multigraded entries (one term "
                                 "per matrix position)")
            mono2, coeff2 = row_terms[0]
            t_coeff = coeff2 / lam
            factors[c2] = (t_coeff, mono2)
            for (r3, mono3), coeff3 in pivot_col.items():
                key = (r3, monomials.mul(mono3, mono2))
                new = col.get(key, Fraction(0)) - t_coeff * coeff3
                if new:
                    col[key] = new
                else:
                    col.pop(key, None)
        # Row update at level p+1: the row of the cancelled column vanishes.
        if p + 1 <= length:
            for col in cols[p + 1]:
                acc = {}
                for (r2, mono2), coeff2 in list(col.items()):
                    if r2 == c:
                        acc[mono2] = acc.get(mono2, Fraction(0)) + coeff2
                        del col[(r2, mono2)]
                for c2, (t_coeff, t_mono) in factors.items():
                    for (r2, mono2), coeff2 in col.items():
                        if r2 == c2:
                            key = monomials.mul(mono2, t_mono)
                            acc[key] = acc.get(key, Fraction(0)) + t_coeff * coeff2
                if any(acc.values()):
                    raise RuntimeError("minimization produced a nonzero cancelled row; "
                                       "the input was not a complex")
        alive[p][c] = False
        alive[p - 1][r] = False
        for col in cols[p]:
            for key in [k for k in col if k[0] == r]:
                del col[key]
        if p - 1 >= 1:
            cols[p - 1][r] = {}

    # Compact and re-sort lex-refined per level.
    new_bases = []
    remap = []
    for p in range(length + 1):
        elements = [(i, C.basis(p).elements[i]) for i in range(C.rank(p)) if alive[p][i]]
        elements.sort(key=lambda pair: pair[1].degree, reverse=True)
        remap.append({old: new for new, (old, _) in enumerate(elements)})
        new_bases.append(OrderedBasis(n, (e for _, e in elements)))
    while len(new_bases) > 1 and len(new_bases[-1]) == 0:
        new_bases.pop()
        remap.pop()
    diffs = []
    for p in range(1, len(new_bases)):
        level = []
        ordered = sorted(remap[p].items(), key=lambda kv: kv[1])
        for old, _ in ordered:
            level.append(ModuleVector(n, {(remap[p - 1][r], mono): coeff
                                          for (r, mono), coeff in cols[p][old].items()}))
        diffs.append(level)
    out = FreeComplex(n, new_bases, diffs)
    if not check_complex(out):
        raise RuntimeError("minimization broke the complex property")
    return out


def check_complex(C: FreeComplex) -> bool:
    """d composed with d vanishes and every column is multihomogeneous."""
    for p in range(1, C.length + 1):
        for j, col in enumerate(C.differential(p)):
            if not col.is_zero():
                d = multidegree_of(col, C.basis(p - 1))
                if d != C.basis(p).degree(j):
                    return False
        if p >= 2:
            for j in range(C.rank(p)):
                image = C.apply(p - 1, C.apply(p, ModuleVector.generator(C.n, j)))
                if not image.is_zero():
                    return False
    return True


@dataclass
class ExactnessReport:
    ok: bool
    box: Mono
    failures: list = field(default_factory=list)  # (p, degree) pairs
    degrees_checked: int = 0


def check_exactness_on_box(C: FreeComplex, module_gens, box: Optional[Mono] = None,
                           exhaustive: bool = False) -> ExactnessReport:
    """Degreewise exactness over the box, with the cokernel at level zero
    matching the module generated by module_gens.

    Every rank is exact: one Slices engine per differential, and one for the
    module, eliminate fraction-free and cache ranks per bitmask.  Set
    exhaustive to collect every failing degree instead of stopping at the
    first.
    """
    if box is None:
        box = C.degree_box()
    if not check_complex(C):
        return ExactnessReport(False, box, failures=[(-1, None)])
    if isinstance(module_gens, MonomialIdeal):
        if len(C.basis(0)) != 1:
            raise ValueError("monomial-ideal comparison expects a rank-one F_0")
        module_gens = [ModuleVector.generator(C.n, 0, u) for u in module_gens.gens]
    module_gens = list(module_gens)
    # The module engine also holds the columns of d_1, for image containment,
    # so that the rank comparison below is two-sided.
    module = Slices(module_gens + list(C.differential(1)), C.basis(0))
    own = (1 << len(module_gens)) - 1
    for j, col in enumerate(C.differential(1)):
        mask = module.active(C.basis(1).degree(j)) & own
        if module.rank(mask) != module.rank(mask | 1 << (len(module_gens) + j)):
            return ExactnessReport(False, box, failures=[(0, None)])

    length = C.length
    diffs = [Slices(C.differential(p), C.basis(p - 1), C.basis(p).degrees)
             for p in range(1, length + 1)]

    def failing_level(module_rank, masks):
        """First p where the slice at this degree is not exact, or None."""
        ranks = [diff.rank(mask) for diff, mask in zip(diffs, masks)] + [0]
        if ranks[0] != module_rank:
            return 0
        for p in range(1, length + 1):
            if ranks[p - 1] + ranks[p] != masks[p - 1].bit_count():
                return p
        return None

    report = ExactnessReport(True, box)
    for a in itertools.product(*(range(b + 1) for b in box)):
        report.degrees_checked += 1
        masks = [diff.active(a) for diff in diffs]
        bad_p = failing_level(module.rank(module.active(a) & own), masks)
        if bad_p is not None:
            report.ok = False
            report.failures.append((bad_p, a))
            if not exhaustive:
                return report
    return report


# ---------------------------------------------------------------------------
# Serialization


def complex_to_jsonable(C: FreeComplex) -> dict:
    differentials = []
    for p in range(1, C.length + 1):
        matrix = []
        for r in range(C.rank(p - 1)):
            row = []
            for c in range(C.rank(p)):
                entry = [{"coeff": str(coeff), "monomial": list(mono)}
                         for (pos, mono), coeff in C.differential(p)[c].items()
                         if pos == r]
                row.append(entry)
            matrix.append(row)
        differentials.append(matrix)
    return {
        "n": C.n,
        "ranks": list(C.ranks),
        "degrees": [[list(e.degree) for e in basis] for basis in C.bases],
        "differentials": differentials,
    }
