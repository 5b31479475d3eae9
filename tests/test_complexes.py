import functools
import itertools
import json
import math
import operator
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from syzdepth.cli import _INDENT, _dumps, complex_json
from syzdepth.complexes import (
    RESOLUTIONS,
    ExactnessReport,
    FreeComplex,
    check_complex,
    check_exactness_on_box,
    comparison_cone,
    eliahou_kervaire,
    is_minimal,
    is_stable,
    linear_quotients,
    minimize,
    stable_closure,
    stable_order,
    syzygy_rows,
    taylor_complex,
)
from syzdepth import complexes, freemod, groebner, linalg
from syzdepth.freemod import BasisElement, OrderedBasis
from syzdepth.groebner import InitialModule, hilbert_slice_check
from syzdepth.verify import random_monomial_ideal, trial_rng
from syzdepth.monomials import MonomialIdeal, divides, lcm, lcm_closure, mul, unit, variable
from syzdepth.syzygy import lex_refined_initial
from syzdepth.verify import taylor_step_cone

from reference_cones import (_divide, apply_columns, reference_comparison_cone,
                             reference_lift_through)
from reference_groebner import add_multiple, leading_term
from reference_monomials import minimalize_ordered
import reference_slices
from reference_slices import RankSlices
from reference_vectors import (ModuleVector, complex_of, differential, multidegree_of,
                               row_vectors, scalar_rows)

X1, X2, X3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def _scaled(v, coeff):
    """The vector coeff * v."""
    return ModuleVector(v.n, {key: c * coeff for key, c in v.items()})


def koszul(gens, n):
    """The complex of the koszul method on the sequence."""
    return RESOLUTIONS["koszul"].build(MonomialIdeal(n, gens), gens)


def test_taylor_single_generator():
    C = taylor_complex([(2, 0)], 2)
    assert C.ranks == (1, 1)
    assert C.basis(1).degrees == ((2, 0),)
    col = differential(C, 1)[0]
    assert col == ModuleVector(2, {(0, (2, 0)): Fraction(1)})


def test_taylor_regular_sequence_is_koszul():
    T = taylor_complex([X1, X2, X3], 3)
    K = koszul([X1, X2, X3], 3)
    assert T.ranks == (1, 3, 3, 1)
    for p in range(1, 4):
        assert differential(T, p) == differential(K, p)
    assert is_minimal(T)


def test_taylor_unit_generator_rejected():
    with pytest.raises(ValueError, match="unit"):
        taylor_complex([(0, 0)], 2)


@pytest.mark.parametrize("gens, n, message", [
    ([], 2, "need at least one generator"),
    ([(1, 0), (1, 0, 0)], 2, "generator (1, 0, 0) does not have length 2"),
    ([(1, 0), (0, 0)], 2, "unit generator: the ideal is the whole ring"),
    ([(1, -1)], 2, "negative exponent in monomial (1, -1)"),
], ids=["no-generators", "wrong-length", "unit-generator", "negative-exponent"])
def test_taylor_error_messages(gens, n, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        taylor_complex(gens, n)


def reference_cone_subset_key(subset):
    # Iterated mapping-cone order: compare largest elements first.
    return tuple(sorted(subset, reverse=True))


def reference_taylor_complex(gens, n):
    """taylor_complex as it read when it sorted frozensets by the cone key."""
    gens = [tuple(u) for u in gens]
    m = len(gens)
    lcms = {frozenset(): unit(n)}
    bases = []
    positions = []
    for p in range(m + 1):
        subsets = sorted((frozenset(c) for c in itertools.combinations(range(1, m + 1), p)),
                         key=reference_cone_subset_key, reverse=True)
        for F in subsets:
            if F:
                top = max(F)
                lcms[F] = lcm(lcms[F - {top}], gens[top - 1])
        bases.append(OrderedBasis(n, (BasisElement(lcms[F], F) for F in subsets)))
        positions.append({F: i for i, F in enumerate(subsets)})
    signs = (Fraction(1), Fraction(-1))
    diffs = []
    for p in range(1, m + 1):
        below = positions[p - 1]
        cols = []
        for element in bases[p]:
            F = element.label
            terms = []
            for j, i in enumerate(sorted(F)):
                face = F - {i}
                quotient = tuple(map(operator.sub, element.degree, lcms[face]))
                terms.append(((below[face], quotient), signs[j % 2]))
            cols.append(ModuleVector(n, terms))
        diffs.append(cols)
    return complex_of(n, bases, diffs)


def test_descending_masks_follow_the_cone_order():
    for m in range(1, 9):
        for p in range(m + 1):
            subsets = sorted((frozenset(c) for c in itertools.combinations(range(1, m + 1), p)),
                             key=reference_cone_subset_key, reverse=True)
            masks = sorted((sum(1 << (i - 1) for i in F) for F in subsets), reverse=True)
            assert [frozenset(i + 1 for i in range(m) if mask >> i & 1)
                    for mask in masks] == subsets


@st.composite
def taylor_inputs(draw):
    """(generators, n): up to 8 generators in up to 5 variables, with
    repeats and multiples of earlier generators mixed in."""
    n = draw(st.integers(1, 5))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n).filter(any),
                         min_size=1, max_size=8))
    while len(gens) < 8 and draw(st.booleans()):
        g = draw(st.sampled_from(gens))
        shift = draw(st.tuples(*[st.integers(0, 1)] * n))
        gens.insert(draw(st.integers(0, len(gens))), mul(g, shift))
    return gens, n


@settings(max_examples=60, deadline=None)
@given(taylor_inputs())
@example(([(1, 0), (1, 0), (0, 1)], 2))
@example(([(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1), (2, 0, 0),
           (0, 2, 0), (0, 0, 2), (1, 1, 0)], 3))
def test_taylor_complex_matches_the_frozenset_reference(case):
    gens, n = case
    C = taylor_complex(gens, n)
    R = reference_taylor_complex(gens, n)
    assert C.n == R.n and C.length == R.length
    for p in range(C.length + 1):
        assert [(e.degree, e.label) for e in C.basis(p)] == \
            [(e.degree, e.label) for e in R.basis(p)]
        assert all(type(e.label) is frozenset for e in C.basis(p))
    for p in range(1, C.length + 1):
        for col, ref in zip(differential(C, p), differential(R, p), strict=True):
            assert list(col.items()) == list(ref.items())
            assert [type(c) for _, c in col.items()] == [type(c) for _, c in ref.items()]


def assert_same_basis(C, R, p):
    assert [(e.degree, e.label) for e in C.basis(p)] == [(e.degree, e.label) for e in R.basis(p)]


def assert_same_columns(C, R, p):
    for col, ref in zip(differential(C, p), differential(R, p), strict=True):
        assert list(col.items()) == list(ref.items())
        assert [type(c) for _, c in col.items()] == [type(c) for _, c in ref.items()]


@settings(max_examples=60, deadline=None)
@given(taylor_inputs(), st.data())
def test_taylor_levels_are_made_on_first_read(case, data):
    gens, n = case
    m = len(gens)
    R = reference_taylor_complex(gens, n)
    # Each level makes one OrderedBasis, so the calls count the levels made.
    with mock.patch.object(OrderedBasis, "_made", wraps=OrderedBasis._made) as made:
        C = taylor_complex(gens, n)
        assert C.length == m
        assert C.ranks == tuple(math.comb(m, p) for p in range(m + 1)) == R.ranks
        assert [C.rank(p) for p in range(-1, m + 2)] == [0, *R.ranks, 0]
        assert made.call_count == 0
        reads = data.draw(st.lists(st.tuples(st.integers(0, m),
                                             st.sampled_from(["basis", "differential"])),
                                   max_size=2 * (m + 1)))
        levels = set()
        for p, accessor in reads:
            if accessor == "basis":
                assert_same_basis(C, R, p)
                levels.add(p)
            else:
                assert_same_columns(C, R, p)
                if p:
                    levels.update((p - 1, p))
            assert made.call_count == len(levels)
        assert [b.degrees for b in C.bases] == [b.degrees for b in R.bases]
        assert made.call_count == m + 1
    for p in range(1, m + 1):
        assert_same_basis(C, R, p)
        assert_same_columns(C, R, p)


def test_taylor_top_entry():
    # lcm({1,2,3})/lcm({1,2}) = 1 for x1x2, x2x3, x1x3: a unit entry.
    C = taylor_complex([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3)
    positions = {e.label: i for i, e in enumerate(C.basis(2))}
    col = differential(C, 3)[0]
    assert dict(col.items())[positions[frozenset({1, 2})], (0, 0, 0)] == 1


def test_koszul_warns_on_irregular():
    with pytest.warns(UserWarning, match="regular"):
        koszul([(1, 1, 0), (0, 1, 1)], 3)


def test_koszul_signs():
    C = koszul([(1, 0), (0, 1)], 2)
    col = differential(C, 2)[0]
    labels = {e.label: i for i, e in enumerate(C.basis(1))}
    # d(e_12) = x1 e_2 - x2 e_1 with the printed sign convention.
    terms = dict(col.items())
    assert terms[labels[frozenset({2})], (1, 0)] == 1
    assert terms[labels[frozenset({1})], (0, 1)] == -1


def test_koszul_ranks_binomial():
    C = koszul([X1, X2, X3], 3)
    assert C.ranks == (1, 3, 3, 1)
    C2 = koszul([(2, 0), (0, 3)], 2)
    assert is_minimal(C2)


def test_smallest_mapping_cone():
    # _cone, the one cone writer, on the one-level map S(-xy) -> S.
    n = 2
    F = FreeComplex(n, [OrderedBasis(n, [BasisElement((0, 0))])], [])
    G = FreeComplex(n, [OrderedBasis(n, [BasisElement((1, 1))])], [])
    C = complexes._cone(G, F, [[{0: 1}]])
    assert C.ranks == (1, 1)
    assert C.basis(1).degrees == ((1, 1),)
    assert check_complex(C)


def test_cone_reproduces_taylor_for_two_generators():
    from syzdepth.verify import taylor_step_cone

    gens = [(2, 0), (1, 1)]
    cone, _ = taylor_step_cone(gens, 2)
    T = taylor_complex(gens, 2)
    assert cone.ranks == T.ranks
    assert [b.degrees for b in cone.bases] == [b.degrees for b in T.bases]
    assert differential(cone, 1) == differential(T, 1)
    # Level two agrees up to the sign of the cone's shifted basis element.
    assert differential(cone, 2)[0] == _scaled(differential(T, 2)[0], -1)


def test_cone_differential_squares_to_zero():
    from syzdepth.verify import taylor_step_cone

    rng = random.Random(5)
    for _ in range(5):
        I = random_monomial_ideal(rng, 3, 4, 2, min_gens=2)
        if len(I.gens) < 2:
            continue
        cone, _ = taylor_step_cone(list(I.gens), I.n)
        assert check_complex(cone)


def test_cone_syzygy_dimension_identity():
    # Degreewise, dim Z_i(C) = dim Z_i(F) + dim Z_{i-1}(G) for every cone.
    from syzdepth.verify import taylor_step_cone

    def dimension(gens, a, basis):
        slices = RankSlices(gens, basis)
        return slices.rank(slices.active(a))

    for gens, n in [([(2, 0), (1, 1), (0, 2)], 2),
                    ([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3)]:
        cone, phi = taylor_step_cone(gens, n)
        G, F = phi.source, phi.target
        box = [1 + max(e.degree[i] for basis in cone.bases for e in basis)
               for i in range(n)]
        for i in range(1, cone.length + 1):
            zc = list(differential(cone, i + 1))
            zf = list(differential(F, i + 1))
            zg = list(differential(G, i)) if i <= G.length else []
            for a in itertools.product(*(range(b + 1) for b in box)):
                left = dimension(zc, a, cone.basis(i)) if zc else 0
                right = (dimension(zf, a, F.basis(i)) if zf else 0) + \
                        (dimension(zg, a, G.basis(i - 1)) if zg else 0)
                assert left == right, (gens, i, a)


def _commutes(phi):
    """d^F_i phi_i = phi_{i-1} d^G_i on every column, i = 1..G.length."""
    G, F = phi.source, phi.target
    for i in range(1, G.length + 1):
        d_F = F._level(i)[1] if i <= F.length else []
        for g_row, phi_row in zip(G._level(i)[1], phi.rows[i]):
            if complexes._compose(phi_row, d_F) != complexes._compose(g_row, phi.rows[i - 1]):
                return False
    return True


def test_noncommuting_chain_map_rejected():
    # comparison_cone's phi for (x) : x over S/(x) is G = S(-1) <- S(-2) into
    # F = S <- S(-1), phi_0 = phi_1 = 1.  ChainMap checks nothing, so a phi_1
    # of 2, which does not commute, is refused by check_complex on its cone.
    n = 1
    F = FreeComplex(n, [OrderedBasis(n, [BasisElement((0,))]),
                        OrderedBasis(n, [BasisElement((1,))])], [[{0: 1}]])
    cone, phi = comparison_cone(F, [(1,)], (1,))
    G = phi.source
    assert [basis.degrees for basis in G.bases] == [((1,),), ((2,),)]
    assert phi.rows == [[{0: 1}], [{0: 1}]]
    assert _commutes(phi) and check_complex(cone)
    bad = phi._replace(rows=[[{0: 1}], [{0: 2}]])
    assert not _commutes(bad)
    assert not check_complex(complexes._cone(G, F, bad.rows))


@pytest.mark.parametrize("gens", [[(2, 0), (1, 1), (0, 2)],
                                  [(1, 1, 0), (0, 1, 1), (1, 0, 1)],
                                  [(2, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 2), (1, 0, 1)]])
def test_comparison_cone_phi_commutes(gens):
    # Nothing checks comparison_cone's phi at run time: the lifts must make
    # it a chain map at every level of every Taylor step.
    for m in range(2, len(gens) + 1):
        cone, phi = taylor_step_cone(gens[:m], len(gens[0]))
        assert _commutes(phi), (gens, m)
        assert check_complex(cone)


B0, B1 = (OrderedBasis(1, [BasisElement((d,))]) for d in range(2))


# Columns with a position outside the basis they map into, each with its
# message: past the rank and negative in a differential, where the first
# raised IndexError and the second wrapped to the last basis element.
OUTSIDE_THE_BASIS = {
    "past-the-rank": (
        lambda: FreeComplex(1, [B0, B1], [[{1: 1}]]),
        "differential 1: column 0 has position 1, outside a basis of rank 1"),
    "negative": (
        lambda: FreeComplex(1, [B0, B1], [[{-1: 1}]]),
        "differential 1: column 0 has position -1, outside a basis of rank 1"),
    "too-few-levels": (
        lambda: FreeComplex(1, [B0, B1], []),
        "need one differential per positive homological degree"),
    "too-few-columns": (
        lambda: FreeComplex(1, [B0, B1], [[]]),
        "differential 1 has 0 columns, expected 1"),
}


@pytest.mark.parametrize("case", OUTSIDE_THE_BASIS)
def test_a_position_outside_the_target_basis_is_refused(case):
    build, message = OUTSIDE_THE_BASIS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_linear_quotients_examples():
    r = linear_quotients([X1, X2, X3], 3)
    assert r.ok and r.variable_sets == (frozenset({0}), frozenset({0, 1}))
    r2 = linear_quotients([(1, 1, 0), (0, 1, 1)], 3)
    assert r2.ok and r2.variable_sets == (frozenset({0}),)
    r3 = linear_quotients([(1, 1, 0, 0), (0, 0, 1, 1)], 4)
    assert not r3.ok and r3.failed_at == 1


def test_linear_quotients_requires_sorted_degrees():
    with pytest.raises(ValueError, match="degree"):
        linear_quotients([(1, 1), (1, 0)], 2)


def test_linear_quotients_refuses_an_exponent_at_the_cap():
    with pytest.raises(ValueError, match=r"^exponent overflow in \(2147483648, 1\)$"):
        linear_quotients([(1, 0), (2**31, 1)], 2)


def test_is_stable_examples():
    assert is_stable(MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)]))
    assert not is_stable(MonomialIdeal(2, [(0, 1)]))
    assert is_stable(MonomialIdeal(2, [(1, 0)]))


def test_stable_order():
    I = MonomialIdeal(2, [(0, 2), (2, 0), (1, 1)])
    assert stable_order(I) == ((2, 0), (1, 1), (0, 2))


def test_stable_closure():
    closed = stable_closure(MonomialIdeal(2, [(0, 1)]))
    assert is_stable(closed)
    assert set(closed.gens) == {(1, 0), (0, 1)}


def test_ek_principal():
    C = eliahou_kervaire(MonomialIdeal(2, [(1, 0)]))
    assert C.ranks == (1, 1)
    assert C.basis(1).degrees == ((1, 0),)


def test_ek_example_ranks():
    I = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
    C = eliahou_kervaire(I)
    assert C.ranks == (1, 3, 2)
    assert is_minimal(C)
    assert check_exactness_on_box(C, I).ok


def test_ek_maximal_ideal_is_koszul():
    I = MonomialIdeal(3, [X1, X2, X3])
    C = eliahou_kervaire(I)
    K = taylor_complex([X1, X2, X3], 3)
    assert C.ranks == K.ranks
    for p in range(4):
        assert sorted(C.basis(p).degrees) == sorted(K.basis(p).degrees)
    assert is_minimal(C)
    assert check_exactness_on_box(C, I).ok


def test_ek_rank_formula():
    # rank F_p = sum_j C(|L_j|, p-1) over the quotient steps.
    from math import comb

    I = stable_closure(MonomialIdeal(3, [(2, 1, 0), (0, 2, 1)]))
    gens = stable_order(I)
    lq = linear_quotients(gens, 3)
    assert lq.ok
    sizes = [0] + [len(s) for s in lq.variable_sets]
    C = eliahou_kervaire(I)
    for p in range(1, C.length + 1):
        assert C.rank(p) == sum(comb(s, p - 1) for s in sizes)
    assert sum(C.ranks) == 1 + sum(2 ** s for s in sizes)


def test_ek_rejects_nonstable():
    with pytest.raises(ValueError, match=r"not stable.*\(0, 1\)"):
        eliahou_kervaire(MonomialIdeal(2, [(0, 1)]))


def test_syzygy_generators_examples():
    # syzygy_rows gives the generators of Z_p: the Koszul relations
    # x_i e_j - x_j e_i of degree x_i x_j at p = 1, the ideal's generators
    # at p = 0, and nothing beyond the length.
    K = taylor_complex([X1, X2, X3], 3)
    labels = {e.label: i for i, e in enumerate(K.basis(1))}
    expected = set()
    for (i, j) in [(1, 2), (1, 3), (2, 3)]:
        row = {labels[frozenset({j})]: 1, labels[frozenset({i})]: -1}
        expected.add((frozenset(row.items()), tuple(int(k in (i - 1, j - 1)) for k in range(3))))
    rows, degrees = syzygy_rows(K, 1)
    assert {(frozenset(row.items()), d) for row, d in zip(rows, degrees)} == expected
    assert syzygy_rows(K, 0) == ([{0: 1}] * 3, [X3, X2, X1])
    assert syzygy_rows(K, 3) == ([], [])


def test_minimize_examples():
    I = MonomialIdeal(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    C = taylor_complex(list(I.gens), 3)
    M = minimize(C)
    assert C.ranks == (1, 3, 3, 1)
    assert M.ranks == (1, 3, 2)
    assert is_minimal(M)
    assert check_exactness_on_box(M, I).ok
    # The certificate's engines keep a complex's own rows and reduce
    # copies, so no row may change; d_2 of the second complex holds the
    # entries 2/3 and -2/3, which leading entries of 1 alone do not show.
    for D, J in ((M, I), (minimize(KOSZUL3_TWO_THIRDS), MonomialIdeal(3, [X1, X2, X3]))):
        before = [[dict(row) for row in rows] for _, rows in _levels(D)]
        assert check_exactness_on_box(D, J).ok
        assert [rows for _, rows in _levels(D)] == before
    # A minimal complex is a fixpoint.
    again = minimize(M)
    assert again.ranks == M.ranks
    # Regular sequences are already minimal.
    K = taylor_complex([X1, X2, X3], 3)
    assert minimize(K).ranks == K.ranks


def test_minimized_bases_are_lex_refined():
    C = taylor_complex([(2, 0), (1, 1), (0, 2)], 2)
    M = minimize(C)
    for p in range(M.length + 1):
        degrees = M.basis(p).degrees
        assert list(degrees) == sorted(degrees, reverse=True)


def reference_minimize(C):
    """minimize as it read when the search for a unit started again at d_1
    after every cancellation and each row was found by scanning the terms
    of every column at levels p and p + 1."""
    n = C.n
    zero = unit(n)
    length = C.length
    cols = [None] + [[dict(col.items()) for col in differential(C, p)]
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
                key = (r3, mul(mono3, mono2))
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
                            key = mul(mono2, t_mono)
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
    out = complex_of(n, new_bases, diffs)
    if not check_complex(out):
        raise RuntimeError("minimization broke the complex property")
    return out


def reference_monomial_check_complex(C):
    """check_complex as it read when d_{p-1}(d_p(e_j)) was summed into one
    {(position, monomial): c} dict, monomials and all."""
    below = None
    for p in range(1, C.length + 1):
        for j, col in enumerate(differential(C, p)):
            if not col.is_zero():
                d = multidegree_of(col, C.basis(p - 1))
                if d != C.basis(p).degree(j):
                    return False
        cols = [[(key, c.numerator if c.denominator == 1 else c) for key, c in col.items()]
                for col in differential(C, p)]
        if below is not None:
            for col in cols:
                image = {}
                for (pos, mono), coeff in col:
                    add_multiple(image, below[pos], coeff, mono)
                if image:
                    return False
        below = cols
    return True


def reference_exactness(C, module_gens, exhaustive=False):
    """check_exactness_on_box as it read when it walked the lcm closure in
    lex order and took every rank in full, one RankSlices engine per
    differential, after reference_monomial_check_complex."""
    if not reference_monomial_check_complex(C):
        return ExactnessReport(False, failures=[(-1, None)])
    if isinstance(module_gens, MonomialIdeal):
        if len(C.basis(0)) != 1:
            raise ValueError("monomial-ideal comparison expects a rank-one F_0")
        module_gens = [ModuleVector(C.n, {(0, u): 1}) for u in module_gens.gens]
    module_gens = list(module_gens)
    module = RankSlices(module_gens + list(differential(C, 1)), C.basis(0))
    own = (1 << len(module_gens)) - 1
    for j, col in enumerate(differential(C, 1)):
        mask = module.active(C.basis(1).degree(j)) & own
        if module.rank(mask) != module.rank(mask | 1 << (len(module_gens) + j)):
            return ExactnessReport(False, failures=[(0, None)])

    length = C.length
    diffs = [RankSlices(differential(C, p), C.basis(p - 1), C.basis(p).degrees)
             for p in range(1, length + 1)]

    def failing_level(module_rank, masks):
        ranks = [diff.rank(mask) for diff, mask in zip(diffs, masks)] + [0]
        if ranks[0] != module_rank:
            return 0
        for p in range(1, length + 1):
            if ranks[p - 1] + ranks[p] != masks[p - 1].bit_count():
                return p
        return None

    report = ExactnessReport(True)
    degrees = module.degrees + [d for diff in diffs for d in diff.degrees]
    for a in sorted(lcm_closure(degrees, C.n)):
        report.degrees_checked += 1
        masks = [diff.active(a) for diff in diffs]
        bad_p = failing_level(module.rank(module.active(a) & own), masks)
        if bad_p is not None:
            report.ok = False
            report.failures.append((bad_p, a))
            if not exhaustive:
                return report
    return report


def path_odd_first(n):
    """The path ideal on n variables with the edges x1x2, x3x4, ... first."""
    order = list(range(0, n - 1, 2)) + list(range(1, n - 1, 2))
    return [tuple(1 if j in (i, i + 1) else 0 for j in range(n)) for i in order]


# The path on 7 vertices with the odd-indexed edges x1x2, x3x4, x5x6 first.
PATH7_ODD_FIRST = path_odd_first(7)


def _rescale_basis(C, p, factors):
    """The same complex after e_k in F_p becomes e_k / factors[k]: column k
    of d_p is scaled by factors[k], and row k of d_{p+1} divided by it."""
    diffs = [list(differential(C, q)) for q in range(1, C.length + 1)]
    diffs[p - 1] = [_scaled(col, f) for col, f in zip(diffs[p - 1], factors)]
    if p < C.length:
        diffs[p] = [ModuleVector(C.n, {(k, mono): c / factors[k] for (k, mono), c in col.items()})
                    for col in diffs[p]]
    return complex_of(C.n, C.bases, diffs)


@st.composite
def minimize_inputs(draw):
    """Taylor, Eliahou-Kervaire or taylor_step_cone complexes on at most 6
    generators."""
    kind = draw(st.sampled_from(["taylor", "ek", "cone"]))
    if kind == "ek":
        n = draw(st.integers(1, 3))
        low = [u for u in itertools.product(range(3), repeat=n) if 1 <= sum(u) <= 2]
        gens = draw(st.lists(st.sampled_from(low), min_size=1, max_size=2))
        return eliahou_kervaire(stable_closure(MonomialIdeal(n, gens)))
    n = draw(st.integers(1, 5))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n).filter(any),
                         min_size=1, max_size=6))
    if kind == "cone":
        gens = list(minimalize_ordered(gens))
        if len(gens) >= 2:
            return taylor_step_cone(gens, n)[0]
    return taylor_complex(gens, n)


@settings(max_examples=80, deadline=None)
@given(minimize_inputs())
@example(taylor_complex(PATH7_ODD_FIRST, 7))
@example(taylor_complex([X1, X2, X3], 3))
# Two basis elements of F_4, then of F_3, rescaled by 3 and 1/7: units of
# -3 and -1/7 in d_4 and of -1/3 and 7 in d_5, then of 3 in d_3 and 7 in
# d_4.  Each unit other than 1 and -1 must be inverted as a Fraction: with
# 1 / 7 as a float, both minimized complexes differ from the reference.
@example(_rescale_basis(taylor_complex(PATH7_ODD_FIRST, 7), 4,
                        [{13: 3, 14: Fraction(1, 7)}.get(k, 1) for k in range(15)]))
@example(_rescale_basis(taylor_complex(PATH7_ODD_FIRST, 7), 3,
                        [{13: 3, 7: Fraction(1, 7)}.get(k, 1) for k in range(20)]))
def test_minimize_matches_the_rescanning_reference(C):
    assert "".join(complex_json(minimize(C))) == "".join(complex_json(reference_minimize(C)))


def test_minimize_rejects_a_nonzero_composite():
    # d_1 o d_2 = x.  The unit of d_1 would be cancelled first, and the row
    # it leaves in d_2 is not zero.
    C = FreeComplex(1, [OrderedBasis(1, [BasisElement((0,))]),
                        OrderedBasis(1, [BasisElement((0,))]),
                        OrderedBasis(1, [BasisElement((1,))])],
                    [[{0: 1}], [{0: 1}]])
    with pytest.raises(RuntimeError, match="the input was not a complex"):
        minimize(C)


def _typed_rows(rows):
    """Each level's rows as lists of (row, coefficient, type), in dict order."""
    return [[[(r, c, type(c)) for r, c in row.items()] for row in level] for level in rows]


def _view_items(C):
    return [[list(col.items()) for col in differential(C, p)] for p in range(1, C.length + 1)]


@settings(max_examples=60, deadline=None)
@given(minimize_inputs())
@example(taylor_complex(PATH7_ODD_FIRST, 7))
@example(_rescale_basis(taylor_complex(PATH7_ODD_FIRST, 7), 4,
                        [{13: 3, 14: Fraction(1, 7)}.get(k, 1) for k in range(15)]))
def test_minimize_leaves_its_input_unchanged(C):
    # A checked complex keeps its rows, and minimize cancels on copies of
    # them: its input reads the same after it, and a second call gives the
    # same complex.
    rows = _typed_rows(complexes._read_rows(C))
    views, text = _view_items(C), "".join(complex_json(C))
    first = "".join(complex_json(minimize(C)))
    assert _typed_rows(complexes._read_rows(C)) == rows
    assert _view_items(C) == views
    assert "".join(complex_json(C)) == text
    assert "".join(complex_json(minimize(C))) == first


MAXIMAL3_SQUARED = MonomialIdeal(3, [u for u in itertools.product(range(3), repeat=3)
                                     if sum(u) == 2])


@settings(max_examples=80, deadline=None)
@given(minimize_inputs(), st.booleans())
@example(taylor_complex(PATH7_ODD_FIRST, 7), True)
@example(_rescale_basis(taylor_complex(PATH7_ODD_FIRST, 7), 4,
                        [{13: 3, 14: Fraction(1, 7)}.get(k, 1) for k in range(15)]), True)
@example(eliahou_kervaire(MAXIMAL3_SQUARED), False)
@example(taylor_step_cone(PATH7_ODD_FIRST, 7)[0], False)
@example(taylor_step_cone(PATH7_ODD_FIRST, 7)[0], True)
def test_rows_read_back_through_the_view_and_the_constructor(C, minimized):
    # rows -> FreeComplex(n, bases, rows) -> rows is the identity, and so
    # is rows -> the reference's vector view -> complex_of -> rows, the
    # order of the entries and their int and Fraction types included;
    # Eliahou-Kervaire and taylor_step_cone complexes are mapping cones,
    # whose rows _cone writes.  The constructor keeps copies.
    if minimized:
        C = minimize(C)
    rows = complexes._read_rows(C)
    views = [differential(C, p) for p in range(1, C.length + 1)]
    assert _typed_rows(complexes._read_rows(complex_of(C.n, C.bases, views))) == \
        _typed_rows(rows)
    D = FreeComplex(C.n, C.bases, rows)
    assert _typed_rows(complexes._read_rows(D)) == _typed_rows(rows)
    assert not any(a is b for p in range(1, C.length + 1)
                   for a, b in zip(D._level(p)[1], C._level(p)[1]))


def eliahou_kervaire_steps(I):
    """The (F, colon generators, u) of each comparison_cone step of
    eliahou_kervaire(I), each F the cone of the steps before."""
    n, gens = I.n, stable_order(I)
    F = taylor_complex(gens[:1], n)
    for u, variables in zip(gens[1:], linear_quotients(gens, n).variable_sets):
        colon = [variable(i, n) for i in sorted(variables)]
        yield F, colon, u
        F, _ = comparison_cone(F, colon, u)


@st.composite
def cone_steps(draw):
    """(F, colon generators, u) triples: the last step of the Taylor step
    cone of a drawn sequence (n <= 4, m <= 5, exponents <= 3), or every
    Eliahou-Kervaire step of the stable closure of a drawn ideal (n <= 4,
    at most 3 generators, exponents <= 2)."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        gens = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n).filter(any),
                             min_size=1, max_size=3))
        return list(eliahou_kervaire_steps(stable_closure(MonomialIdeal(n, gens))))
    gens = list(minimalize_ordered(draw(st.lists(st.tuples(*[st.integers(0, 3)] * n).filter(any),
                                                 min_size=2, max_size=5))))
    return [taylor_step(gens, n)] if len(gens) >= 2 else []


def taylor_step(gens, n):
    """The (F, colon generators, u) of verify.taylor_step_cone(gens, n)."""
    last = gens[-1]
    return (taylor_complex(gens[:-1], n),
            [tuple(a - min(a, b) for a, b in zip(u, last)) for u in gens[:-1]], last)


def _levels(C):
    return [(C.basis(p), C._level(p)[1]) for p in range(C.length + 1)]


@settings(max_examples=60, deadline=None)
@given(cone_steps())
@example(list(eliahou_kervaire_steps(MAXIMAL3_SQUARED)))
@example([taylor_step(PATH7_ODD_FIRST, 7)])
def test_comparison_cone_matches_the_column_reference(steps):
    # The row-built cone and phi against the parent's column path, the order
    # of the entries and their int and Fraction types included.
    for F, colon, u in steps:
        cone, phi = comparison_cone(F, colon, u)
        ref_cone, ref_phi = reference_comparison_cone(F, colon, u)
        assert cone.ranks == ref_cone.ranks
        assert [b for b, _ in _levels(cone)] == [b for b, _ in _levels(ref_cone)]
        assert _typed_rows(r for _, r in _levels(cone)) == \
            _typed_rows(r for _, r in _levels(ref_cone))
        ref_rows = [scalar_rows(cols, F.basis(i) if i <= F.length else OrderedBasis(F.n, ()))[0]
                    for i, cols in enumerate(ref_phi.columns)]
        assert _typed_rows(phi.rows) == _typed_rows(ref_rows)


def test_eliahou_kervaire_makes_no_view(fractions_only_from_linalg):
    # The cone steps compose, lift and write rows: no column is read as a
    # module vector, which would make a Fraction of each coefficient
    # outside linalg.
    assert eliahou_kervaire(MonomialIdeal(4, [u for u in itertools.product(range(3), repeat=4)
                                               if sum(u) == 2])).ranks == (1, 10, 20, 15, 4)
    assert taylor_step_cone(PATH7_ODD_FIRST, 7)[0].ranks == taylor_complex(PATH7_ODD_FIRST, 7).ranks


def test_check_complex_tests_that_row_degrees_divide_column_degrees():
    # Levels 0..2 of the Taylor complex of x1, x2, x3, with the entry of d_2
    # in row e_1 of the column of e_12 moved to row e_3.  d_1 o d_2 still
    # sums to zero on positions, as every column of d_1 is 1 in F_0's one
    # row, but x3 does not divide x1 x2: the column would need x3^-1.
    T = taylor_complex([X1, X2, X3], 3)
    position = {e.label: i for p in (1, 2) for i, e in enumerate(T.basis(p))}
    moved = [dict(row) for row in T._level(2)[1]]
    column = moved[position[frozenset({1, 2})]]
    column[position[frozenset({3})]] = column.pop(position[frozenset({1})])
    levels = [T._level(0), T._level(1), (T.basis(2), moved)]
    C = FreeComplex._made_on_read(3, T.ranks[:3], levels.__getitem__)
    assert check_complex(FreeComplex._made_on_read(3, T.ranks[:3],
                                                   [T._level(p) for p in range(3)].__getitem__))
    assert not check_complex(C)
    with pytest.raises(RuntimeError, match="the input was not a complex"):
        minimize(C)
    assert check_exactness_on_box(C, MonomialIdeal(3, [X1, X2, X3])).failures == [(-1, None)]


def test_exactness_examples():
    I = MonomialIdeal(2, [(1, 0), (0, 1)])
    K = taylor_complex([(1, 0), (0, 1)], 2)
    assert check_exactness_on_box(K, I).ok
    # A duplicated generator still gives a resolution.
    dup = taylor_complex([(1, 0), (1, 0)], 2)
    assert check_exactness_on_box(dup, MonomialIdeal(2, [(1, 0)])).ok


def test_exactness_detects_corrupted_sign():
    I = MonomialIdeal(2, [(1, 0), (0, 1)])
    K = taylor_complex([(1, 0), (0, 1)], 2)
    # Flip one sign inside d_2: x1 e2 + x2 e1 no longer maps onto the syzygy.
    col = differential(K, 2)[0]
    flipped = ModuleVector(2, {key: (c if key[0] == 0 else -c)
                               for key, c in col.items()})
    broken = complex_of(2, K.bases, [differential(K, 1), [flipped]])
    report = check_exactness_on_box(broken, I)
    assert not report.ok
    assert report.failures


TRUNCATED_GENS = [(2, 0, 1), (1, 1, 0), (0, 2, 1)]


def _truncated_taylor(scale=1):
    """The Taylor complex of TRUNCATED_GENS without the first basis element
    of F_2, with every column of d_1 scaled."""
    C = taylor_complex(TRUNCATED_GENS, 3)
    F2 = OrderedBasis(3, C.basis(2).elements[1:])
    return complex_of(3, [C.basis(0), C.basis(1), F2],
                      [[_scaled(col, scale) for col in differential(C, 1)],
                       differential(C, 2)[1:]])


def _truncated_taylor_report(scale=1):
    return check_exactness_on_box(_truncated_taylor(scale), MonomialIdeal(3, TRUNCATED_GENS))


def test_exactness_failures_of_a_truncated_taylor_complex():
    # Dropping a basis element of F_2 leaves H_1 nonzero at one degree of
    # the lcm closure, the 4th of its 7 in lex order.  The certificate
    # reports it, as the first failure of the reference's exhaustive walk,
    # and checks no degree after it.
    report = _truncated_taylor_report()
    every = reference_exactness(_truncated_taylor(), MonomialIdeal(3, TRUNCATED_GENS),
                                exhaustive=True)
    assert not report.ok
    assert report.failures == every.failures[:1] == [(1, (1, 2, 1))]
    assert (report.degrees_checked, every.degrees_checked) == (4, 7)


def test_exactness_reports_the_level_the_exact_ranks_find():
    # Scaling d_1 by P kills it mod P, so a modular rank would blame level 0;
    # the exact ranks clear level 0 and fail at level 1.
    report = _truncated_taylor_report(scale=(1 << 61) - 1)
    assert not report.ok
    assert report.failures == [(1, (1, 2, 1))]
    assert report.degrees_checked == 4


def test_exactness_module_rank_is_exact():
    # P * x e_1 vanishes mod P, so a modular rank of the module would read 1
    # at degree x and hide that the cokernel differs from the module.
    P = (1 << 61) - 1
    F0 = OrderedBasis(1, [BasisElement((0,)), BasisElement((0,))])
    F1 = OrderedBasis(1, [BasisElement((1,))])
    D = FreeComplex(1, [F0, F1], [[{0: 1}]])
    report = check_exactness_on_box(D, ([{0: 1}, {1: P}], [(1,), (1,)]))
    assert not report.ok
    assert report.failures == [(0, (1,))]


def test_exactness_confirms_modular_failures_exactly():
    # Scaling d_2 by P kills it mod P; the exact ranks clear the degree.
    P = (1 << 61) - 1
    K = taylor_complex([(1, 0), (0, 1)], 2)
    scaled = complex_of(2, K.bases, [differential(K, 1),
                                     [_scaled(differential(K, 2)[0], P)]])
    report = check_exactness_on_box(scaled, MonomialIdeal(2, [(1, 0), (0, 1)]))
    assert report.ok and report.degrees_checked == 4


def test_exactness_is_checked_beyond_the_complex_degrees():
    # The Taylor complex of x has cokernel S/(x), not S/(x, y^9); the only
    # witness lies above every basis degree, at the module generator y^9.
    C = taylor_complex([(1, 0)], 2)
    report = check_exactness_on_box(C, ([{0: 1}, {0: 1}], [(1, 0), (0, 9)]))
    assert not report.ok
    assert report.failures == [(0, (0, 9))]


@pytest.mark.parametrize("module, message", [
    (([{0: 1}], [(1, 0), (0, 9)]), "the module has 1 columns, expected 2"),
    (([{1: 1}], [(1, 0)]), "the module: column 0 has position 1, outside a basis of rank 1"),
    (([{0: 2.0}], [(1, 0)]),
     "the module: column 0 has coefficient 2.0 at position 0, not a nonzero int or Fraction"),
], ids=["count", "position", "float"])
def test_exactness_refuses_module_rows_that_are_no_module(module, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_exactness_on_box(taylor_complex([(1, 0)], 2), module)


def _image_row(C, p, w, a):
    """The row of d_p(w), for the row w of degree a, by apply_columns on the
    vector of w and d_p's columns."""
    v = row_vectors([w], [a], C.basis(p))[0]
    (row,), _ = scalar_rows([apply_columns(differential(C, p), v, C.n)], C.basis(p - 1))
    return row


def test_lift_by_slice():
    # The fallback of the lifter: division of a row by a Groebner basis of
    # the tagged columns.
    from syzdepth.complexes import _lift_by_groebner

    C = taylor_complex([(2, 0, 1), (1, 1, 0), (0, 2, 1)], 3)
    top = (2, 2, 1)
    for p in range(1, C.length + 1):
        z = _image_row(C, p, {j: j + 1 for j in range(C.rank(p))}, top)
        assert _image_row(C, p, _lift_by_groebner(C, p, z, top), top) == z
    with pytest.raises(RuntimeError, match="lifting failed"):
        _lift_by_groebner(C, 1, {0: 1}, (1, 0, 0))


def test_a_lift_above_the_top_level_fails_as_not_exact():
    # F has no level 1, so no nonzero row is a boundary there: the lift of
    # the cone step, and its fallback, report the complex as not exact.
    from syzdepth.complexes import _lift_by_groebner

    F = FreeComplex(2, [OrderedBasis(2, [BasisElement((0, 0))])], [])
    message = "lifting failed at homological degree 1: the complex is not exact there"
    with pytest.raises(RuntimeError, match=message):
        comparison_cone(F, [(1, 0)], (0, 1))
    with pytest.raises(RuntimeError, match=message):
        _lift_by_groebner(F, 1, {0: 1}, (1, 1))
    assert complexes._Lifter(F, 1).lift({}, (1, 1)) == {}


def _fallback_case():
    """(C, p, z, a): a boundary z of degree a, as a row, whose division by
    the columns of the minimized d_p leaves a remainder.  z is the boundary
    of sum_j (j + 1) x^(a - deg e_j) e_j over the e_j of F_p."""
    C = minimize(taylor_complex([(2, 2, 0), (1, 2, 2), (2, 0, 3)], 3))
    p, a = 2, (2, 2, 3)
    return C, p, _image_row(C, p, {j: j + 1 for j in range(C.rank(p))}, a), a


def test_lift_through_uses_the_groebner_fallback(monkeypatch):
    # The division of z by d_p's columns leaves a remainder, so the lifter
    # hands the row z to the fallback, once.
    C, p, z, a = _fallback_case()
    divisors = [(col, leading_term(col)) for col in differential(C, p) if not col.is_zero()]
    assert not _divide(row_vectors([z], [a], C.basis(p - 1))[0], divisors)[1].is_zero()
    calls = []
    fallback = complexes._lift_by_groebner
    monkeypatch.setattr(complexes, "_lift_by_groebner",
                        lambda *args: calls.append(args) or fallback(*args))
    w = complexes._Lifter(C, p).lift(z, a)
    assert calls == [(C, p, z, a)]
    assert _image_row(C, p, w, a) == z


@st.composite
def lift_cases(draw):
    """(C, p, z, a, boundary): a Taylor complex or its minimisation (n <= 4,
    m <= 5, exponents <= 2), a level p >= 1 and a row z on F_(p-1) of a
    degree a above an lcm of F_p's basis degrees.  z is the boundary of a
    drawn row of F_p of degree a (boundary is True) or a drawn row of
    F_(p-1) of degree a."""
    n = draw(st.integers(1, 4))
    mono = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    C = taylor_complex(draw(st.lists(mono, min_size=1, max_size=5)), n)
    if draw(st.booleans()):
        C = minimize(C)
    p = draw(st.integers(1, C.length))
    degrees = C.basis(p).degrees
    chosen = draw(st.lists(st.sampled_from(degrees), min_size=1, max_size=3))
    a = tuple(x + draw(st.integers(0, 1)) for x in functools.reduce(lcm, chosen))
    coeffs = st.sampled_from([-2, -1, 1, 3, Fraction(2, 3)])
    level = p if draw(st.booleans()) else p - 1
    below = [j for j, e in enumerate(C.basis(level)) if divides(e.degree, a)]
    v = {}
    if below:
        for j in draw(st.lists(st.sampled_from(below), min_size=1, unique=True)):
            v[j] = draw(coeffs)
    z = _image_row(C, p, v, a) if level == p else v
    return C, p, z, a, level == p


def _in_image(C, p, z, a):
    """Oracle: the row z of degree a is in the image of d_p exactly when
    adding its vector to the degree-a slice of the columns leaves the rank
    unchanged."""
    columns = list(differential(C, p))
    slices = RankSlices(columns + row_vectors([z], [a], C.basis(p - 1)), C.basis(p - 1),
                        list(C.basis(p).degrees) + [a])
    mask = slices.active(a)
    return slices.rank(mask) == slices.rank(mask & ~(1 << len(columns)))


@settings(max_examples=80, deadline=None)
@given(lift_cases())
@example(_fallback_case() + (True,))
def test_lift_by_groebner_lifts_exactly_the_boundaries(case):
    from syzdepth.complexes import _lift_by_groebner

    C, p, z, a, boundary = case
    if not z:
        return
    in_image = _in_image(C, p, z, a)
    assert in_image or not boundary
    if in_image:
        w = _lift_by_groebner(C, p, z, a)
        assert _image_row(C, p, w, a) == z
        assert all(divides(C.basis(p).degree(j), a) for j in w)
    else:
        with pytest.raises(RuntimeError, match=f"lifting failed at homological degree {p}: "
                           "the complex is not exact there"):
            _lift_by_groebner(C, p, z, a)


@settings(max_examples=80, deadline=None)
@given(lift_cases())
@example(_fallback_case() + (True,))
def test_lift_through_matches_the_column_reference(case):
    # The lifter's row is the row of the parent's vector lift_through, term
    # for term with its coefficient types, fallback included; an element
    # outside the image fails in both.
    C, p, z, a, _ = case
    if _in_image(C, p, z, a) or not z:
        (expected,), _ = scalar_rows(
            [reference_lift_through(C, p, row_vectors([z], [a], C.basis(p - 1))[0])],
            C.basis(p))
        w = complexes._Lifter(C, p).lift(z, a)
        assert [(k, c, type(c)) for k, c in w.items()] == \
            [(k, c, type(c)) for k, c in expected.items()]
    else:
        with pytest.raises(RuntimeError, match="lifting failed"):
            complexes._Lifter(C, p).lift(z, a)


def test_complex_json_roundtrip_shape():
    C = taylor_complex([(1, 0), (0, 1)], 2)
    data = json.loads("".join(complex_json(C)))
    assert data["ranks"] == [1, 2, 1]
    assert data["degrees"][1] == [[0, 1], [1, 0]]
    entry = data["differentials"][0][0][0][0]
    assert set(entry) == {"coeff", "monomial"}
    assert entry["coeff"] in {"1", "-1"}


def test_random_complexes_are_complexes_and_exact():
    for trial in range(6):
        rng = trial_rng(99, trial)
        I = random_monomial_ideal(rng, 3, 4, 2)
        C = taylor_complex(list(I.gens), I.n)
        assert check_complex(C)
        assert check_exactness_on_box(C, I).ok


# ---------------------------------------------------------------------------
# The box walks the lcm-closure walks replaced, kept as references.


def reference_box_walk(C, module_gens, box, exhaustive=False):
    if not check_complex(C):
        return ExactnessReport(False, failures=[(-1, None)])
    if isinstance(module_gens, MonomialIdeal):
        if len(C.basis(0)) != 1:
            raise ValueError("monomial-ideal comparison expects a rank-one F_0")
        module_gens = [ModuleVector(C.n, {(0, u): 1}) for u in module_gens.gens]
    module_gens = list(module_gens)
    module = RankSlices(module_gens + list(differential(C, 1)), C.basis(0))
    own = (1 << len(module_gens)) - 1
    for j, col in enumerate(differential(C, 1)):
        mask = module.active(C.basis(1).degree(j)) & own
        if module.rank(mask) != module.rank(mask | 1 << (len(module_gens) + j)):
            return ExactnessReport(False, failures=[(0, None)])

    length = C.length
    diffs = [RankSlices(differential(C, p), C.basis(p - 1), C.basis(p).degrees)
             for p in range(1, length + 1)]

    def failing_level(module_rank, masks):
        ranks = [diff.rank(mask) for diff, mask in zip(diffs, masks)] + [0]
        if ranks[0] != module_rank:
            return 0
        for p in range(1, length + 1):
            if ranks[p - 1] + ranks[p] != masks[p - 1].bit_count():
                return p
        return None

    report = ExactnessReport(True)
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


def reference_slice_box_walk(gens, initial, box):
    span = RankSlices(gens, initial.basis)
    monomial = RankSlices([ModuleVector(initial.basis.n, {(j, u): 1})
                           for j, ideal in enumerate(initial.components) for u in ideal.gens],
                          initial.basis)
    for a in itertools.product(*(range(b + 1) for b in box)):
        if span.rank(span.active(a)) != monomial.rank(monomial.active(a)):
            return False, a
    return True, None


def _lcm_of(degrees, n):
    return functools.reduce(lcm, degrees, unit(n))


def _covering_box(degrees, n):
    """A box holding [0, lcm(degrees)], so the box walk sees the closure."""
    return tuple(e + 1 for e in _lcm_of(degrees, n))


def _replace_column(C, p, j, column):
    diffs = [list(differential(C, q)) for q in range(1, C.length + 1)]
    diffs[p - 1][j] = column
    return complex_of(C.n, C.bases, diffs)


@st.composite
def ideals(draw):
    """An ideal with n <= 4, at most 5 generators and exponents <= 3."""
    n = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    return MonomialIdeal(n, draw(st.lists(exponents, min_size=1, max_size=5)))


@st.composite
def damaged_complexes(draw):
    """(complex, ideal): the Taylor complex of the ideal, its minimization, or
    its truncation at some level p with one basis element of F_p dropped;
    then possibly one column scaled by 0 or 2, or one of its signs flipped."""
    I = draw(ideals())
    n = I.n
    C = taylor_complex(list(I.gens), n)
    kind = draw(st.sampled_from(["taylor", "minimized", "truncated"]))
    if kind == "minimized":
        C = minimize(C)
    elif kind == "truncated":
        p = draw(st.integers(1, C.length))
        k = draw(st.integers(0, C.rank(p) - 1))
        elements = C.basis(p).elements
        top = OrderedBasis(n, elements[:k] + elements[k + 1:])
        cols = differential(C, p)
        C = complex_of(n, C.bases[:p] + (top,),
                       [differential(C, q) for q in range(1, p)] + [cols[:k] + cols[k + 1:]])
    damage = draw(st.sampled_from(["none", "scale 0", "scale 2", "flip"]))
    p = draw(st.integers(1, C.length))
    if damage != "none" and C.rank(p):
        j = draw(st.integers(0, C.rank(p) - 1))
        col = differential(C, p)[j]
        if damage == "flip":
            first = min(key for key, _ in col.items())
            col = ModuleVector(n, {key: (-c if key == first else c) for key, c in col.items()})
        else:
            col = _scaled(col, int(damage[-1]))
        C = _replace_column(C, p, j, col)
    return C, I


@settings(max_examples=200, deadline=None)
@given(damaged_complexes())
@example((_truncated_taylor(), MonomialIdeal(3, TRUNCATED_GENS)))
@example((taylor_complex([(1, 0)], 2), MonomialIdeal(2, [(1, 0), (0, 9)])))
def test_closure_walk_agrees_with_the_box_walk(case):
    # Same verdict and first failure.  The box walk's first failing degree a
    # is its own representative lcm{d in D : d | a}, so it is a closure
    # degree, the first of the box walk's failures at closure degrees.
    C, I = case
    n = C.n
    degrees = list(I.gens) + [d for basis in C.bases[1:] for d in basis.degrees]
    closure = set(lcm_closure(degrees, n))
    box = _covering_box(degrees, n)
    first, ref_first = check_exactness_on_box(C, I), reference_box_walk(C, I, box)
    assert (first.ok, first.failures) == (ref_first.ok, ref_first.failures)
    ref_every = reference_box_walk(C, I, box, exhaustive=True)
    assert first.failures == [(p, a) for p, a in ref_every.failures
                              if a is None or a in closure][:1]
    for p, a in first.failures:
        assert a is None or _lcm_of([d for d in degrees if divides(d, a)], n) == a


def _reference_apply(columns, v, n):
    """Image of v as apply_columns once built it: one vector sum per term,
    here the constructor's normalising sum of every term in turn."""
    return ModuleVector(n, [((r, mul(mono, m)), coeff * c)
                            for (pos, mono), coeff in v.items()
                            for (r, m), c in columns[pos].items()])


def reference_check_complex(C):
    """check_complex with d_{p-1}(d_p(e_j)) built by vector arithmetic."""
    for p in range(1, C.length + 1):
        for j, col in enumerate(differential(C, p)):
            if not col.is_zero() and \
                    multidegree_of(col, C.basis(p - 1)) != C.basis(p).degree(j):
                return False
        if p >= 2:
            for j in range(C.rank(p)):
                image = _reference_apply(
                    differential(C, p - 1),
                    _reference_apply(differential(C, p), ModuleVector(C.n, {(j, unit(C.n)): 1}),
                                     C.n),
                    C.n)
                if not image.is_zero():
                    return False
    return True


KOSZUL3 = taylor_complex([X1, X2, X3], 3)
_FLIPPED_D2 = ModuleVector(3, {key: (-c if k == 0 else c)
                               for k, (key, c) in enumerate(differential(KOSZUL3, 2)[2].items())})


@settings(max_examples=200, deadline=None)
@given(damaged_complexes())
@example((KOSZUL3, MonomialIdeal(3, [X1, X2, X3])))
@example((_replace_column(KOSZUL3, 2, 2, _FLIPPED_D2), MonomialIdeal(3, [X1, X2, X3])))
def test_check_complex_agrees_with_the_vector_reference(case):
    # Same verdict as composing through vectors, and apply_columns gives the
    # reference image term for term, in the same order.
    C, _ = case
    assert check_complex(C) == reference_check_complex(C)
    for p in range(2, C.length + 1):
        for col in differential(C, p):
            assert list(apply_columns(differential(C, p - 1), col, C.n).items()) == \
                list(_reference_apply(differential(C, p - 1), col, C.n).items())


def _with_row(C, p, j, row):
    """C with the row of column j of d_p replaced."""
    rows = [list(C._level(q)[1]) for q in range(1, C.length + 1)]
    rows[p - 1][j] = row
    return FreeComplex(C.n, C.bases, rows)


def test_check_complex_rejects_a_flipped_sign_and_a_mixed_column():
    # A mixed column cannot be written as a row; its row form, an entry at
    # a position whose degree does not divide the column's, never reaches
    # check_complex: the constructor refuses it.  Column 0 of d_2 has
    # degree x2x3, and position 2 of F_1 degree x1.
    assert check_complex(KOSZUL3)
    assert not check_complex(_replace_column(KOSZUL3, 2, 2, _FLIPPED_D2))
    assert KOSZUL3.basis(2).degree(0) == (0, 1, 1) and KOSZUL3.basis(1).degree(2) == X1
    with pytest.raises(ValueError, match=r"^differential 2: column 0 has degree \(0, 1, 1\), "
                                         r"which the degree \(1, 0, 0\) of position 2 "
                                         "does not divide$"):
        _with_row(KOSZUL3, 2, 0, {**KOSZUL3._level(2)[1][0], 2: 1})


# Columns the constructor refuses, each with its message: x3 e_2 - x1 e_1
# in d_2, of degrees x2 x3 and x1 x3, written as the row of column 0, of
# degree x2 x3, with an entry at e_1 of degree x1; a zero entry, which
# minimize would divide by; and a float entry, which is not exact.
REFUSED_COLUMNS = {
    "mixed-d2": (lambda: _with_row(KOSZUL3, 2, 0, {0: 1, 2: -1}),
                 "differential 2: column 0 has degree (0, 1, 1), which the degree "
                 "(1, 0, 0) of position 2 does not divide"),
    "zero-entry": (lambda: _with_row(KOSZUL3, 1, 1, {0: 0}),
                   "differential 1: column 1 has coefficient 0 at position 0, "
                   "not a nonzero int or Fraction"),
    "float-entry": (lambda: _with_row(KOSZUL3, 3, 0, {0: 1, 1: -1.0, 2: 1}),
                    "differential 3: column 0 has coefficient -1.0 at position 1, "
                    "not a nonzero int or Fraction"),
}


@pytest.mark.parametrize("case", REFUSED_COLUMNS)
def test_constructor_refuses_a_column_off_its_degree(case):
    build, message = REFUSED_COLUMNS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def _scale_level(C, p, factor):
    diffs = [list(differential(C, q)) for q in range(1, C.length + 1)]
    diffs[p - 1] = [_scaled(col, factor) for col in diffs[p - 1]]
    return complex_of(C.n, C.bases, diffs)


KOSZUL3_TWO_THIRDS = _scale_level(KOSZUL3, 2, Fraction(2, 3))


def test_check_complex_on_non_integral_coefficients():
    # d_2 with its columns scaled by 2/3 still composes to zero with d_1 and
    # d_3, and the complex stays exact; one entry moved by 1/7 breaks d o d.
    C = KOSZUL3_TWO_THIRDS
    assert {c for col in differential(C, 2) for _, c in col.items()} == \
        {Fraction(2, 3), Fraction(-2, 3)}
    assert check_complex(C) and reference_check_complex(C)
    assert check_exactness_on_box(C, MonomialIdeal(3, [X1, X2, X3])).ok
    col = differential(C, 2)[0]
    key, c = next(iter(col.items()))
    damaged = _replace_column(C, 2, 0, ModuleVector(3, {**dict(col.items()),
                                                        key: c + Fraction(1, 7)}))
    assert not check_complex(damaged) and not reference_check_complex(damaged)
    # F_1 rescaled by 1/2, 1/3 and 1/5: d_1 then holds those Fractions and
    # d_2 the ints 2, 3 and 5 up to sign, and d o d cancels only when the
    # ints and the Fractions are summed exactly together.
    rescaled = _rescale_basis(KOSZUL3, 1, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])
    assert check_complex(rescaled)


nonzero_fractions = st.fractions(-5, 5, max_denominator=9).filter(bool)


@settings(max_examples=100, deadline=None)
@given(damaged_complexes(), st.booleans(), st.data())
def test_check_complex_agrees_with_the_vector_reference_on_fractions(case, rescale, data):
    # Rescaling the basis of one F_p by fractions keeps d o d = 0 or not as
    # it was, with denominators that differ from column to column; scaling
    # one column of d_p by a fraction in general breaks d_p o d_{p+1}.
    C, _ = case
    p = data.draw(st.integers(1, C.length))
    if rescale:
        factors = st.lists(nonzero_fractions, min_size=C.rank(p), max_size=C.rank(p))
        C = _rescale_basis(C, p, data.draw(factors))
    elif C.rank(p):
        j = data.draw(st.integers(0, C.rank(p) - 1))
        C = _replace_column(C, p, j, _scaled(differential(C, p)[j], data.draw(nonzero_fractions)))
    assert check_complex(C) == reference_check_complex(C)


def reference_complex_to_jsonable(C):
    """The JSON value complex_json writes, as complex_to_jsonable read when
    each cell rescanned its column."""
    differentials = []
    for p in range(1, C.length + 1):
        matrix = []
        for r in range(C.rank(p - 1)):
            row = []
            for c in range(C.rank(p)):
                entry = [{"coeff": str(coeff), "monomial": list(mono)}
                         for (pos, mono), coeff in differential(C, p)[c].items()
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


@st.composite
def serialised_complexes(draw):
    """Taylor, minimized, Eliahou-Kervaire or taylor_step_cone complexes,
    with one column possibly scaled by a non-integral fraction."""
    kind = draw(st.sampled_from(["taylor", "minimized", "ek", "cone"]))
    if kind == "ek":
        n = draw(st.integers(1, 3))
        gens = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n).filter(any),
                             min_size=1, max_size=3))
        C = eliahou_kervaire(stable_closure(MonomialIdeal(n, gens)))
    else:
        I = draw(ideals())
        gens = list(I.gens)
        if kind == "cone" and len(gens) >= 2:
            C, _ = taylor_step_cone(gens, I.n)
        else:
            C = taylor_complex(gens, I.n)
            if kind == "minimized":
                C = minimize(C)
    if C.length and draw(st.booleans()):
        p = draw(st.integers(1, C.length))
        if C.rank(p):
            j = draw(st.integers(0, C.rank(p) - 1))
            C = _replace_column(C, p, j, _scaled(differential(C, p)[j], draw(nonzero_fractions)))
    return C


# A level of rank zero gives rows without cells, and a complex of length
# zero no differentials.
EMPTY_LEVEL = FreeComplex(
    1, [OrderedBasis(1, [BasisElement((0,)), BasisElement((1,))]), OrderedBasis(1, [])], [[]])
LENGTH_ZERO = FreeComplex(3, [OrderedBasis(3, [BasisElement((0, 0, 0))])], [])


@settings(max_examples=100, deadline=None)
@given(serialised_complexes())
@example(KOSZUL3_TWO_THIRDS)
@example(taylor_complex([(2, 1)], 2))
@example(EMPTY_LEVEL)
@example(LENGTH_ZERO)
def test_complex_to_jsonable_matches_the_cell_by_cell_reference(C):
    # complex_json at the indent of resolve's payload.
    assert "".join(complex_json(C)) == _dumps(reference_complex_to_jsonable(C), _INDENT)


def reference_is_minimal(C):
    """is_minimal as it read the view: no entry has a nonzero constant term."""
    zero = unit(C.n)
    for p in range(1, C.length + 1):
        for col in differential(C, p):
            for (_, mono), coeff in col.items():
                if mono == zero and coeff:
                    return False
    return True


@settings(max_examples=100, deadline=None)
@given(serialised_complexes())
@example(taylor_complex(PATH7_ODD_FIRST, 7))
@example(minimize(taylor_complex(PATH7_ODD_FIRST, 7)))
@example(taylor_step_cone(PATH7_ODD_FIRST, 7)[0])
@example(EMPTY_LEVEL)
@example(LENGTH_ZERO)
def test_is_minimal_reads_the_rows_as_the_view_reads(C):
    # is_minimal reads the rows; the reference reads them as vectors.
    assert is_minimal(C) == reference_is_minimal(C)


@settings(max_examples=150, deadline=None)
@given(ideals(), st.booleans(), st.data())
def test_slice_check_closure_walk_agrees_with_the_box_walk(I, minimized, data):
    C = taylor_complex(list(I.gens), I.n)
    if minimized:
        C = minimize(C)
    p = data.draw(st.integers(0, C.length - 1))
    ini, (span_rows, span_degrees) = lex_refined_initial(C, p)
    gens = row_vectors(span_rows, span_degrees, ini.basis)
    variants = [ini]
    nonzero = ini.nonzero_components()
    if nonzero:
        j, ideal = data.draw(st.sampled_from(nonzero))
        k = data.draw(st.integers(0, len(ideal.gens) - 1))
        dropped = MonomialIdeal(I.n, ideal.gens[:k] + ideal.gens[k + 1:])
        variants.append(InitialModule(ini.basis, ini.components[:j] + (dropped,)
                                      + ini.components[j + 1:]))
    # Over-claimed: a generator added to a component, a minimal generator
    # divided by one of its variables or any monomial, so that the initial
    # module is larger than the span in some degree.
    j = data.draw(st.integers(0, len(ini.basis) - 1))
    ideal = ini.components[j]
    divisible = [u for u in ideal.gens if any(u)]
    if divisible and data.draw(st.booleans()):
        u = data.draw(st.sampled_from(divisible))
        i = data.draw(st.sampled_from([i for i, e in enumerate(u) if e]))
        added = tuple(e - (k == i) for k, e in enumerate(u))
    else:
        added = data.draw(st.tuples(*[st.integers(0, 3)] * I.n))
    variants.append(InitialModule(ini.basis, ini.components[:j]
                                  + (MonomialIdeal(I.n, ideal.gens + (added,)),)
                                  + ini.components[j + 1:]))
    assert hilbert_slice_check(span_rows, span_degrees, ini) == (True, None)
    for initial in variants:
        degrees = [multidegree_of(g, ini.basis) for g in gens if not g.is_zero()]
        degrees += [mul(u, ini.basis.degree(j))
                    for j, ideal in enumerate(initial.components) for u in ideal.gens]
        box = _covering_box(degrees, I.n)
        assert hilbert_slice_check(span_rows, span_degrees, initial) == \
            reference_slice_box_walk(gens, initial, box)


# ---------------------------------------------------------------------------
# The scalar d o d check and the bounded walk down the closure tree, against
# the monomial sum and the lex walk with full ranks they replaced.


def _unchecked(C):
    """The same complex as a new object, which no check has marked."""
    return FreeComplex(C.n, C.bases, [C._level(p)[1] for p in range(1, C.length + 1)])


def _nonzero_columns(C):
    return [(p, j) for p in range(1, C.length + 1)
            for j, col in enumerate(differential(C, p)) if not col.is_zero()]


def _doubled(C):
    """The direct sum C + C: each level's basis twice, the columns of the
    second copy moved to the second copy's positions."""
    bases = [OrderedBasis(C.n, basis.elements * 2) for basis in C.bases]
    return complex_of(C.n, bases, [
        list(differential(C, p)) + [ModuleVector(C.n, {(pos + C.rank(p - 1), mono): c
                                                      for (pos, mono), c in col.items()})
                                   for col in differential(C, p)]
        for p in range(1, C.length + 1)])


@st.composite
def certified_complexes(draw):
    """(complex, module): a Taylor, Eliahou-Kervaire, minimized or
    taylor_step_cone complex and the ideal it should resolve, or the Taylor
    complex T of an ideal I doubled, T + T, and the module I + I given by
    the vectors u e_0 + c u e_1 and u e_1 for u in I, so that some rows have
    two entries; then possibly one damage: a flipped sign, a column scaled
    by 1/7 or by 2^61 - 1, a zeroed column, a dropped basis element of the
    top level, or one generator of the module changed, or dropped from the
    vectors."""
    kind = draw(st.sampled_from(["taylor", "ek", "minimized", "cone", "doubled"]))
    if kind == "ek":
        n = draw(st.integers(1, 3))
        gens = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n).filter(any),
                             min_size=1, max_size=3))
        I = stable_closure(MonomialIdeal(n, gens))
        C = eliahou_kervaire(I)
    else:
        I = draw(ideals())
        gens = list(I.gens)
        if kind == "cone" and len(gens) >= 2:
            C, _ = taylor_step_cone(gens, I.n)
        else:
            C = taylor_complex(gens, I.n)
            if kind == "minimized":
                C = minimize(C)
            elif kind == "doubled":
                C = _doubled(C)
                module = []
                for u in gens:
                    module.append(ModuleVector(I.n, {(0, u): Fraction(1),
                                                     (1, u): draw(nonzero_fractions)}))
                    module.append(ModuleVector(I.n, {(1, u): 1}))
    n = C.n
    damage = draw(st.sampled_from(["none", "flip", "1/7", "2^61 - 1", "zero", "drop top",
                                   "module"]))
    columns = _nonzero_columns(C)
    if damage in ("flip", "1/7", "2^61 - 1", "zero") and columns:
        p, j = draw(st.sampled_from(columns))
        col = differential(C, p)[j]
        if damage == "flip":
            first = min(key for key, _ in col.items())
            col = ModuleVector(n, {key: (-c if key == first else c) for key, c in col.items()})
        elif damage == "zero":
            col = ModuleVector(n)
        else:
            col = _scaled(col, Fraction(1, 7) if damage == "1/7" else (1 << 61) - 1)
        C = _replace_column(C, p, j, col)
    elif damage == "drop top" and C.length:
        L = C.length
        k = draw(st.integers(0, C.rank(L) - 1))
        elements = C.basis(L).elements
        cols = differential(C, L)
        C = complex_of(n, C.bases[:L] + (OrderedBasis(n, elements[:k] + elements[k + 1:]),),
                       [differential(C, q) for q in range(1, L)] + [cols[:k] + cols[k + 1:]])
    elif damage == "module" and kind == "doubled":
        del module[draw(st.integers(0, len(module) - 1))]
    elif damage == "module":
        gens = list(I.gens)
        k = draw(st.integers(0, len(gens) - 1))
        if draw(st.booleans()):
            gens[k] = mul(gens[k], variable(draw(st.integers(0, n - 1)), n))
        else:
            gens[k] = draw(st.tuples(*[st.integers(0, 3)] * n).filter(any))
        I = MonomialIdeal(n, gens)
    return C, (module if kind == "doubled" else I)


PATH9_ODD_FIRST = path_odd_first(9)


@settings(max_examples=200, deadline=None)
@given(certified_complexes())
@example((taylor_complex(PATH9_ODD_FIRST, 9), MonomialIdeal(9, PATH9_ODD_FIRST)))
@example((_truncated_taylor(), MonomialIdeal(3, TRUNCATED_GENS)))
@example((_truncated_taylor((1 << 61) - 1), MonomialIdeal(3, TRUNCATED_GENS)))
@example((taylor_complex([(1, 0)], 2), MonomialIdeal(2, [(1, 0), (0, 9)])))
def test_closure_tree_walk_agrees_with_the_lex_walk(case):
    # The same verdict, failure and degrees checked, and the failure is the
    # first of the reference's exhaustive walk; the first call checks the
    # complex and the second only reads it.  The library takes a module
    # given by vectors as their rows.
    C, I = case
    C = _unchecked(C)
    module = I if isinstance(I, MonomialIdeal) else scalar_rows(I, C.basis(0))
    ref = reference_exactness(C, I)
    every = reference_exactness(C, I, exhaustive=True)
    for _ in range(2):
        got = check_exactness_on_box(C, module)
        assert (got.ok, got.failures, got.degrees_checked) == \
            (ref.ok, ref.failures, ref.degrees_checked)
        assert got.failures == every.failures[:1]


@st.composite
def checked_complexes(draw):
    """A complex of certified_complexes, possibly with one level's basis
    rescaled by fractions, so that the rows mix coefficients read as ints
    and as Fractions."""
    C, _ = draw(certified_complexes())
    if C.length and draw(st.booleans()):
        p = draw(st.integers(1, C.length))
        C = _rescale_basis(C, p, draw(st.lists(nonzero_fractions, min_size=C.rank(p),
                                               max_size=C.rank(p))))
    return C


@settings(max_examples=200, deadline=None)
@given(checked_complexes())
@example(KOSZUL3_TWO_THIRDS)
@example(_rescale_basis(KOSZUL3, 1, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]))
def test_scalar_check_complex_agrees_with_the_monomial_sum(C):
    C = _unchecked(C)
    expected = reference_monomial_check_complex(C)
    assert check_complex(C) == expected
    # A pass is remembered, a failure is not.
    assert C._complex == expected
    assert check_complex(C) == expected


@settings(max_examples=150, deadline=None)
@given(certified_complexes(), st.data())
def test_constructor_refuses_exactly_the_columns_off_their_degree(case, data):
    # An entry added to the row of a column at any position, which the
    # column's degree need not allow: the constructor refuses the row
    # exactly when that position's degree does not divide the column's,
    # and a complex it builds is checked as the monomial sum checks it.
    C, _ = case
    columns = [(p, j) for p in range(1, C.length + 1) for j in range(C.rank(p))
               if C.rank(p - 1)]
    if not columns:
        return
    p, j = data.draw(st.sampled_from(columns))
    row = dict(C._level(p)[1][j])
    pos = data.draw(st.integers(0, C.rank(p - 1) - 1))
    linalg.add_scaled(row, data.draw(nonzero_fractions), {pos: 1})
    degree, target = C.basis(p).degree(j), C.basis(p - 1).degree(pos)
    if divides(target, degree) or pos not in row:
        D = _with_row(C, p, j, row)
        assert check_complex(D) == reference_monomial_check_complex(D)
        return
    with pytest.raises(ValueError, match=f"^differential {p}: column {j} has degree "
                                         f"{re.escape(str(degree))}, which the degree "
                                         f"{re.escape(str(target))} of position {pos} "
                                         "does not divide$"):
        _with_row(C, p, j, row)


def test_check_complex_runs_once_per_complex():
    C = _unchecked(KOSZUL3)
    broken = _replace_column(KOSZUL3, 2, 2, _FLIPPED_D2)
    with mock.patch.object(complexes, "_check_rows", wraps=complexes._check_rows) as full:
        assert check_complex(C) and check_complex(C)
        assert check_exactness_on_box(C, MonomialIdeal(3, [X1, X2, X3])).ok
        assert full.call_count == 1
        assert not check_complex(broken) and not check_complex(broken)
        assert full.call_count == 3
        M = minimize(_unchecked(KOSZUL3))
        assert full.call_count == 5
        assert check_exactness_on_box(M, MonomialIdeal(3, [X1, X2, X3])).ok
        assert full.call_count == 5


def test_certificate_finds_each_column_degree_once():
    # The constructor checks each level's rows against the basis degrees,
    # once, check_complex and the engines of the differentials take those
    # degrees, and the module's rows are checked once more when they are
    # given as rows; an ideal's generators u e_0 are unit rows at degree u.
    T = taylor_complex(PATH7_ODD_FIRST, 7)
    I = MonomialIdeal(7, PATH7_ODD_FIRST)
    module = ([{0: 1}] * len(I.gens), list(I.gens))
    with mock.patch.object(complexes, "check_rows", wraps=complexes.check_rows) as counter:
        C = _unchecked(T)
        assert check_exactness_on_box(C, module).ok
        assert [call.args[0] for call in counter.call_args_list] == \
            [f"differential {p}" for p in range(1, 7)] + ["the module"]
        counter.reset_mock()
        assert check_exactness_on_box(_unchecked(T), I).ok
    assert counter.call_count == 6


MAXIMAL7 = [variable(i, 7) for i in range(7)]


def test_certificate_reduces_under_half_the_rows_of_the_lex_walk(monkeypatch):
    # On the Taylor complex of the maximal ideal in 7 variables the lex walk
    # reduces 2,059 rows of the differentials and 462 of the module; the
    # walk down the closure tree, module included, fewer than 2,059 / 2.
    # The reference ranks with its own elimination, so both are counted.
    calls = []
    for module in (linalg, reference_slices):
        eliminate = module.eliminate
        monkeypatch.setattr(module, "eliminate", lambda pivots, row, eliminate=eliminate:
                            calls.append(row) or eliminate(pivots, row))
    I = MonomialIdeal(7, MAXIMAL7)
    assert reference_exactness(taylor_complex(MAXIMAL7, 7), I).ok
    assert len(calls) == 2059 + 462
    calls.clear()
    assert check_exactness_on_box(taylor_complex(MAXIMAL7, 7), I).ok
    assert len(calls) < 2059 / 2


def test_each_check_walks_one_engine(monkeypatch):
    # The certificate files the module and every differential, and the
    # Hilbert-slice check the span and the initial module, as the blocks of
    # one freemod.Slices; the lists record the block count of each engine.
    built = []

    class Counted(freemod.Slices):
        def __init__(self, blocks, n):
            blocks = list(blocks)
            built.append(len(blocks))
            super().__init__(blocks, n)

    monkeypatch.setattr(complexes, "Slices", Counted)
    monkeypatch.setattr(groebner, "Slices", Counted)
    gens = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    C = taylor_complex(gens, 3)
    assert check_exactness_on_box(C, MonomialIdeal(3, gens)).ok
    assert built == [C.length + 1]
    built.clear()
    rows, degrees = complexes.syzygy_rows(C, 1)
    ini = groebner.initial_module(rows, degrees, C.basis(1))
    assert hilbert_slice_check(rows, degrees, ini) == (True, None)
    assert built == [2]
