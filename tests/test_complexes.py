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

from syzdepth.cli import _INDENT, _dumps
from syzdepth.complexes import (
    RESOLUTIONS,
    ChainMap,
    ExactnessReport,
    FreeComplex,
    check_complex,
    check_exactness_on_box,
    complex_json,
    eliahou_kervaire,
    is_minimal,
    is_stable,
    linear_quotients,
    mapping_cone,
    minimize,
    stable_closure,
    stable_order,
    syzygy_generators,
    taylor_complex,
)
from syzdepth import complexes, linalg
from syzdepth.freemod import (BasisElement, ModuleVector, OrderedBasis, Slices, add_multiple,
                              multidegree_of)
from syzdepth.groebner import InitialModule, hilbert_slice_check
from syzdepth.instances import random_monomial_ideal, trial_rng
from syzdepth.monomials import (MonomialIdeal, divides, lcm, lcm_closure, minimalize_ordered,
                                mul, unit, variable)
from syzdepth.syzygy import lex_refined_initial
from syzdepth.verify import taylor_step_cone

X1, X2, X3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def koszul(gens, n):
    """The complex of the koszul method on the sequence."""
    return RESOLUTIONS["koszul"].build(MonomialIdeal(n, gens), gens)


def test_taylor_single_generator():
    C = taylor_complex([(2, 0)], 2)
    assert C.ranks == (1, 1)
    assert C.basis(1).degrees == ((2, 0),)
    col = C.differential(1)[0]
    assert col == ModuleVector(2, {(0, (2, 0)): Fraction(1)})


def test_taylor_regular_sequence_is_koszul():
    T = taylor_complex([X1, X2, X3], 3)
    K = koszul([X1, X2, X3], 3)
    assert T.ranks == (1, 3, 3, 1)
    for p in range(1, 4):
        assert T.differential(p) == K.differential(p)
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
    return FreeComplex(n, bases, diffs)


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
        for col, ref in zip(C.differential(p), R.differential(p), strict=True):
            assert list(col.items()) == list(ref.items())
            assert [type(c) for _, c in col.items()] == [type(c) for _, c in ref.items()]


def assert_same_basis(C, R, p):
    assert [(e.degree, e.label) for e in C.basis(p)] == [(e.degree, e.label) for e in R.basis(p)]


def assert_same_columns(C, R, p):
    for col, ref in zip(C.differential(p), R.differential(p), strict=True):
        assert list(col.items()) == list(ref.items())
        assert [type(c) for _, c in col.items()] == [type(c) for _, c in ref.items()]


@settings(max_examples=60, deadline=None)
@given(taylor_inputs(), st.data())
def test_taylor_levels_are_made_on_first_read(case, data):
    gens, n = case
    m = len(gens)
    R = reference_taylor_complex(gens, n)
    # Each level makes one OrderedBasis, so the calls count the levels made.
    with mock.patch("syzdepth.complexes.OrderedBasis", wraps=OrderedBasis) as made:
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
                    levels.add(p)
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
    col = C.differential(3)[0]
    assert col.coefficient(positions[frozenset({1, 2})], (0, 0, 0)) == 1


def test_koszul_warns_on_irregular():
    with pytest.warns(UserWarning, match="regular"):
        koszul([(1, 1, 0), (0, 1, 1)], 3)


def test_koszul_signs():
    C = koszul([(1, 0), (0, 1)], 2)
    col = C.differential(2)[0]
    labels = {e.label: i for i, e in enumerate(C.basis(1))}
    # d(e_12) = x1 e_2 - x2 e_1 with the printed sign convention.
    assert col.coefficient(labels[frozenset({2})], (1, 0)) == 1
    assert col.coefficient(labels[frozenset({1})], (0, 1)) == -1


def test_koszul_ranks_binomial():
    C = koszul([X1, X2, X3], 3)
    assert C.ranks == (1, 3, 3, 1)
    C2 = koszul([(2, 0), (0, 3)], 2)
    assert is_minimal(C2)


def test_smallest_mapping_cone():
    n = 2
    F = FreeComplex(n, [OrderedBasis(n, [BasisElement((0, 0))])], [])
    G = FreeComplex(n, [OrderedBasis(n, [BasisElement((1, 1))])], [])
    phi = ChainMap(G, F, [[ModuleVector(n, {(0, (1, 1)): Fraction(1)})]])
    C = mapping_cone(phi)
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
    assert cone.differential(1) == T.differential(1)
    # Level two agrees up to the sign of the cone's shifted basis element.
    assert cone.differential(2)[0] == -T.differential(2)[0]


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
        slices = Slices(gens, basis)
        return slices.rank(slices.active(a))

    for gens, n in [([(2, 0), (1, 1), (0, 2)], 2),
                    ([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3)]:
        cone, phi = taylor_step_cone(gens, n)
        G, F = phi.source, phi.target
        box = [1 + max(e.degree[i] for basis in cone.bases for e in basis)
               for i in range(n)]
        for i in range(1, cone.length + 1):
            zc = syzygy_generators(cone, i)
            zf = syzygy_generators(F, i) if i <= F.length else []
            zg = list(G.differential(i)) if i <= G.length else []
            for a in itertools.product(*(range(b + 1) for b in box)):
                left = dimension(zc, a, cone.basis(i)) if zc else 0
                right = (dimension(zf, a, F.basis(i)) if zf else 0) + \
                        (dimension(zg, a, G.basis(i - 1)) if zg else 0)
                assert left == right, (gens, i, a)


def test_noncommuting_chain_map_rejected():
    n = 1
    F = FreeComplex(n, [OrderedBasis(n, [BasisElement((0,))]),
                        OrderedBasis(n, [BasisElement((1,))])],
                    [[ModuleVector(n, {(0, (1,)): Fraction(1)})]])
    G = FreeComplex(n, [OrderedBasis(n, [BasisElement((1,))]),
                        OrderedBasis(n, [BasisElement((2,))])],
                    [[ModuleVector(n, {(0, (1,)): Fraction(1)})]])
    bad = ChainMap(G, F, [[ModuleVector(n, {(0, (1,)): Fraction(1)})],
                          [ModuleVector(n, {(0, (1,)): Fraction(2)})]])
    with pytest.raises(ValueError, match="commute"):
        mapping_cone(bad)


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
    K = taylor_complex([X1, X2, X3], 3)
    Z1 = syzygy_generators(K, 1)
    labels = {e.label: i for i, e in enumerate(K.basis(1))}
    expected = set()
    for (i, j) in [(1, 2), (1, 3), (2, 3)]:
        v = ModuleVector(3, {
            (labels[frozenset({j})], tuple(1 if k == i - 1 else 0 for k in range(3))): Fraction(1),
            (labels[frozenset({i})], tuple(1 if k == j - 1 else 0 for k in range(3))): Fraction(-1),
        })
        expected.add(frozenset(v.items()))
    assert {frozenset(v.items()) for v in Z1} == expected
    assert syzygy_generators(K, 3) == []
    with pytest.raises(ValueError):
        syzygy_generators(K, 0)


def test_minimize_examples():
    I = MonomialIdeal(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    C = taylor_complex(list(I.gens), 3)
    M = minimize(C)
    assert C.ranks == (1, 3, 3, 1)
    assert M.ranks == (1, 3, 2)
    assert is_minimal(M)
    assert check_exactness_on_box(M, I).ok
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
        assert M.basis(p).is_lex_refined()


def reference_minimize(C):
    """minimize as it read when the search for a unit started again at d_1
    after every cancellation and each row was found by scanning the terms
    of every column at levels p and p + 1."""
    n = C.n
    zero = unit(n)
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
    out = FreeComplex(n, new_bases, diffs)
    if not check_complex(out):
        raise RuntimeError("minimization broke the complex property")
    return out


def reference_monomial_check_complex(C):
    """check_complex as it read when d_{p-1}(d_p(e_j)) was summed into one
    {(position, monomial): c} dict, monomials and all."""
    below = None
    for p in range(1, C.length + 1):
        for j, col in enumerate(C.differential(p)):
            if not col.is_zero():
                d = multidegree_of(col, C.basis(p - 1))
                if d != C.basis(p).degree(j):
                    return False
        cols = [[(key, c.numerator if c.denominator == 1 else c) for key, c in col.items()]
                for col in C.differential(p)]
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
    lex order and took every rank in full, one Slices engine per
    differential, after reference_monomial_check_complex."""
    if not reference_monomial_check_complex(C):
        return ExactnessReport(False, failures=[(-1, None)])
    if isinstance(module_gens, MonomialIdeal):
        if len(C.basis(0)) != 1:
            raise ValueError("monomial-ideal comparison expects a rank-one F_0")
        module_gens = [ModuleVector.generator(C.n, 0, u) for u in module_gens.gens]
    module_gens = list(module_gens)
    module = Slices(module_gens + list(C.differential(1)), C.basis(0))
    own = (1 << len(module_gens)) - 1
    for j, col in enumerate(C.differential(1)):
        mask = module.active(C.basis(1).degree(j)) & own
        if module.rank(mask) != module.rank(mask | 1 << (len(module_gens) + j)):
            return ExactnessReport(False, failures=[(0, None)])

    length = C.length
    diffs = [Slices(C.differential(p), C.basis(p - 1), C.basis(p).degrees)
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
def test_minimize_matches_the_rescanning_reference(C):
    assert "".join(complex_json(minimize(C))) == "".join(complex_json(reference_minimize(C)))


def test_minimize_rejects_a_nonzero_composite():
    # d_1 o d_2 = x.  The unit of d_1 would be cancelled first, and the row
    # it leaves in d_2 is not zero.
    C = FreeComplex(1, [OrderedBasis(1, [BasisElement((0,))]),
                        OrderedBasis(1, [BasisElement((0,))]),
                        OrderedBasis(1, [BasisElement((1,))])],
                    [[ModuleVector.generator(1, 0)], [ModuleVector.generator(1, 0, (1,))]])
    with pytest.raises(RuntimeError, match="the input was not a complex"):
        minimize(C)


def test_minimize_rejects_two_terms_in_one_row():
    # The second column, 1 + x in row 0, is not multihomogeneous; the unit
    # of the first column would be cancelled against it.
    C = FreeComplex(1, [OrderedBasis(1, [BasisElement((0,))]),
                        OrderedBasis(1, [BasisElement((0,)), BasisElement((0,))])],
                    [[ModuleVector.generator(1, 0),
                      ModuleVector(1, {(0, (0,)): Fraction(1), (0, (1,)): Fraction(1)})]])
    with pytest.raises(RuntimeError, match="the input was not a complex"):
        minimize(C)


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
    col = K.differential(2)[0]
    flipped = ModuleVector(2, {key: (c if key[0] == 0 else -c)
                               for key, c in col.items()})
    broken = FreeComplex(2, K.bases, [K.differential(1), [flipped]])
    report = check_exactness_on_box(broken, I)
    assert not report.ok
    assert report.failures


TRUNCATED_GENS = [(2, 0, 1), (1, 1, 0), (0, 2, 1)]


def _truncated_taylor(scale=1):
    """The Taylor complex of TRUNCATED_GENS without the first basis element
    of F_2, with every column of d_1 scaled."""
    C = taylor_complex(TRUNCATED_GENS, 3)
    F2 = OrderedBasis(3, C.basis(2).elements[1:])
    return FreeComplex(3, [C.basis(0), C.basis(1), F2],
                       [[col.scale(scale) for col in C.differential(1)],
                        C.differential(2)[1:]])


def _truncated_taylor_report(scale=1):
    return check_exactness_on_box(_truncated_taylor(scale), MonomialIdeal(3, TRUNCATED_GENS),
                                  exhaustive=True)


def test_exactness_failures_of_a_truncated_taylor_complex():
    # Dropping a basis element of F_2 leaves H_1 nonzero; every failing
    # degree of the lcm closure is reported, in the order of the walk.
    report = _truncated_taylor_report()
    assert not report.ok
    assert report.failures == [(1, (1, 2, 1))]
    assert report.degrees_checked == 7


def test_exactness_reports_the_level_the_exact_ranks_find():
    # Scaling d_1 by P kills it mod P, so a modular rank would blame level 0;
    # the exact ranks clear level 0 and fail at level 1.
    report = _truncated_taylor_report(scale=(1 << 61) - 1)
    assert not report.ok
    assert report.failures == [(1, (1, 2, 1))]
    assert report.degrees_checked == 7


def test_exactness_module_rank_is_exact():
    # P * x e_1 vanishes mod P, so a modular rank of the module would read 1
    # at degree x and hide that the cokernel differs from the module.
    P = (1 << 61) - 1
    F0 = OrderedBasis(1, [BasisElement((0,)), BasisElement((0,))])
    F1 = OrderedBasis(1, [BasisElement((1,))])
    D = FreeComplex(1, [F0, F1], [[ModuleVector(1, {(0, (1,)): Fraction(1)})]])
    module = [ModuleVector(1, {(0, (1,)): Fraction(1)}),
              ModuleVector(1, {(1, (1,)): Fraction(P)})]
    report = check_exactness_on_box(D, module)
    assert not report.ok
    assert report.failures == [(0, (1,))]


def test_exactness_confirms_modular_failures_exactly():
    # Scaling d_2 by P kills it mod P; the exact ranks clear the degree.
    P = (1 << 61) - 1
    K = taylor_complex([(1, 0), (0, 1)], 2)
    scaled = FreeComplex(2, K.bases, [K.differential(1),
                                      [K.differential(2)[0].scale(P)]])
    report = check_exactness_on_box(scaled, MonomialIdeal(2, [(1, 0), (0, 1)]))
    assert report.ok and report.degrees_checked == 4


def test_exactness_is_checked_beyond_the_complex_degrees():
    # The Taylor complex of x has cokernel S/(x), not S/(x, y^9); the only
    # witness lies above every basis degree, at the module generator y^9.
    C = taylor_complex([(1, 0)], 2)
    module = [ModuleVector.generator(2, 0, (1, 0)), ModuleVector.generator(2, 0, (0, 9))]
    report = check_exactness_on_box(C, module)
    assert not report.ok
    assert report.failures == [(0, (0, 9))]


def test_lift_by_slice():
    # The fallback of lift_through: division by a Groebner basis of the
    # tagged columns.
    from syzdepth.complexes import _lift_by_groebner

    C = taylor_complex([(2, 0, 1), (1, 1, 0), (0, 2, 1)], 3)
    top = (2, 2, 1)
    for p in range(1, C.length + 1):
        v = ModuleVector(3)
        for j, e in enumerate(C.basis(p)):
            shift = tuple(t - d for t, d in zip(top, e.degree))
            v = v + ModuleVector.generator(3, j, shift, coeff=j + 1)
        z = C.apply(p, v)
        assert C.apply(p, _lift_by_groebner(C, p, z)) == z
    with pytest.raises(RuntimeError, match="lifting failed"):
        _lift_by_groebner(C, 1, ModuleVector.generator(3, 0, (1, 0, 0)))
    mixed = ModuleVector.generator(3, 0, (2, 0, 1)) + ModuleVector.generator(3, 0, (1, 1, 1))
    with pytest.raises(ValueError, match="multihomogeneous"):
        _lift_by_groebner(C, 1, mixed)


def _fallback_case():
    """(C, p, z, a): a boundary z of degree a whose division by the columns
    of the minimized d_p leaves a remainder.  z is the boundary of
    sum_j (j + 1) x^(a - deg e_j) e_j over the e_j of F_p."""
    C = minimize(taylor_complex([(2, 2, 0), (1, 2, 2), (2, 0, 3)], 3))
    p, a = 2, (2, 2, 3)
    v = ModuleVector(3)
    for j, e in enumerate(C.basis(p)):
        shift = tuple(t - d for t, d in zip(a, e.degree))
        v = v + ModuleVector.generator(3, j, shift, coeff=j + 1)
    return C, p, C.apply(p, v), a


def test_lift_through_uses_the_groebner_fallback(monkeypatch):
    from syzdepth import complexes
    from syzdepth.freemod import leading_term
    from syzdepth.groebner import _divide

    C, p, z, a = _fallback_case()
    divisors = [(col, leading_term(col)) for col in C.differential(p) if not col.is_zero()]
    assert not _divide(z, divisors)[1].is_zero()
    calls = []
    fallback = complexes._lift_by_groebner
    monkeypatch.setattr(complexes, "_lift_by_groebner",
                        lambda *args: calls.append(args) or fallback(*args))
    w = complexes.lift_through(C, p, z)
    assert len(calls) == 1
    assert C.apply(p, w) == z
    assert multidegree_of(w, C.basis(p)) == a


@st.composite
def lift_cases(draw):
    """(C, p, z, a, boundary): a Taylor complex or its minimisation (n <= 4,
    m <= 5, exponents <= 2), a level p >= 1 and a multihomogeneous z in
    F_(p-1) of a degree a above an lcm of F_p's basis degrees.  z is the
    boundary of a drawn element of F_p of degree a (boundary is True) or a
    drawn element of F_(p-1) of degree a."""
    n = draw(st.integers(1, 4))
    mono = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    C = taylor_complex(draw(st.lists(mono, min_size=1, max_size=5)), n)
    if draw(st.booleans()):
        C = minimize(C)
    p = draw(st.integers(1, C.length))
    degrees = C.basis(p).degrees
    chosen = draw(st.lists(st.sampled_from(degrees), min_size=1, max_size=3))
    a = tuple(x + draw(st.integers(0, 1)) for x in functools.reduce(lcm, chosen))
    coeffs = st.sampled_from([Fraction(c) for c in (-2, -1, 1, 3)] + [Fraction(2, 3)])
    level = p if draw(st.booleans()) else p - 1
    basis = C.basis(level)
    below = [j for j, e in enumerate(basis) if divides(e.degree, a)]
    v = ModuleVector(n)
    if below:
        for j in draw(st.lists(st.sampled_from(below), min_size=1, unique=True)):
            shift = tuple(t - d for t, d in zip(a, basis.degree(j)))
            v = v + ModuleVector.generator(n, j, shift, coeff=draw(coeffs))
    z = C.apply(p, v) if level == p else v
    return C, p, z, a, level == p


def _in_image(C, p, z, a):
    """Oracle: z of degree a is in the image of d_p exactly when adding it
    to the degree-a slice of the columns leaves the rank unchanged."""
    columns = list(C.differential(p))
    slices = Slices(columns + [z], C.basis(p - 1), list(C.basis(p).degrees) + [a])
    mask = slices.active(a)
    return slices.rank(mask) == slices.rank(mask & ~(1 << len(columns)))


@settings(max_examples=80, deadline=None)
@given(lift_cases())
@example(_fallback_case() + (True,))
def test_lift_by_groebner_lifts_exactly_the_boundaries(case):
    from syzdepth.complexes import _lift_by_groebner

    C, p, z, a, boundary = case
    if z.is_zero():
        return
    in_image = _in_image(C, p, z, a)
    assert in_image or not boundary
    if in_image:
        w = _lift_by_groebner(C, p, z)
        assert C.apply(p, w) == z
        assert multidegree_of(w, C.basis(p)) == a
    else:
        with pytest.raises(RuntimeError, match=f"lifting failed at homological degree {p}: "
                           "the complex is not exact there"):
            _lift_by_groebner(C, p, z)


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
        module_gens = [ModuleVector.generator(C.n, 0, u) for u in module_gens.gens]
    module_gens = list(module_gens)
    module = Slices(module_gens + list(C.differential(1)), C.basis(0))
    own = (1 << len(module_gens)) - 1
    for j, col in enumerate(C.differential(1)):
        mask = module.active(C.basis(1).degree(j)) & own
        if module.rank(mask) != module.rank(mask | 1 << (len(module_gens) + j)):
            return ExactnessReport(False, failures=[(0, None)])

    length = C.length
    diffs = [Slices(C.differential(p), C.basis(p - 1), C.basis(p).degrees)
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
    span = Slices(gens, initial.basis)
    monomial = Slices([ModuleVector.generator(initial.basis.n, j, u)
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
    diffs = [list(C.differential(q)) for q in range(1, C.length + 1)]
    diffs[p - 1][j] = column
    return FreeComplex(C.n, C.bases, diffs)


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
        cols = C.differential(p)
        C = FreeComplex(n, C.bases[:p] + (top,),
                        [C.differential(q) for q in range(1, p)] + [cols[:k] + cols[k + 1:]])
    damage = draw(st.sampled_from(["none", "scale 0", "scale 2", "flip"]))
    p = draw(st.integers(1, C.length))
    if damage != "none" and C.rank(p):
        j = draw(st.integers(0, C.rank(p) - 1))
        col = C.differential(p)[j]
        if damage == "flip":
            first = min(key for key, _ in col.items())
            col = ModuleVector(n, {key: (-c if key == first else c) for key, c in col.items()})
        else:
            col = col.scale(int(damage[-1]))
        C = _replace_column(C, p, j, col)
    return C, I


@settings(max_examples=200, deadline=None)
@given(damaged_complexes())
@example((_truncated_taylor(), MonomialIdeal(3, TRUNCATED_GENS)))
@example((taylor_complex([(1, 0)], 2), MonomialIdeal(2, [(1, 0), (0, 9)])))
def test_closure_walk_agrees_with_the_box_walk(case):
    # Same verdict and first failure; the exhaustive failures are the box
    # walk's at closure degrees, and each failing degree a of the box has its
    # representative lcm{d in D : d | a} among them at the same level.
    C, I = case
    n = C.n
    degrees = list(I.gens) + [d for basis in C.bases[1:] for d in basis.degrees]
    closure = set(lcm_closure(degrees, n))
    box = _covering_box(degrees, n)
    first, ref_first = check_exactness_on_box(C, I), reference_box_walk(C, I, box)
    assert (first.ok, first.failures) == (ref_first.ok, ref_first.failures)
    every = check_exactness_on_box(C, I, exhaustive=True)
    ref_every = reference_box_walk(C, I, box, exhaustive=True)
    assert every.ok == ref_every.ok
    assert every.failures == [(p, a) for p, a in ref_every.failures
                              if a is None or a in closure]
    assert every.degrees_checked in (0, len(closure))
    for p, a in ref_every.failures:
        if a is not None:
            assert (p, _lcm_of([d for d in degrees if divides(d, a)], n)) in every.failures


def _reference_apply(columns, v, n):
    """Image of v as apply_columns once built it: one vector sum per term."""
    out = ModuleVector(n)
    for (pos, mono), coeff in v.items():
        out = out + columns[pos].scale(coeff, mono)
    return out


def reference_check_complex(C):
    """check_complex with d_{p-1}(d_p(e_j)) built by vector arithmetic."""
    for p in range(1, C.length + 1):
        for j, col in enumerate(C.differential(p)):
            if not col.is_zero() and \
                    multidegree_of(col, C.basis(p - 1)) != C.basis(p).degree(j):
                return False
        if p >= 2:
            for j in range(C.rank(p)):
                image = _reference_apply(
                    C.differential(p - 1),
                    _reference_apply(C.differential(p), ModuleVector.generator(C.n, j), C.n),
                    C.n)
                if not image.is_zero():
                    return False
    return True


KOSZUL3 = taylor_complex([X1, X2, X3], 3)
_FLIPPED_D2 = ModuleVector(3, {key: (-c if k == 0 else c)
                               for k, (key, c) in enumerate(KOSZUL3.differential(2)[2].items())})
_MIXED_D1 = ModuleVector(3, {(0, X3): Fraction(1), (0, X1): Fraction(1)})


@settings(max_examples=200, deadline=None)
@given(damaged_complexes())
@example((KOSZUL3, MonomialIdeal(3, [X1, X2, X3])))
@example((_replace_column(KOSZUL3, 2, 2, _FLIPPED_D2), MonomialIdeal(3, [X1, X2, X3])))
@example((_replace_column(KOSZUL3, 1, 0, _MIXED_D1), MonomialIdeal(3, [X1, X2, X3])))
def test_check_complex_agrees_with_the_vector_reference(case):
    # Same verdict as composing through vectors, and apply_columns gives the
    # reference image term for term, in the same order.
    C, _ = case
    assert check_complex(C) == reference_check_complex(C)
    for p in range(2, C.length + 1):
        for col in C.differential(p):
            assert list(C.apply(p - 1, col).items()) == \
                list(_reference_apply(C.differential(p - 1), col, C.n).items())


def test_check_complex_rejects_a_flipped_sign_and_a_mixed_column():
    assert check_complex(KOSZUL3)
    assert not check_complex(_replace_column(KOSZUL3, 2, 2, _FLIPPED_D2))
    assert multidegree_of(_MIXED_D1, KOSZUL3.basis(0)) is None
    assert not check_complex(_replace_column(KOSZUL3, 1, 0, _MIXED_D1))


def _scale_level(C, p, factor):
    diffs = [list(C.differential(q)) for q in range(1, C.length + 1)]
    diffs[p - 1] = [col.scale(factor) for col in diffs[p - 1]]
    return FreeComplex(C.n, C.bases, diffs)


KOSZUL3_TWO_THIRDS = _scale_level(KOSZUL3, 2, Fraction(2, 3))


def _rescale_basis(C, p, factors):
    """The same complex after e_k in F_p becomes e_k / factors[k]: column k
    of d_p is scaled by factors[k], and row k of d_{p+1} divided by it."""
    diffs = [list(C.differential(q)) for q in range(1, C.length + 1)]
    diffs[p - 1] = [col.scale(f) for col, f in zip(diffs[p - 1], factors)]
    if p < C.length:
        diffs[p] = [ModuleVector(C.n, {(k, mono): c / factors[k] for (k, mono), c in col.items()})
                    for col in diffs[p]]
    return FreeComplex(C.n, C.bases, diffs)


def test_check_complex_on_non_integral_coefficients():
    # d_2 with its columns scaled by 2/3 still composes to zero with d_1 and
    # d_3, and the complex stays exact; one entry moved by 1/7 breaks d o d.
    C = KOSZUL3_TWO_THIRDS
    assert {c for col in C.differential(2) for _, c in col.items()} == \
        {Fraction(2, 3), Fraction(-2, 3)}
    assert check_complex(C) and reference_check_complex(C)
    assert check_exactness_on_box(C, MonomialIdeal(3, [X1, X2, X3])).ok
    col = C.differential(2)[0]
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
        C = _replace_column(C, p, j, C.differential(p)[j].scale(data.draw(nonzero_fractions)))
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
            C = _replace_column(C, p, j, C.differential(p)[j].scale(draw(nonzero_fractions)))
    return C


# A column that is not multihomogeneous puts two terms in one cell; a level
# of rank zero gives rows without cells, and a complex of length zero no
# differentials.
TWO_TERM_CELL = FreeComplex(
    2, [OrderedBasis(2, [BasisElement((0, 0))]), OrderedBasis(2, [BasisElement((1, 1))] * 2)],
    [[ModuleVector(2, {(0, (1, 1)): Fraction(-3, 4)}),
      ModuleVector(2, {(0, (2, 0)): Fraction(1), (0, (1, 1)): Fraction(-3, 4),
                       (0, (0, 1)): Fraction(5)})]])
EMPTY_LEVEL = FreeComplex(
    1, [OrderedBasis(1, [BasisElement((0,)), BasisElement((1,))]), OrderedBasis(1, [])], [[]])
LENGTH_ZERO = FreeComplex(3, [OrderedBasis(3, [BasisElement((0, 0, 0))])], [])


@settings(max_examples=100, deadline=None)
@given(serialised_complexes())
@example(KOSZUL3_TWO_THIRDS)
@example(taylor_complex([(2, 1)], 2))
@example(TWO_TERM_CELL)
@example(EMPTY_LEVEL)
@example(LENGTH_ZERO)
def test_complex_to_jsonable_matches_the_cell_by_cell_reference(C):
    # complex_json at the indent of resolve's payload, and at the top level.
    for indent in (_INDENT, "\n"):
        assert "".join(complex_json(C, indent)) == _dumps(reference_complex_to_jsonable(C), indent)


@settings(max_examples=150, deadline=None)
@given(ideals(), st.booleans(), st.data())
def test_slice_check_closure_walk_agrees_with_the_box_walk(I, minimized, data):
    C = taylor_complex(list(I.gens), I.n)
    if minimized:
        C = minimize(C)
    p = data.draw(st.integers(0, C.length - 1))
    ini, gens = lex_refined_initial(C, p)
    variants = [ini]
    nonzero = ini.nonzero_components()
    if nonzero:
        j, ideal = data.draw(st.sampled_from(nonzero))
        k = data.draw(st.integers(0, len(ideal.gens) - 1))
        dropped = MonomialIdeal(I.n, ideal.gens[:k] + ideal.gens[k + 1:])
        variants.append(InitialModule(ini.basis, ini.components[:j] + (dropped,)
                                      + ini.components[j + 1:]))
    assert hilbert_slice_check(gens, ini) == (True, None)
    for initial in variants:
        degrees = [multidegree_of(g, ini.basis) for g in gens if not g.is_zero()]
        degrees += [mul(u, ini.basis.degree(j))
                    for j, ideal in enumerate(initial.components) for u in ideal.gens]
        box = _covering_box(degrees, I.n)
        assert hilbert_slice_check(gens, initial) == \
            reference_slice_box_walk(gens, initial, box)


# ---------------------------------------------------------------------------
# The scalar d o d check and the bounded walk down the closure tree, against
# the monomial sum and the lex walk with full ranks they replaced.


def _unchecked(C):
    """The same complex as a new object, which no check has marked."""
    return FreeComplex(C.n, C.bases, [C.differential(p) for p in range(1, C.length + 1)])


def _nonzero_columns(C):
    return [(p, j) for p in range(1, C.length + 1)
            for j, col in enumerate(C.differential(p)) if not col.is_zero()]


@st.composite
def certified_complexes(draw):
    """(complex, ideal): a Taylor, Eliahou-Kervaire, minimized or
    taylor_step_cone complex and the ideal it should resolve, then possibly
    one damage: a flipped sign, a column scaled by 1/7 or by 2^61 - 1, a
    zeroed column, a dropped basis element of the top level, or one
    generator of the ideal changed."""
    kind = draw(st.sampled_from(["taylor", "ek", "minimized", "cone"]))
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
    n = C.n
    damage = draw(st.sampled_from(["none", "flip", "1/7", "2^61 - 1", "zero", "drop top",
                                   "module"]))
    columns = _nonzero_columns(C)
    if damage in ("flip", "1/7", "2^61 - 1", "zero") and columns:
        p, j = draw(st.sampled_from(columns))
        col = C.differential(p)[j]
        if damage == "flip":
            first = min(key for key, _ in col.items())
            col = ModuleVector(n, {key: (-c if key == first else c) for key, c in col.items()})
        elif damage == "zero":
            col = ModuleVector(n)
        else:
            col = col.scale(Fraction(1, 7) if damage == "1/7" else (1 << 61) - 1)
        C = _replace_column(C, p, j, col)
    elif damage == "drop top" and C.length:
        L = C.length
        k = draw(st.integers(0, C.rank(L) - 1))
        elements = C.basis(L).elements
        cols = C.differential(L)
        C = FreeComplex(n, C.bases[:L] + (OrderedBasis(n, elements[:k] + elements[k + 1:]),),
                        [C.differential(q) for q in range(1, L)] + [cols[:k] + cols[k + 1:]])
    elif damage == "module":
        gens = list(I.gens)
        k = draw(st.integers(0, len(gens) - 1))
        if draw(st.booleans()):
            gens[k] = mul(gens[k], variable(draw(st.integers(0, n - 1)), n))
        else:
            gens[k] = draw(st.tuples(*[st.integers(0, 3)] * n).filter(any))
        I = MonomialIdeal(n, gens)
    return C, I


PATH9_ODD_FIRST = path_odd_first(9)


@settings(max_examples=200, deadline=None)
@given(certified_complexes())
@example((taylor_complex(PATH9_ODD_FIRST, 9), MonomialIdeal(9, PATH9_ODD_FIRST)))
@example((_truncated_taylor(), MonomialIdeal(3, TRUNCATED_GENS)))
@example((_truncated_taylor((1 << 61) - 1), MonomialIdeal(3, TRUNCATED_GENS)))
@example((taylor_complex([(1, 0)], 2), MonomialIdeal(2, [(1, 0), (0, 9)])))
def test_closure_tree_walk_agrees_with_the_lex_walk(case):
    # The same verdict, failures and degrees checked in both modes; the
    # first call checks the complex and the second only reads it.
    C, I = case
    C = _unchecked(C)
    for exhaustive in (False, True):
        got = check_exactness_on_box(C, I, exhaustive=exhaustive)
        ref = reference_exactness(C, I, exhaustive=exhaustive)
        assert (got.ok, got.failures, got.degrees_checked) == \
            (ref.ok, ref.failures, ref.degrees_checked)


@st.composite
def checked_complexes(draw):
    """A complex of certified_complexes, possibly with one more change: a
    term added to a column at another monomial, so that the column is not
    multihomogeneous; one term moved to a wrong monomial at its own
    position; or one level's basis rescaled by fractions, so that the rows
    mix coefficients read as ints and as Fractions."""
    C, _ = draw(certified_complexes())
    n = C.n
    change = draw(st.sampled_from(["none", "mixed column", "wrong monomial", "rescale"]))
    columns = _nonzero_columns(C)
    if change in ("mixed column", "wrong monomial") and columns:
        p, j = draw(st.sampled_from(columns))
        terms = dict(C.differential(p)[j].items())
        pos, mono = draw(st.sampled_from(sorted(terms)))
        moved = mul(mono, variable(draw(st.integers(0, n - 1)), n))
        coeff = terms[pos, mono]
        if change == "wrong monomial":
            del terms[pos, mono]
        else:
            pos = draw(st.integers(0, C.rank(p - 1) - 1))
            coeff = draw(nonzero_fractions)
        terms[pos, moved] = terms.get((pos, moved), 0) + coeff
        C = _replace_column(C, p, j, ModuleVector(n, terms))
    elif change == "rescale" and C.length:
        p = draw(st.integers(1, C.length))
        C = _rescale_basis(C, p, draw(st.lists(nonzero_fractions, min_size=C.rank(p),
                                               max_size=C.rank(p))))
    return C


@settings(max_examples=200, deadline=None)
@given(checked_complexes())
@example(KOSZUL3_TWO_THIRDS)
@example(_rescale_basis(KOSZUL3, 1, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]))
@example(_replace_column(KOSZUL3, 1, 0, _MIXED_D1))
@example(_replace_column(KOSZUL3, 2, 0, ModuleVector(3, {(1, X3): Fraction(1),
                                                         (0, X1): Fraction(-1)})))
def test_scalar_check_complex_agrees_with_the_monomial_sum(C):
    C = _unchecked(C)
    expected = reference_monomial_check_complex(C)
    assert check_complex(C) == expected
    # A pass is remembered, a failure is not.
    assert C._complex == expected
    assert check_complex(C) == expected


def test_check_complex_runs_once_per_complex():
    C = _unchecked(KOSZUL3)
    broken = _replace_column(KOSZUL3, 2, 2, _FLIPPED_D2)
    with mock.patch.object(complexes, "_complex_rows", wraps=complexes._complex_rows) as full:
        assert check_complex(C) and check_complex(C)
        assert check_exactness_on_box(C, MonomialIdeal(3, [X1, X2, X3])).ok
        assert full.call_count == 1
        assert not check_complex(broken) and not check_complex(broken)
        assert full.call_count == 3
        M = minimize(_unchecked(KOSZUL3))
        assert full.call_count == 5
        assert check_exactness_on_box(M, MonomialIdeal(3, [X1, X2, X3])).ok
        assert full.call_count == 5


MAXIMAL7 = [variable(i, 7) for i in range(7)]


def test_certificate_reduces_under_half_the_rows_of_the_lex_walk(monkeypatch):
    # On the Taylor complex of the maximal ideal in 7 variables the lex walk
    # reduces 2,059 rows of the differentials and 462 of the module; the
    # walk down the closure tree, module included, fewer than 2,059 / 2.
    calls = []
    eliminate = linalg.eliminate
    monkeypatch.setattr(linalg, "eliminate",
                        lambda pivots, row: calls.append(row) or eliminate(pivots, row))
    I = MonomialIdeal(7, MAXIMAL7)
    assert reference_exactness(taylor_complex(MAXIMAL7, 7), I).ok
    assert len(calls) == 2059 + 462
    calls.clear()
    assert check_exactness_on_box(taylor_complex(MAXIMAL7, 7), I).ok
    assert len(calls) < 2059 / 2
