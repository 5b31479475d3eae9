import operator
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from syzdepth.complexes import (
    eliahou_kervaire,
    is_minimal,
    minimize,
    syzygy_rows,
    taylor_complex,
)
from syzdepth.freemod import BasisElement, OrderedBasis
from syzdepth import complexes, groebner, linalg
from syzdepth.groebner import (
    buchberger,
    hilbert_slice_check,
    initial_module,
    is_squarefree_module,
    kernel_generators,
    leading_module,
)
from syzdepth.verify import random_monomial_ideal, random_stable_ideal, trial_rng
from syzdepth.monomials import MonomialIdeal
from syzdepth.syzygy import lex_refined_initial
from syzdepth.verify import taylor_step_cone

import reference_groebner
from reference_cones import apply_columns, reference_taylor_step_cone
from reference_groebner import leading_term
from reference_monomials import minimalize_ordered
from reference_vectors import ModuleVector, differential, multidegree_of, row_vectors, scalar_rows

X1, X2, X3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def _moved(v, perm):
    """The vector v with each position pos moved to perm(pos)."""
    return ModuleVector(v.n, {(perm(pos), mono): c for (pos, mono), c in v.items()})


def _tagged(columns, r):
    """Each column plus the tag e_(r + j), j its index, at the unit monomial."""
    return [ModuleVector(col.n, [*col.items(), ((r + j, (0,) * col.n), 1)])
            for j, col in enumerate(columns)]


def _vectors(gb):
    """The elements of the Groebner basis as vectors."""
    return row_vectors(gb.rows, gb.degrees, gb.basis)


def test_buchberger_monomial_input_passthrough():
    # 3 x1^2, x1x2 and x1^2x2 on a rank-one module of degree 0.
    basis = OrderedBasis(2, [BasisElement((0, 0))])
    gb = buchberger([{0: 3}, {0: 1}, {0: 1}], [(2, 0), (1, 1), (2, 1)], basis)
    assert leading_module(gb.rows, gb.degrees, basis).components[0].gens == ((1, 1), (2, 0))
    assert gb.rows == ({0: 1}, {0: 1})  # monomial module: reduced basis is monomial


def test_buchberger_single_generator():
    # 2 x1 e1 + 4 x2 e2, deg e1 = x2 and deg e2 = x1, made monic.
    basis = OrderedBasis(2, [BasisElement((0, 1)), BasisElement((1, 0))])
    gb = buchberger([{0: 2, 1: 4}], [(1, 1)], basis)
    assert (gb.rows, gb.degrees) == (({0: 1, 1: 2},), ((1, 1),))


def test_buchberger_koszul_z1():
    K = taylor_complex([X1, X2, X3], 3)
    ini, (rows, degrees) = lex_refined_initial(K, 1)
    gb = buchberger(rows, degrees, ini.basis)
    lts = {(t.position, t.monomial) for t in map(leading_term, _vectors(gb))}
    assert lts == {(0, (0, 1, 0)), (0, (0, 0, 1)), (1, (0, 0, 1))}


def test_initial_module_koszul_z1():
    K = taylor_complex([X1, X2, X3], 3)
    ini, (rows, degrees) = lex_refined_initial(K, 1)
    assert ini.components[0].gens == ((0, 0, 1), (0, 1, 0))
    assert ini.components[1].gens == ((0, 0, 1),)
    assert ini.components[2].is_zero()
    ok, bad = hilbert_slice_check(rows, degrees, ini)
    assert ok, bad


def test_initial_module_taylor_order():
    C = taylor_complex([(2, 0), (1, 1), (0, 2)], 2)
    ini = initial_module(*syzygy_rows(C, 1), C.basis(1))
    by_label = {C.basis(1).elements[j].label: c for j, c in enumerate(ini.components)}
    assert by_label[frozenset({3})].gens == ((1, 0),)
    assert by_label[frozenset({2})].gens == ((1, 0),)
    assert by_label[frozenset({1})].is_zero()


def test_initial_module_of_monomial_generators():
    basis = OrderedBasis(2, [BasisElement((0, 0)), BasisElement((1, 0))])
    # x2^2 e1 and 5 x1 e2.
    ini = initial_module([{0: 1}, {1: 5}], [(0, 2), (2, 0)], basis)
    assert ini.components[0].gens == ((0, 2),)
    assert ini.components[1].gens == ((1, 0),)


def test_product_criterion_not_applied_across_positions():
    # f = x e1 + e2 and g = y e1 + e3, with deg e2 = x and deg e3 = y: the
    # leading monomials are coprime, yet the S-vector y e2 - x e3 survives,
    # which a naive coprimality skip would miss.
    basis = OrderedBasis(2, [BasisElement((0, 0)), BasisElement((1, 0)),
                             BasisElement((0, 1))])
    ini = initial_module([{0: 1, 1: 1}, {0: 1, 2: 1}], [(1, 0), (0, 1)], basis)
    assert ini.components[0].gens == ((0, 1), (1, 0))
    assert ini.components[1].gens == ((0, 1),)
    assert ini.components[2].is_zero()


def test_a_generator_that_is_not_multihomogeneous_is_refused():
    # The row {e1: 1, e2: 1} at degree x1, with deg e1 = x1 and deg e2 = x2,
    # would need the term x1/x2 e2: no element has that row at that degree,
    # and none has entries but no degree.
    basis = OrderedBasis(2, [BasisElement((1, 0)), BasisElement((0, 1))])
    for engine in (buchberger, initial_module):
        with pytest.raises(ValueError, match=r"^the generators: column 0 has degree \(1, 0\), "
                                             r"which the degree \(0, 1\) of position 1 "
                                             "does not divide$"):
            engine([{0: 1, 1: 1}], [(1, 0)], basis)
        with pytest.raises(ValueError, match="^the generators: column 1 has degree None"):
            engine([{}, {0: 1}], [None, None], basis)


RANK_ONE = OrderedBasis(2, [BasisElement((0, 0))])


def test_initial_module_refuses_a_position_below_the_basis():
    with pytest.raises(ValueError, match="column 0 has position -1, outside a basis of rank 1"):
        initial_module([{-1: 1}], [(1, 0)], RANK_ONE)


def test_buchberger_refuses_a_position_below_the_basis():
    with pytest.raises(ValueError, match="column 0 has position -1, outside a basis of rank 1"):
        buchberger([{-1: 1}], [(1, 0)], RANK_ONE)


def test_kernel_generators_refuses_a_column_below_the_target():
    source = OrderedBasis(2, [BasisElement((1, 0))])
    with pytest.raises(ValueError, match="column 0 has position -1, outside a basis of rank 1"):
        kernel_generators([{-1: 1}], source, RANK_ONE)


def test_initial_module_refuses_a_position_past_the_basis():
    with pytest.raises(ValueError, match="column 1 has position 1, outside a basis of rank 1"):
        initial_module([{0: 1}, {1: 1}], [(1, 0), (0, 1)], RANK_ONE)


@pytest.mark.parametrize("coeff", [0, 0.5, "1", Fraction(0)],
                         ids=["zero", "float", "str", "zero-fraction"])
@pytest.mark.parametrize("engine", ["buchberger", "initial_module", "kernel_generators",
                                    "hilbert_slice_check"])
def test_every_row_engine_refuses_a_zero_or_inexact_coefficient(engine, coeff):
    # A zero leading entry would be divided by, and a float is not exact.
    source = OrderedBasis(2, [BasisElement((1, 0)), BasisElement((0, 1))])
    rows, degrees = [{0: 1}, {0: coeff}], [(1, 0), (0, 1)]
    calls = {
        "buchberger": lambda: buchberger(rows, degrees, RANK_ONE),
        "initial_module": lambda: initial_module(rows, degrees, RANK_ONE),
        "kernel_generators": lambda: kernel_generators(rows, source, RANK_ONE),
        "hilbert_slice_check": lambda: hilbert_slice_check(
            rows, degrees, initial_module([{0: 1}], [(1, 0)], RANK_ONE)),
    }
    name = "the map" if engine == "kernel_generators" else "the generators"
    with pytest.raises(ValueError, match=f"^{name}: column 1 has coefficient {re.escape(repr(coeff))} "
                                         "at position 0, not a nonzero int or Fraction$"):
        calls[engine]()


def test_hilbert_slice_check_fault_injection():
    K = taylor_complex([X1, X2, X3], 3)
    ini, (rows, degrees) = lex_refined_initial(K, 1)
    damaged = type(ini)(ini.basis, (MonomialIdeal(3, [(0, 0, 1)]),) + ini.components[1:])
    assert hilbert_slice_check(rows, degrees, damaged) == (False, (1, 1, 0))
    assert hilbert_slice_check([], [], type(ini)(ini.basis, tuple(
        MonomialIdeal(3, []) for _ in range(3))))[0]


@st.composite
def monomial_ideals(draw):
    """Minimal generators, in drawn order, of an ideal with n <= 4, m <= 5
    and exponents <= 3."""
    n = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    return n, list(minimalize_ordered(draw(st.lists(exponents, min_size=1, max_size=5))))


@settings(max_examples=25, deadline=None)
@given(monomial_ideals())
@example((3, [(2, 1, 0), (0, 2, 1), (1, 0, 2)]))
def test_minimize_keeps_lex_refined_initial_of_minimal_taylor(ideal):
    # On a minimal complex minimize only re-sorts each level lex-refined,
    # which lex_refined_initial does anyway; the theorem-main runner relies
    # on this to skip the minimized complex.
    n, gens = ideal
    C = taylor_complex(gens, n)
    assume(is_minimal(C))
    M = minimize(C)
    for p in range(C.length + 1):
        assert lex_refined_initial(C, p)[0] == lex_refined_initial(M, p)[0], p


@st.composite
def syzygy_generators_on_bases(draw):
    """(generators, basis): the columns of d_{p+1}, p >= 1 where the complex
    is long enough, of a Taylor complex, its minimization or a Taylor step
    cone of a seeded random ideal with n <= 4, m <= 5 and exponents <= 3, on
    the basis of F_p as it is or re-sorted lex-refined."""
    I = random_monomial_ideal(trial_rng(draw(st.integers(0, 10**6)), 0), 4, 5, 3, min_gens=2)
    n, gens = I.n, list(I.gens)
    assume(len(gens) >= 2)
    kind = draw(st.sampled_from(["taylor", "minimized", "cone"]))
    if kind == "cone":
        C, _ = taylor_step_cone(gens, n)
    else:
        C = taylor_complex(gens, n)
        if kind == "minimized":
            C = minimize(C)
    p = draw(st.integers(1, C.length - 1)) if C.length >= 2 else 0
    columns = list(differential(C, p + 1))
    if draw(st.booleans()):
        basis, perm = C.basis(p).sort_lex_refined()
        return [_moved(v, perm.__getitem__) for v in columns], basis
    return columns, C.basis(p)


@settings(max_examples=150, deadline=None)
@given(syzygy_generators_on_bases())
@example((list(differential(taylor_complex([X1, X2, X3], 3), 2)),
          taylor_complex([X1, X2, X3], 3).basis(1)))
@example((list(differential(taylor_complex([X1, X2, X3], 3), 2)) * 2,
          taylor_complex([X1, X2, X3], 3).basis(1)))
def test_initial_module_is_the_reduced_basis_leading_terms(case):
    # initial_module stops at a minimal Groebner basis; its leading terms
    # are those of the reduced basis buchberger returns.
    gens, basis = case
    gb = buchberger(*scalar_rows(gens, basis), basis)
    expected = leading_module(gb.rows, gb.degrees, basis)
    assert initial_module(*scalar_rows(gens, basis), basis) == expected


def test_is_squarefree_module():
    K = taylor_complex([X1, X2, X3], 3)
    ini, _ = lex_refined_initial(K, 1)
    assert is_squarefree_module(ini)
    from syzdepth.groebner import InitialModule

    bad = InitialModule(OrderedBasis(2, [BasisElement((0, 0))]),
                        (MonomialIdeal(2, [(2, 0)]),))
    assert not is_squarefree_module(bad)
    zero = InitialModule(OrderedBasis(2, [BasisElement((0, 0))]),
                         (MonomialIdeal(2, []),))
    assert is_squarefree_module(zero)


def test_squarefree_initial_modules_of_squarefree_ideals():
    # Initial modules of syzygies of squarefree ideals stay squarefree.
    for trial in range(8):
        rng = trial_rng(31, trial)
        I = random_monomial_ideal(rng, 4, 4, 1)
        C = taylor_complex(list(I.gens), I.n)
        for p in range(1, C.length + 1):
            ini, _ = lex_refined_initial(C, p)
            assert is_squarefree_module(ini)


def test_normal_form_remainder_irreducible():
    # x^2 y e1 + 2 y e2 at degree x^2 y, with deg e2 = x^2, divided by x e1:
    # the remainder 2 y e2 has no divisor.
    divisor = {0: 1}
    filed = {}
    groebner._file(filed, 0, divisor, (1, 0))
    assert groebner._reduce({0: 1, 1: 2}, (2, 1), filed) == {1: 2}
    assert groebner._reduce({1: 2}, (2, 1), filed) == {1: 2}


def test_spair_loop_elements_are_monic_fractions():
    # Each element is divided by its leading entry, whatever its sign and
    # size: a leading 1 leaves the row as it is, and every other entry is
    # an exact quotient, an int where integral and a Fraction otherwise.
    basis = OrderedBasis(2, [BasisElement((0, 0)), BasisElement((1, 0))])
    gens = [ModuleVector(2, {(0, (2, 0)): Fraction(-3, 2), (1, (1, 0)): Fraction(1)}),
            ModuleVector(2, {(0, (1, 1)): Fraction(5), (1, (0, 1)): Fraction(-1, 7)}),
            ModuleVector(2, {(1, (0, 2)): Fraction(-1, 7)}),
            ModuleVector(2, {(0, (1, 2)): Fraction(1), (1, (0, 2)): Fraction(3)})]
    rows, degrees = scalar_rows(gens, basis)
    elements = groebner._spair_loop(rows, degrees, basis)
    for (row, d), g, given in zip(elements, gens, rows):
        lead = leading_term(g)
        assert d == multidegree_of(g, basis)
        assert row == {pos: c / lead.coeff for (pos, _), c in g.items()}
        assert list(row) == [pos for (pos, _), _ in g.items()]
        assert row is given or lead.coeff != 1
        assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in row.values())
    assert len(elements) > len(gens)
    assert all(row[min(row)] == 1 for row, _ in elements)


def test_kernel_generators_koszul():
    K = taylor_complex([X1, X2, X3], 3)
    rows, degrees = kernel_generators(K._level(1)[1], K.basis(1), K.basis(0))
    # The kernel of d_1 is Z_1, spanned by the Koszul relations.
    assert len(rows) == 3
    for v in row_vectors(rows, degrees, K.basis(1)):
        assert apply_columns(differential(K, 1), v, 3).is_zero()


def test_kernel_of_injective_map_is_empty():
    basis0 = OrderedBasis(2, [BasisElement((0, 0))])
    basis1 = OrderedBasis(2, [BasisElement((1, 0))])
    assert kernel_generators([{0: 1}], basis1, basis0) == ([], [])


# ---------------------------------------------------------------------------
# The heap-ordered, bucketed kernel against a copy of the kernel it replaced:
# a pair list re-sorted on every pop, a linear scan for the first divisor and
# a new vector at every division step, with every coefficient multiplied.


def _reference_scale(v, coeff, mono):
    return ModuleVector(v.n, {(pos, tuple(a + b for a, b in zip(m, mono))): c * coeff
                              for (pos, m), c in v.items()})


def _reference_divide(v, reducers):
    n = v.n
    rem = v
    tail = ModuleVector(n)
    quotient = {}
    while not rem.is_zero():
        t = leading_term(rem)
        hit = None
        for i, (g, lt) in enumerate(reducers):
            if lt.position == t.position:
                mono = tuple(a - b for a, b in zip(t.monomial, lt.monomial))
                if min(mono) >= 0:
                    hit = (i, g, t.coeff / lt.coeff, mono)
                    break
        if hit is None:
            tail = ModuleVector(n, [*tail.items(), ((t.position, t.monomial), t.coeff)])
            rem = ModuleVector(n, [*rem.items(), ((t.position, t.monomial), -t.coeff)])
        else:
            i, g, coeff, mono = hit
            quotient[(i, mono)] = quotient.get((i, mono), 0) + coeff
            rem = ModuleVector(n, [*rem.items(), *_reference_scale(g, -coeff, mono).items()])
    return quotient, tail


def _reference_spair_loop(gens, basis):
    elements = []

    def pair_key(i, j):
        lt_i, lt_j = elements[i][1], elements[j][1]
        l = tuple(map(max, lt_i.monomial, lt_j.monomial))
        degree = tuple(a + b for a, b in zip(l, basis.degree(lt_i.position)))
        return (sum(degree), degree, i, j)

    def add_element(v):
        lt = leading_term(v)
        v = _reference_scale(v, 1 / lt.coeff, (0,) * basis.n)
        lt = lt._replace(coeff=Fraction(1))
        index = len(elements)
        elements.append((v, lt))
        pairs.extend((i, index) for i in range(index)
                     if elements[i][1].position == lt.position)

    def single(v):
        return len({pos for (pos, _), _ in v.items()}) == 1

    pairs = []
    for g in gens:
        if g is not None and not g.is_zero():
            add_element(g)
    while pairs:
        pairs.sort(key=lambda ij: pair_key(*ij))
        i, j = pairs.pop(0)
        (f, lt_f), (g, lt_g) = elements[i], elements[j]
        if (not any(map(min, lt_f.monomial, lt_g.monomial))
                and single(f) and single(g)):
            continue
        l = tuple(map(max, lt_f.monomial, lt_g.monomial))
        s = ModuleVector(basis.n, [
            *_reference_scale(f, 1, tuple(a - b for a, b in zip(l, lt_f.monomial))).items(),
            *_reference_scale(g, -1, tuple(a - b for a, b in zip(l, lt_g.monomial))).items()])
        rem = _reference_divide(s, elements)[1]
        if not rem.is_zero():
            add_element(rem)
    return elements


def _term_lists(elements):
    return [(list(v.items()), lt) for v, lt in elements]


def _typed(vectors):
    """The terms of each vector in order, with their coefficient types."""
    return [[(key, c, type(c)) for key, c in v.items()] for v in vectors]


def _reference_kernel(columns, source, target):
    """kernel_generators on the vector engine: the tagged reduced basis's
    elements with no target part, moved to the source positions."""
    r = len(target)
    extended = OrderedBasis(target.n, list(target.elements)
                            + [BasisElement(e.degree, ("tag", e.label)) for e in source])
    gb = reference_groebner.buchberger(_tagged(columns, r), extended)
    return [_moved(g, lambda pos: pos - r) for g in gb.generators
            if all(pos >= r for (pos, _), _ in g.items())]


@st.composite
def spair_loop_inputs(draw):
    """(generators, basis) from a seeded random ideal (n <= 4, m <= 5,
    exponents <= 3) and a Taylor complex, its minimisation or a Taylor step
    cone: the columns of d_{p+1} on the basis of F_p, as it is or re-sorted
    lex-refined, for any p >= 0, or the tagged columns of d_p that
    kernel_generators hands to buchberger.  One generator is scaled by -3/2,
    so that leading coefficients are not all 1."""
    I = random_monomial_ideal(trial_rng(draw(st.integers(0, 10**6)), 0), 4, 5, 3, min_gens=2)
    n, gens = I.n, list(I.gens)
    assume(len(gens) >= 2)
    kind = draw(st.sampled_from(["taylor", "minimized", "cone"]))
    if kind == "cone":
        C, _ = taylor_step_cone(gens, n)
    else:
        C = taylor_complex(gens, n)
        if kind == "minimized":
            C = minimize(C)
    p = draw(st.integers(0, C.length - 1))
    columns = list(differential(C, p + 1))
    basis = C.basis(p)
    how = draw(st.sampled_from(["as-is", "lex-refined", "tagged"]))
    if how == "lex-refined":
        basis, perm = basis.sort_lex_refined()
        columns = [_moved(v, perm.__getitem__) for v in columns]
    elif how == "tagged":
        r = len(basis)
        source = C.basis(p + 1)
        basis = OrderedBasis(n, list(basis.elements)
                             + [BasisElement(e.degree, ("tag", e.label)) for e in source])
        columns = _tagged(columns, r)
    scaled = _reference_scale(columns[0], Fraction(-3, 2), (0,) * n)
    return columns[:1] + [scaled] + columns[1:], basis


@settings(max_examples=100, deadline=None)
@given(spair_loop_inputs())
@example((list(differential(taylor_complex([X1, X2, X3], 3), 2)) * 2,
          taylor_complex([X1, X2, X3], 3).basis(1)))
def test_spair_loop_matches_the_sorted_list_kernel(case):
    # The row engine's elements are the sorted list kernel's, as rows with
    # their degrees, entry order included.
    gens, basis = case
    expected = [(row, d) for v, _ in _reference_spair_loop(gens, basis)
                for (row,), (d,) in [scalar_rows([v], basis)]]
    elements = groebner._spair_loop(*scalar_rows(gens, basis), basis)
    assert [(list(row.items()), d) for row, d in elements] == \
        [(list(row.items()), d) for row, d in expected]


class _SetOnce(dict):
    """A dict that refuses to set a key twice."""

    def __setitem__(self, key, value):
        assert key not in self, f"element {key} used twice"
        super().__setitem__(key, value)


def _divided(z, a, filed):
    """_reduce on a copy of the row z of degree a, checked as a division:
    z is the sum of each recorded quotient times its monic filed element,
    whose degree divides a and which is used at most once, plus the
    remainder, and no element filed under a remainder position divides a.
    Returns (quotients, remainder)."""
    elements = {i: (r, d, rest) for r, entries in filed.items() for i, d, rest in entries}
    quotients = _SetOnce()
    tail = groebner._reduce(dict(z), a, filed, quotients)
    total = dict(tail)
    for i, q in quotients.items():
        r, d, rest = elements[i]
        assert all(map(operator.le, d, a))
        linalg.add_scaled(total, q, {r: 1, **rest})
    assert total == z
    for r in tail:
        assert not any(all(map(operator.le, d, a)) for _, d, _ in filed.get(r, ()))
    return quotients, tail


@settings(max_examples=100, deadline=None)
@given(spair_loop_inputs(), st.data())
def test_reduce_divides_by_the_filed_elements(case, data):
    # Each input row is divided by the first k elements of the S-pair loop's
    # Groebner basis, filed in order; by all of them, no remainder is left.
    gens, basis = case
    rows, degrees = scalar_rows(gens, basis)
    elements = groebner._spair_loop(rows, degrees, basis)
    k = data.draw(st.integers(0, len(elements)))
    filed = {}
    for index, (row, d) in enumerate(elements[:k]):
        groebner._file(filed, index, row, d)
    for z, a in zip(rows, degrees):
        if z:
            _, tail = _divided(z, a, filed)
            assert k < len(elements) or not tail


@st.composite
def lifter_divisions(draw):
    """(complex, p, z, a, ek): a Taylor complex of a seeded random ideal or
    the Eliahou-Kervaire complex of a seeded stable ideal, n <= 4, a level
    p >= 1, and a boundary z of degree a = deg e_c for a column c of d_p: a
    combination, small nonzero coefficients drawn, of the columns of d_p
    whose degrees divide a."""
    seed = draw(st.integers(0, 10**6))
    ek = draw(st.booleans())
    if ek:
        I = random_stable_ideal(trial_rng(seed, 0), 4, 4, 3)
        assume(not I.is_unit())
        C = eliahou_kervaire(I)
    else:
        I = random_monomial_ideal(trial_rng(seed, 0), 4, 5, 3)
        C = taylor_complex(list(I.gens), I.n)
    assume(C.length >= 1)
    p = draw(st.integers(1, C.length))
    basis, columns = C._level(p)
    a = basis.degree(draw(st.integers(0, len(basis) - 1)))
    z = {}
    for column, d in zip(columns, basis.degrees):
        if all(map(operator.le, d, a)):
            linalg.add_scaled(z, draw(st.sampled_from([1, -1, 2, Fraction(-3, 2)])), column)
    return C, p, z, a, ek


@settings(max_examples=100, deadline=None)
@given(lifter_divisions())
def test_reduce_divides_by_the_lifter_filing(case):
    # The lifter's filing of d_p's columns divides the boundary z as
    # Buchberger's does; the boundaries of Eliahou-Kervaire's generators
    # form a Groebner basis, so there no remainder is left, and the lift is
    # each quotient over its column's leading entry.
    C, p, z, a, ek = case
    lifter = complexes._Lifter(C, p)
    quotients, tail = _divided(z, a, lifter._filed)
    assert not (ek and tail)
    if not tail:
        assert lifter.lift(z, a) == {c: Fraction(q) / lifter._leads[c]
                                     for c, q in quotients.items()}


@settings(max_examples=100, deadline=None)
@given(spair_loop_inputs())
@example((list(differential(taylor_complex([X1, X2, X3], 3), 2)) * 2,
          taylor_complex([X1, X2, X3], 3).basis(1)))
def test_row_engine_matches_the_vector_engine(case):
    # buchberger's reduced basis is the vector engine's term for term, entry
    # order and Fraction coefficients included; so are initial_module and
    # the kernel of the map sending e_j to the j-th generator, each e_j
    # taken at its generator's degree (or 0 for a zero generator).
    gens, basis = case
    rows, degrees = scalar_rows(gens, basis)
    gb, expected = buchberger(rows, degrees, basis), reference_groebner.buchberger(gens, basis)
    assert _typed(_vectors(gb)) == _typed(expected.generators)
    assert leading_module(gb.rows, gb.degrees, basis) == \
        reference_groebner.monomial_module_from_terms(basis, expected.leading_terms())
    assert initial_module(rows, degrees, basis) == reference_groebner.initial_module(gens, basis)
    source = OrderedBasis(basis.n, [BasisElement(d or (0,) * basis.n) for d in degrees])
    assert _typed(row_vectors(*kernel_generators(rows, source, basis), source)) == \
        _typed(_reference_kernel(gens, source, basis))


@st.composite
def division_cases(draw):
    """(lifts, divisions) from a seeded random ideal (n <= 4, m <= 5,
    exponents <= 3).  lifts are the (F, i, z) that the Taylor step cone
    lifts through d^F_i while it is built and that compose_cone_gb lifts,
    read from the reference cone's vector columns; divisions are (vector,
    reducers, basis) triples, each column of a Taylor or minimised
    differential divided by the other columns, some of them scaled by 5/3
    so that leading coefficients are not 1, on the basis of F_(p-1)."""
    I = random_monomial_ideal(trial_rng(draw(st.integers(0, 10**6)), 0), 4, 5, 3, min_gens=2)
    n, gens = I.n, list(I.gens)
    assume(len(gens) >= 2)
    _, phi = reference_taylor_step_cone(gens, n)
    G, F = phi.source, phi.target
    lifts = []
    for i in range(1, min(G.length, F.length) + 1):
        targets = [phi.apply(i - 1, col) for col in differential(G, i)]
        targets += [_reference_scale(phi.apply(i - 1, z), -1, (0,) * n) for z in
                    _vectors(buchberger(*syzygy_rows(G, i - 1), G.basis(i - 1)))]
        lifts += [(F, i, z) for z in targets if not z.is_zero()]
    divisions = []
    C = taylor_complex(gens, n)
    if draw(st.booleans()):
        C = minimize(C)
    for p in range(1, C.length + 1):
        columns = [col if k % 2 else _reference_scale(col, Fraction(5, 3), (0,) * n)
                   for k, col in enumerate(differential(C, p)) if not col.is_zero()]
        for k, col in enumerate(columns):
            divisions.append((col, [(g, leading_term(g)) for g in columns[:k] + columns[k + 1:]],
                              C.basis(p - 1)))
    return lifts, divisions


@settings(max_examples=60, deadline=None)
@given(division_cases())
def test_divide_matches_the_linear_scan_kernel(cases):
    # The lifter's quotients are the linear scan's, entry order included,
    # with the monomial a - deg e_c of column c, ints where integral; and
    # the remainder of the row division by the reducers, made monic and
    # filed in order, is the linear scan's.
    lifts, divisions = cases
    for F, i, z in lifts:
        columns = differential(F, i)
        nonzero = [j for j, col in enumerate(columns) if not col.is_zero()]
        expected_quotient, expected_rem = _reference_divide(
            z, [(columns[j], leading_term(columns[j])) for j in nonzero])
        assert expected_rem.is_zero()
        (row,), (a,) = scalar_rows([z], F.basis(i - 1))
        w = complexes._Lifter(F, i).lift(row, a)
        assert list(w.items()) == [(nonzero[k], c) for (k, _), c in expected_quotient.items()]
        assert all(mono == tuple(x - y for x, y in zip(a, F.basis(i).degree(nonzero[k])))
                   for k, mono in expected_quotient)
        assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in w.values())
    for v, reducers, basis in divisions:
        filed = {}
        for k, (g, _) in enumerate(reducers):
            (row,), (d,) = scalar_rows([g], basis)
            groebner._file(filed, k, linalg.monic(row), d)
        (row,), (a,) = scalar_rows([v], basis)
        (expected,), _ = scalar_rows([_reference_divide(v, reducers)[1]], basis)
        assert list(groebner._reduce(row, a, filed).items()) == list(expected.items())
