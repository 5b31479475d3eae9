from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from syzdepth.complexes import (
    is_minimal,
    minimize,
    syzygy_generators,
    taylor_complex,
)
from syzdepth.freemod import BasisElement, ModuleVector, OrderedBasis, leading_term, scalar_rows
from syzdepth import complexes
from syzdepth.groebner import (
    _spair_loop,
    buchberger,
    hilbert_slice_check,
    initial_module,
    is_squarefree_module,
    kernel_generators,
    monomial_module_from_terms,
    normal_form,
)
from syzdepth.instances import random_monomial_ideal, trial_rng
from syzdepth.monomials import MonomialIdeal, minimalize_ordered
from syzdepth.syzygy import lex_refined_initial
from syzdepth.verify import taylor_step_cone

from reference_cones import reference_taylor_step_cone

X1, X2, X3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def test_buchberger_monomial_input_passthrough():
    basis = OrderedBasis(2, [BasisElement((0, 0))])
    gens = [ModuleVector(2, {(0, (2, 0)): Fraction(3)}),
            ModuleVector(2, {(0, (1, 1)): Fraction(1)}),
            ModuleVector(2, {(0, (2, 1)): Fraction(1)})]
    gb = buchberger(gens, basis)
    lts = {(t.position, t.monomial) for t in gb.leading_terms()}
    assert lts == {(0, (2, 0)), (0, (1, 1))}
    for g in gb.generators:
        assert len(g) == 1  # monomial module: reduced basis is monomial


def test_buchberger_single_generator():
    basis = OrderedBasis(2, [BasisElement((0, 0)), BasisElement((0, 0))])
    v = ModuleVector(2, {(0, (1, 0)): Fraction(2), (1, (0, 1)): Fraction(4)})
    gb = buchberger([v], basis)
    assert len(gb.generators) == 1
    assert gb.generators[0] == v.scale(Fraction(1, 2))


def test_buchberger_koszul_z1():
    K = taylor_complex([X1, X2, X3], 3)
    ini, gens = lex_refined_initial(K, 1)
    gb = buchberger(gens, ini.basis)
    lts = {(t.position, t.monomial) for t in gb.leading_terms()}
    assert lts == {(0, (0, 1, 0)), (0, (0, 0, 1)), (1, (0, 0, 1))}


def test_initial_module_koszul_z1():
    K = taylor_complex([X1, X2, X3], 3)
    ini, gens = lex_refined_initial(K, 1)
    assert ini.components[0].gens == ((0, 0, 1), (0, 1, 0))
    assert ini.components[1].gens == ((0, 0, 1),)
    assert ini.components[2].is_zero()
    ok, bad = hilbert_slice_check(gens, ini)
    assert ok, bad


def test_initial_module_taylor_order():
    C = taylor_complex([(2, 0), (1, 1), (0, 2)], 2)
    ini = initial_module(syzygy_generators(C, 1), C.basis(1))
    by_label = {C.basis(1).elements[j].label: c for j, c in enumerate(ini.components)}
    assert by_label[frozenset({3})].gens == ((1, 0),)
    assert by_label[frozenset({2})].gens == ((1, 0),)
    assert by_label[frozenset({1})].is_zero()


def test_initial_module_of_monomial_generators():
    basis = OrderedBasis(2, [BasisElement((0, 0)), BasisElement((1, 0))])
    gens = [ModuleVector(2, {(0, (0, 2)): Fraction(1)}),
            ModuleVector(2, {(1, (1, 0)): Fraction(5)})]
    ini = initial_module(gens, basis)
    assert ini.components[0].gens == ((0, 2),)
    assert ini.components[1].gens == ((1, 0),)


def test_product_criterion_not_applied_across_positions():
    # f = x e1 + y e2, g = y e1 + x e2: the S-vector leaves (y^2 - x^2) e2,
    # which a naive coprimality skip would miss.
    basis = OrderedBasis(2, [BasisElement((0, 0)), BasisElement((0, 0))])
    f = ModuleVector(2, {(0, (1, 0)): Fraction(1), (1, (0, 1)): Fraction(1)})
    g = ModuleVector(2, {(0, (0, 1)): Fraction(1), (1, (1, 0)): Fraction(1)})
    ini = initial_module([f, g], basis)
    assert ini.components[0].gens == ((0, 1), (1, 0))
    assert ini.components[1].gens == ((2, 0),)


def test_hilbert_slice_check_fault_injection():
    K = taylor_complex([X1, X2, X3], 3)
    ini, gens = lex_refined_initial(K, 1)
    damaged = type(ini)(ini.basis, (MonomialIdeal(3, [(0, 0, 1)]),) + ini.components[1:])
    assert hilbert_slice_check(gens, damaged) == (False, (1, 1, 0))
    assert hilbert_slice_check([], type(ini)(ini.basis, tuple(
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
    columns = list(C.differential(p + 1))
    if draw(st.booleans()):
        basis, perm = C.basis(p).sort_lex_refined()
        return [v.map_positions(lambda pos: perm[pos]) for v in columns], basis
    return columns, C.basis(p)


@settings(max_examples=150, deadline=None)
@given(syzygy_generators_on_bases())
@example((list(taylor_complex([X1, X2, X3], 3).differential(2)),
          taylor_complex([X1, X2, X3], 3).basis(1)))
@example((list(taylor_complex([X1, X2, X3], 3).differential(2)) * 2,
          taylor_complex([X1, X2, X3], 3).basis(1)))
def test_initial_module_is_the_reduced_basis_leading_terms(case):
    # initial_module stops at a minimal Groebner basis; its leading terms
    # are those of the reduced basis buchberger returns.
    gens, basis = case
    expected = monomial_module_from_terms(basis, buchberger(gens, basis).leading_terms())
    assert initial_module(gens, basis) == expected


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
        I = random_monomial_ideal(rng, 4, 4, 1, squarefree=True)
        C = taylor_complex(list(I.gens), I.n)
        for p in range(1, C.length + 1):
            ini, _ = lex_refined_initial(C, p)
            assert is_squarefree_module(ini)


def test_normal_form_remainder_irreducible():
    basis = OrderedBasis(2, [BasisElement((0, 0))])
    divisor = ModuleVector(2, {(0, (1, 0)): Fraction(1)})
    v = ModuleVector(2, {(0, (2, 1)): Fraction(1), (0, (0, 3)): Fraction(2)})
    rem = normal_form(v, [(divisor, leading_term(divisor))])
    assert rem == ModuleVector(2, {(0, (0, 3)): Fraction(2)})


def test_spair_loop_elements_are_monic_fractions():
    # Each element is scaled by the reciprocal of its leading coefficient,
    # whatever its sign and size, and every coefficient stays a Fraction.
    basis = OrderedBasis(2, [BasisElement((0, 0)), BasisElement((1, 0))])
    gens = [ModuleVector(2, {(0, (2, 0)): Fraction(-3, 2), (1, (1, 0)): Fraction(1)}),
            ModuleVector(2, {(0, (1, 1)): Fraction(5), (1, (0, 1)): Fraction(-1, 7)}),
            ModuleVector(2, {(1, (0, 2)): Fraction(-1, 7)})]
    elements = _spair_loop(gens, basis)
    for (v, lt), g in zip(elements, gens):
        assert v == g.scale(Fraction(1) / leading_term(g).coeff)
    for v, lt in elements:
        assert lt.coeff == 1 and type(lt.coeff) is Fraction
        assert leading_term(v).coeff == 1
        assert all(type(c) is Fraction for _, c in v.items())


def test_kernel_generators_koszul():
    K = taylor_complex([X1, X2, X3], 3)
    cols = list(K.differential(1))
    kernel = kernel_generators(cols, K.basis(1), K.basis(0))
    # The kernel of d_1 is Z_1, spanned by the Koszul relations.
    assert len(kernel) == 3
    for v in kernel:
        image = K.apply(1, v)
        assert image.is_zero()


def test_kernel_of_injective_map_is_empty():
    basis0 = OrderedBasis(2, [BasisElement((0, 0))])
    basis1 = OrderedBasis(2, [BasisElement((1, 0))])
    cols = [ModuleVector(2, {(0, (1, 0)): Fraction(1)})]
    assert kernel_generators(cols, basis1, basis0) == []


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
            tail = tail + ModuleVector(n, {(t.position, t.monomial): t.coeff})
            rem = rem - ModuleVector(n, {(t.position, t.monomial): t.coeff})
        else:
            i, g, coeff, mono = hit
            quotient[(i, mono)] = quotient.get((i, mono), 0) + coeff
            rem = rem - _reference_scale(g, coeff, mono)
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
        s = (_reference_scale(f, 1, tuple(a - b for a, b in zip(l, lt_f.monomial)))
             - _reference_scale(g, 1, tuple(a - b for a, b in zip(l, lt_g.monomial))))
        rem = _reference_divide(s, elements)[1]
        if not rem.is_zero():
            add_element(rem)
    return elements


def _term_lists(elements):
    return [(list(v.items()), lt) for v, lt in elements]


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
    columns = list(C.differential(p + 1))
    basis = C.basis(p)
    how = draw(st.sampled_from(["as-is", "lex-refined", "tagged"]))
    if how == "lex-refined":
        basis, perm = basis.sort_lex_refined()
        columns = [v.map_positions(lambda pos: perm[pos]) for v in columns]
    elif how == "tagged":
        r = len(basis)
        source = C.basis(p + 1)
        basis = OrderedBasis(n, list(basis.elements)
                             + [BasisElement(e.degree, ("tag", e.label)) for e in source])
        columns = [col + ModuleVector.generator(n, r + j) for j, col in enumerate(columns)]
    return columns[:1] + [columns[0].scale(Fraction(-3, 2))] + columns[1:], basis


@settings(max_examples=100, deadline=None)
@given(spair_loop_inputs())
@example((list(taylor_complex([X1, X2, X3], 3).differential(2)) * 2,
          taylor_complex([X1, X2, X3], 3).basis(1)))
def test_spair_loop_matches_the_sorted_list_kernel(case):
    gens, basis = case
    assert _term_lists(_spair_loop(gens, basis)) == \
        _term_lists(_reference_spair_loop(gens, basis))


@st.composite
def division_cases(draw):
    """(lifts, divisions) from a seeded random ideal (n <= 4, m <= 5,
    exponents <= 3).  lifts are the (F, i, z) that the Taylor step cone
    lifts through d^F_i while it is built and that compose_cone_gb lifts,
    read from the reference cone's vector columns; divisions are (vector,
    reducers) pairs, each column of a Taylor or minimised differential
    divided by the other columns, some of them scaled by 5/3 so that leading
    coefficients are not 1."""
    I = random_monomial_ideal(trial_rng(draw(st.integers(0, 10**6)), 0), 4, 5, 3, min_gens=2)
    n, gens = I.n, list(I.gens)
    assume(len(gens) >= 2)
    _, phi = reference_taylor_step_cone(gens, n)
    G, F = phi.source, phi.target
    lifts = []
    for i in range(1, min(G.length, F.length) + 1):
        targets = [phi.apply(i - 1, G.apply(i, ModuleVector.generator(n, k)))
                   for k in range(G.rank(i))]
        targets += [-phi.apply(i - 1, z) for z in
                    buchberger(list(G.differential(i)), G.basis(i - 1)).generators]
        lifts += [(F, i, z) for z in targets if not z.is_zero()]
    divisions = []
    C = taylor_complex(gens, n)
    if draw(st.booleans()):
        C = minimize(C)
    for p in range(1, C.length + 1):
        columns = [col if k % 2 else col.scale(Fraction(5, 3))
                   for k, col in enumerate(C.differential(p)) if not col.is_zero()]
        for k, col in enumerate(columns):
            divisions.append((col, [(g, leading_term(g)) for g in columns[:k] + columns[k + 1:]]))
    return lifts, divisions


@settings(max_examples=60, deadline=None)
@given(division_cases())
def test_divide_matches_the_linear_scan_kernel(cases):
    # The lifter's quotients are the linear scan's, entry order included,
    # with the monomial a - deg e_c of column c, ints where integral; and
    # normal_form's remainder is the linear scan's.
    lifts, divisions = cases
    for F, i, z in lifts:
        columns = F.differential(i)
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
    for v, reducers in divisions:
        assert list(normal_form(v, reducers).items()) == \
            list(_reference_divide(v, reducers)[1].items())
