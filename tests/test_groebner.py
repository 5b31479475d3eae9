from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from syzdepth.complexes import (
    is_minimal,
    koszul_complex,
    minimize,
    syzygy_generators,
    taylor_complex,
)
from syzdepth.freemod import BasisElement, ModuleVector, OrderedBasis, leading_term
from syzdepth.groebner import (
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
    K = koszul_complex([X1, X2, X3], 3)
    ini, gens = lex_refined_initial(K, 1)
    gb = buchberger(gens, ini.basis)
    lts = {(t.position, t.monomial) for t in gb.leading_terms()}
    assert lts == {(0, (0, 1, 0)), (0, (0, 0, 1)), (1, (0, 0, 1))}


def test_initial_module_koszul_z1():
    K = koszul_complex([X1, X2, X3], 3)
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
    K = koszul_complex([X1, X2, X3], 3)
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
@example((list(koszul_complex([X1, X2, X3], 3).differential(2)),
          koszul_complex([X1, X2, X3], 3).basis(1)))
@example((list(koszul_complex([X1, X2, X3], 3).differential(2)) * 2,
          koszul_complex([X1, X2, X3], 3).basis(1)))
def test_initial_module_is_the_reduced_basis_leading_terms(case):
    # initial_module stops at a minimal Groebner basis; its leading terms
    # are those of the reduced basis buchberger returns.
    gens, basis = case
    expected = monomial_module_from_terms(basis, buchberger(gens, basis).leading_terms())
    assert initial_module(gens, basis) == expected


def test_is_squarefree_module():
    K = koszul_complex([X1, X2, X3], 3)
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


def test_kernel_generators_koszul():
    K = koszul_complex([X1, X2, X3], 3)
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
