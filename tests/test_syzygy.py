import pytest

from syzdepth.complexes import (
    eliahou_kervaire,
    minimize,
    syzygy_generators,
    taylor_complex,
)
from syzdepth.freemod import leading_term
from syzdepth.groebner import buchberger, initial_module
from syzdepth.monomials import MonomialIdeal
from syzdepth.syzygy import (
    compose_cone_gb,
    lex_refined_initial,
    taylor_initial_component,
    verify_boundary_gb,
    verify_gunnar_step,
    verify_theorem_main,
)
from syzdepth.verify import taylor_step_cone

X1, X2, X3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
SQUARES = [(2, 0), (1, 1), (0, 2)]


def test_taylor_initial_component_examples():
    assert taylor_initial_component(SQUARES, frozenset({1, 2})).is_zero()
    assert taylor_initial_component(SQUARES, frozenset({3})).gens == ((1, 0),)
    # Regular sequences: I_F = (u_i : i < min F).
    gens = [X1, X2, X3]
    assert taylor_initial_component(gens, frozenset({3})).gens == ((0, 1, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        taylor_initial_component(SQUARES, frozenset())


def test_boundary_gb_taylor_three_way():
    for gens, n in [(SQUARES, 2), ([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3),
                    ([X1, X2, X3], 3)]:
        C = taylor_complex(gens, n)
        for p in range(1, C.length + 1):
            rep = verify_boundary_gb(C, p, taylor_gens=gens)
            assert rep.equal, (gens, p, rep.to_jsonable())


def test_boundary_gb_eliahou_kervaire():
    EK = eliahou_kervaire(MonomialIdeal(2, SQUARES))
    for p in range(1, EK.length + 1):
        assert verify_boundary_gb(EK, p).equal


def test_boundary_terms_under_lex_refined_basis():
    # Re-sorting the Taylor basis of (x1^2, x1x2, x2^2) lex-refined changes the
    # boundary leading terms; they still generate the initial module.
    C = taylor_complex(SQUARES, 2)
    oracle, gens = lex_refined_initial(C, 1)
    lts = {(t.position, t.monomial) for t in map(leading_term, gens)}
    assert lts == {(0, (0, 1)), (0, (0, 2)), (1, (0, 1))}
    from syzdepth.groebner import monomial_module_from_terms

    claimed = monomial_module_from_terms(oracle.basis, [leading_term(g) for g in gens])
    assert claimed.components == oracle.components


def test_compose_cone_gb_trivial_and_small():
    cone, phi = taylor_step_cone([(2, 0), (0, 2)], 2)
    F, G = phi.target, phi.source
    gbF = buchberger(syzygy_generators(F, 1), F.basis(1))
    gbG = buchberger(list(G.differential(1)), G.basis(0))
    composed = compose_cone_gb(gbF, gbG, phi, cone, 1)
    # F has a single generator, so Z_1(F) = 0 and everything lifts from G.
    assert len(gbF.generators) == 0
    assert len(composed) == len(gbG.generators)
    for v in composed:
        assert cone.apply(1, v).is_zero()


def test_compose_cone_gb_direct_sum_identity():
    gens = [(2, 0), (1, 1), (0, 2)]
    cone, phi = taylor_step_cone(gens, 2)
    F, G = phi.target, phi.source
    for i in range(1, cone.length):
        gbF = buchberger(syzygy_generators(F, i), F.basis(i))
        gbG = buchberger(list(G.differential(i)), G.basis(i - 1))
        composed = compose_cone_gb(gbF, gbG, phi, cone, i)
        assert composed  # certified inside compose_cone_gb


def test_compose_cone_gb_checks_against_the_oracle_it_is_given():
    gens = [(2, 0), (1, 1), (0, 2)]
    cone, phi = taylor_step_cone(gens, 2)
    F, G = phi.target, phi.source
    gbF = buchberger(syzygy_generators(F, 1), F.basis(1))
    gbG = buchberger(list(G.differential(1)), G.basis(0))
    oracle = initial_module(syzygy_generators(cone, 1), cone.basis(1))
    assert compose_cone_gb(gbF, gbG, phi, cone, 1, oracle=oracle) == \
        compose_cone_gb(gbF, gbG, phi, cone, 1)
    damaged = type(oracle)(oracle.basis, (MonomialIdeal(2, [(0, 1)]),)
                           + oracle.components[1:])
    with pytest.raises(RuntimeError, match="not a Groebner basis"):
        compose_cone_gb(gbF, gbG, phi, cone, 1, oracle=damaged)


def test_theorem_main_koszul():
    K = taylor_complex([X1, X2, X3], 3)
    for p in range(0, 4):
        rep = verify_theorem_main(K, p)
        assert rep.passed, rep.to_jsonable()
    components = verify_theorem_main(K, 1).witness["components"]["components"]
    assert components[0] == [[0, 0, 1], [0, 1, 0]]


def test_theorem_main_taylor_and_minimized():
    I = MonomialIdeal(2, SQUARES)
    C = taylor_complex(SQUARES, 2)
    for cx in (C, minimize(C)):
        for p in range(0, 3):
            assert verify_theorem_main(cx, p).passed


def test_theorem_main_p0_vacuous():
    C = taylor_complex(SQUARES, 2)
    rep = verify_theorem_main(C, 0)
    assert rep.passed and "note" in rep.witness


def test_gunnar_step_koszul():
    K = taylor_complex([X1, X2, X3], 3)
    rep = verify_gunnar_step(list(K.differential(1)), K.basis(1), K.basis(0), 1)
    assert rep.passed and rep.witness["kernel_size"] == 3


def test_gunnar_step_injective():
    C = taylor_complex([(2, 0)], 2)
    rep = verify_gunnar_step(list(C.differential(1)), C.basis(1), C.basis(0), 1)
    assert rep.passed and "vacuous" in rep.witness["note"]


def test_gunnar_step_taylor_squares():
    C = taylor_complex(SQUARES, 2)
    rep = verify_gunnar_step(list(C.differential(1)), C.basis(1), C.basis(0), 1)
    assert rep.passed


def test_gunnar_step_rejects_bad_hypothesis():
    # Image initial module meets x1, so the p=2 hypothesis fails.
    K = taylor_complex([X1, X2, X3], 3)
    with pytest.raises(ValueError, match="hypothesis"):
        verify_gunnar_step(list(K.differential(1)), K.basis(1), K.basis(0), 2)
