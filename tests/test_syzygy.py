import sys

import pytest

from syzdepth import freemod, syzygy, verify
from syzdepth.complexes import (
    FreeComplex,
    comparison_cone,
    eliahou_kervaire,
    minimize,
    syzygy_rows,
    taylor_complex,
)
from syzdepth.freemod import BasisElement, OrderedBasis
from syzdepth.groebner import buchberger, initial_module, kernel_generators, leading_module
from syzdepth.monomials import MonomialIdeal
from syzdepth.syzygy import (
    TheoremReport,
    boundary_leading_terms,
    compose_cone_gb,
    lex_refined_initial,
    taylor_initial_component,
    verify_boundary_gb,
    verify_gunnar_step,
    verify_theorem_main,
)
from syzdepth.verify import THEOREMS, VerifyJob, run_verify_job, taylor_step_cone

from reference_cones import apply_columns
from reference_groebner import leading_term
from reference_vectors import differential, row_vectors

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


def test_taylor_initial_component_refuses_an_exponent_at_the_cap():
    with pytest.raises(ValueError, match=r"^exponent overflow in \(2147483648, 0\)$"):
        taylor_initial_component([(2**31, 0), (0, 1)], frozenset({2}))


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
    oracle, (rows, degrees) = lex_refined_initial(C, 1)
    gens = row_vectors(rows, degrees, oracle.basis)
    lts = {(t.position, t.monomial) for t in map(leading_term, gens)}
    assert lts == {(0, (0, 1)), (0, (0, 2)), (1, (0, 1))}
    assert leading_module(rows, degrees, oracle.basis).components == oracle.components


def test_compose_cone_gb_trivial_and_small():
    cone, phi = taylor_step_cone([(2, 0), (0, 2)], 2)
    F, G = phi.target, phi.source
    gbF = buchberger(*syzygy_rows(F, 1), F.basis(1))
    gbG = buchberger(*syzygy_rows(G, 0), G.basis(0))
    rows, degrees = compose_cone_gb(gbF, gbG, phi, cone, 1)
    # F has a single generator, so Z_1(F) = 0 and everything lifts from G.
    assert len(gbF.rows) == 0
    assert len(rows) == len(gbG.rows)
    for v in row_vectors(rows, degrees, cone.basis(1)):
        assert apply_columns(differential(cone, 1), v, 2).is_zero()


def test_compose_cone_gb_direct_sum_identity():
    gens = [(2, 0), (1, 1), (0, 2)]
    cone, phi = taylor_step_cone(gens, 2)
    F, G = phi.target, phi.source
    for i in range(1, cone.length):
        gbF = buchberger(*syzygy_rows(F, i), F.basis(i))
        gbG = buchberger(*syzygy_rows(G, i - 1), G.basis(i - 1))
        rows, _ = compose_cone_gb(gbF, gbG, phi, cone, i)
        assert rows  # certified inside compose_cone_gb


def test_compose_cone_gb_checks_against_the_oracle_it_is_given():
    gens = [(2, 0), (1, 1), (0, 2)]
    cone, phi = taylor_step_cone(gens, 2)
    F, G = phi.target, phi.source
    gbF = buchberger(*syzygy_rows(F, 1), F.basis(1))
    gbG = buchberger(*syzygy_rows(G, 0), G.basis(0))
    oracle = initial_module(*syzygy_rows(cone, 1), cone.basis(1))
    assert compose_cone_gb(gbF, gbG, phi, cone, 1, oracle=oracle) == \
        compose_cone_gb(gbF, gbG, phi, cone, 1)
    damaged = type(oracle)(oracle.basis, (MonomialIdeal(2, [(0, 1)]),)
                           + oracle.components[1:])
    with pytest.raises(RuntimeError, match="not a Groebner basis"):
        compose_cone_gb(gbF, gbG, phi, cone, 1, oracle=damaged)


@pytest.mark.parametrize("gens", [SQUARES, [X1, X2, X3],
                                  [(2, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 2), (1, 0, 1)]])
def test_compose_cone_gb_refuses_a_damaged_chain_map(gens):
    # phi is not checked, so the cycle test and the lifts are its guard: one
    # coefficient of phi_{i-1} scaled by -2 is refused at every level.
    cone, phi = taylor_step_cone(gens, len(gens[0]))
    F, G = phi.target, phi.source
    for i in range(1, F.length + 1):
        gbF = buchberger(*syzygy_rows(F, i), F.basis(i))
        gbG = buchberger(*syzygy_rows(G, i - 1), G.basis(i - 1))
        rows = [list(level) for level in phi.rows]
        j = next(j for j, row in enumerate(rows[i - 1]) if row)
        r = next(iter(rows[i - 1][j]))
        rows[i - 1][j] = {**rows[i - 1][j], r: -2 * rows[i - 1][j][r]}
        with pytest.raises(RuntimeError, match="not a cycle|lifting failed"):
            compose_cone_gb(gbF, gbG, phi._replace(rows=rows), cone, i)
        assert compose_cone_gb(gbF, gbG, phi, cone, i)


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


def test_theorem_main_fails_on_a_complex_that_is_not_exact():
    # d_2 sends e, of degree x1, to x1 e' and d_1 = 0, so Z_1 is all of F_1
    # but its generators are read from d_2's columns: ini(Z_1) holds x1.
    bases = [OrderedBasis(2, [BasisElement((0, 0))]),
             OrderedBasis(2, [BasisElement((0, 0))]),
             OrderedBasis(2, [BasisElement((1, 0))])]
    C = FreeComplex(2, bases, [[{}], [{0: 1}]])
    rep = verify_theorem_main(C, 1)
    assert rep.status == "FAIL"
    assert rep.witness["offender"] == {"position": 0, "generator": [1, 0]}
    assert rep.witness["components"] == lex_refined_initial(C, 1)[0].to_jsonable()


def test_gunnar_step_fails_on_a_kernel_that_meets_x1(monkeypatch):
    # The Koszul map of (x1, x2, x3) passes at p = 1; a kernel element
    # x1 e_1 put in place of the true kernel must fail it.
    def kernel_meeting_x1(rows, source, target):
        degree = source.degrees[0]
        return [{0: 1}], [(degree[0] + 1,) + degree[1:]]

    monkeypatch.setattr(syzygy, "_kernel_generators", kernel_meeting_x1)
    K = taylor_complex([X1, X2, X3], 3)
    rep = verify_gunnar_step(syzygy_rows(K, 0)[0], K.basis(1), K.basis(0), 1)
    assert rep.status == "FAIL" and rep.witness["kernel_size"] == 1
    assert rep.witness["offender"] == {"position": 0, "generator": [1, 0, 0]}


def test_gunnar_step_koszul():
    K = taylor_complex([X1, X2, X3], 3)
    rep = verify_gunnar_step(syzygy_rows(K, 0)[0], K.basis(1), K.basis(0), 1)
    assert rep.passed and rep.witness["kernel_size"] == 3


def test_gunnar_step_injective():
    C = taylor_complex([(2, 0)], 2)
    rep = verify_gunnar_step(syzygy_rows(C, 0)[0], C.basis(1), C.basis(0), 1)
    assert rep.passed and "vacuous" in rep.witness["note"]


def test_gunnar_step_taylor_squares():
    C = taylor_complex(SQUARES, 2)
    rep = verify_gunnar_step(syzygy_rows(C, 0)[0], C.basis(1), C.basis(0), 1)
    assert rep.passed


def test_gunnar_step_rejects_bad_hypothesis():
    # Image initial module meets x1, so the p=2 hypothesis fails.
    K = taylor_complex([X1, X2, X3], 3)
    with pytest.raises(ValueError, match="hypothesis"):
        verify_gunnar_step(syzygy_rows(K, 0)[0], K.basis(1), K.basis(0), 2)


# Two target basis elements of degree 0 and one source element of degree x1.
GUNNAR_TARGET = OrderedBasis(2, [BasisElement((0, 0)), BasisElement((0, 0))])
GUNNAR_SOURCE = OrderedBasis(2, [BasisElement((1, 0))])


def test_gunnar_step_refuses_a_position_below_the_target():
    # The column x1 at position -1 once wrapped, through the lex-refined
    # relabelling, to the last target position, and the step passed.
    with pytest.raises(ValueError, match="^the map: column 0 has position -1, "
                                         "outside a basis of rank 2$"):
        verify_gunnar_step([{-1: 1}], GUNNAR_SOURCE, GUNNAR_TARGET, 1)


def test_gunnar_step_refuses_more_columns_than_the_source_rank():
    # A second column once raised IndexError from the relabelling.
    with pytest.raises(ValueError, match="^the map has 2 columns, expected 1$"):
        verify_gunnar_step([{0: 1}, {1: 1}], GUNNAR_SOURCE, GUNNAR_TARGET, 1)


@pytest.mark.parametrize("rows, message", [
    ([{0: 1, 1: 0}], "coefficient 0 at position 1, not a nonzero int or Fraction"),
    ([{0: 1.0}], "coefficient 1.0 at position 0, not a nonzero int or Fraction"),
], ids=["zero", "float"])
def test_gunnar_step_refuses_a_zero_or_float_coefficient(rows, message):
    with pytest.raises(ValueError, match=f"^the map: column 0 has {message}$"):
        verify_gunnar_step(rows, GUNNAR_SOURCE, GUNNAR_TARGET, 1)


def test_a_level_outside_the_complex_is_refused():
    # A negative level once read the top level: at p = -1, the module on the
    # basis of degree (1, 1) of the Taylor complex of (x1, x2).
    C = taylor_complex([(1, 0), (0, 1)], 2)
    assert C.basis(C.length).degrees == ((1, 1),)
    message = r"homological degree -1 is outside 0\.\.2"
    with pytest.raises(ValueError, match=message):
        lex_refined_initial(C, -1)
    with pytest.raises(ValueError, match=message):
        boundary_leading_terms(C, -1)
    with pytest.raises(ValueError, match=r"homological degree 3 is outside 0\.\.2"):
        verify_boundary_gb(C, C.length + 1)


# ---------------------------------------------------------------------------
# One check per public input: the library's own rows are not checked again.


@pytest.fixture
def checks(monkeypatch):
    """The names of the check_rows calls made while the test runs, through
    every syzdepth module that holds check_rows."""
    names, real = [], freemod.check_rows

    def counted(name, *args):
        names.append(name)
        return real(name, *args)

    for module in [m for key, m in sys.modules.items() if key.startswith("syzdepth")]:
        if getattr(module, "check_rows", None) is real:
            monkeypatch.setattr(module, "check_rows", counted)
    return names


def test_kernel_generators_checks_its_map_once(checks):
    K = taylor_complex([X1, X2, X3], 3)
    kernel, _ = kernel_generators(syzygy_rows(K, 0)[0], K.basis(1), K.basis(0))
    assert len(kernel) == 3
    assert checks == ["the map"]


def test_gunnar_step_checks_its_map_once(checks):
    K = taylor_complex([X1, X2, X3], 3)
    assert verify_gunnar_step(syzygy_rows(K, 0)[0], K.basis(1), K.basis(0), 1).passed
    assert checks == ["the map"]


def test_leading_module_checks_its_rows_once(checks):
    # The parent made the leading monomial (-1, 0) of this row and refused
    # it in the ideal's constructor; the rows' check now refuses the row.
    basis = OrderedBasis(2, [BasisElement((1, 0))])
    assert leading_module([{0: 1}], [(1, 1)], basis).components[0].gens == ((0, 1),)
    assert checks == ["the rows"]
    with pytest.raises(ValueError, match=r"^the rows: column 0 has degree \(0, 0\), which "
                                         r"the degree \(1, 0\) of position 0 does not divide$"):
        leading_module([{0: 1}], [(0, 0)], basis)


def test_comparison_cone_checks_nothing(checks):
    # The cone of the last Taylor step of the squares, read at every level,
    # and its chain map.
    F = taylor_complex(SQUARES[:2], 2)
    cone, phi = comparison_cone(F, [(1, 0)], SQUARES[2])
    assert [len(level) for level in phi.rows] == [1, 1]
    assert [cone.basis(p).degrees for p in range(cone.length + 1)] == [
        ((0, 0),), ((0, 2), (1, 1), (2, 0)), ((1, 2), (2, 1))]
    assert [syzygy_rows(cone, p) for p in range(cone.length)]
    assert checks == []


@pytest.mark.parametrize("theorem", THEOREMS)
def test_a_verify_trial_checks_nothing(checks, theorem):
    job = VerifyJob(theorem, trials=3, seed=1, n_max=4, m_max=4, exp_max=2)
    assert [report["status"] for report in run_verify_job(job)] == ["PASS"] * 3
    assert checks == []


def test_a_failed_theorem_main_trial_embeds_the_report_with_its_instance(monkeypatch):
    # The theorem holds, so a failing check is put in its place.  The
    # trial's witness is the failing report, the trial's instance included.
    monkeypatch.setattr(verify, "verify_theorem_main",
                        lambda C, p: TheoremReport("theorem-main", p, "FAIL", {"offender": 1}))
    job = VerifyJob("theorem-main", trials=1, seed=0, n_max=3, m_max=3, exp_max=2)
    [report] = run_verify_job(job)
    assert report["status"] == "FAIL"
    assert report["witness"] == {"complex": "taylor", "instance": report["instance"],
                                 "theorem": "theorem-main", "p": 0, "status": "FAIL",
                                 "witness": {"offender": 1}}


def test_a_complex_from_outside_checks_each_level_once(checks):
    K = taylor_complex([X1, X2, X3], 3)
    rows = [syzygy_rows(K, p)[0] for p in range(K.length)]
    C = FreeComplex(3, K.bases, rows)
    assert checks == ["differential 1", "differential 2", "differential 3"]
    assert verify_boundary_gb(C, 1).equal and lex_refined_initial(C, 2)
    assert len(checks) == 3
