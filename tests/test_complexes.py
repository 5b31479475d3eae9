import random
from fractions import Fraction

import pytest

from syzdepth.complexes import (
    ChainMap,
    FreeComplex,
    check_complex,
    check_exactness_on_box,
    complex_to_jsonable,
    eliahou_kervaire,
    is_minimal,
    is_stable,
    koszul_complex,
    linear_quotients,
    mapping_cone,
    minimize,
    stable_closure,
    stable_order,
    syzygy_generators,
    taylor_complex,
)
from syzdepth.freemod import BasisElement, ModuleVector, OrderedBasis
from syzdepth.instances import random_monomial_ideal, trial_rng
from syzdepth.monomials import MonomialIdeal

X1, X2, X3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def test_taylor_single_generator():
    C = taylor_complex([(2, 0)], 2)
    assert C.ranks == (1, 1)
    assert C.basis(1).degrees == ((2, 0),)
    col = C.differential(1)[0]
    assert col == ModuleVector(2, {(0, (2, 0)): Fraction(1)})


def test_taylor_regular_sequence_is_koszul():
    T = taylor_complex([X1, X2, X3], 3)
    K = koszul_complex([X1, X2, X3], 3)
    assert T.ranks == (1, 3, 3, 1)
    for p in range(1, 4):
        assert T.differential(p) == K.differential(p)
    assert is_minimal(T)


def test_taylor_unit_generator_rejected():
    with pytest.raises(ValueError, match="unit"):
        taylor_complex([(0, 0)], 2)


def test_taylor_top_entry():
    # lcm({1,2,3})/lcm({1,2}) = 1 for x1x2, x2x3, x1x3: a unit entry.
    C = taylor_complex([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3)
    positions = {e.label: i for i, e in enumerate(C.basis(2))}
    col = C.differential(3)[0]
    assert col.coefficient(positions[frozenset({1, 2})], (0, 0, 0)) == 1


def test_koszul_warns_on_irregular():
    with pytest.warns(UserWarning, match="regular"):
        koszul_complex([(1, 1, 0), (0, 1, 1)], 3)


def test_koszul_signs():
    C = koszul_complex([(1, 0), (0, 1)], 2)
    col = C.differential(2)[0]
    labels = {e.label: i for i, e in enumerate(C.basis(1))}
    # d(e_12) = x1 e_2 - x2 e_1 with the printed sign convention.
    assert col.coefficient(labels[frozenset({2})], (1, 0)) == 1
    assert col.coefficient(labels[frozenset({1})], (0, 1)) == -1


def test_koszul_ranks_binomial():
    C = koszul_complex([X1, X2, X3], 3)
    assert C.ranks == (1, 3, 3, 1)
    C2 = koszul_complex([(2, 0), (0, 3)], 2)
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
    import itertools

    from syzdepth.freemod import graded_dimension
    from syzdepth.verify import taylor_step_cone

    for gens, n in [([(2, 0), (1, 1), (0, 2)], 2),
                    ([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3)]:
        cone, phi = taylor_step_cone(gens, n)
        G, F = phi.source, phi.target
        box = cone.degree_box()
        for i in range(1, cone.length + 1):
            zc = syzygy_generators(cone, i)
            zf = syzygy_generators(F, i) if i <= F.length else []
            zg = list(G.differential(i)) if i <= G.length else []
            for a in itertools.product(*(range(b + 1) for b in box)):
                left = graded_dimension(zc, a, cone.basis(i)) if zc else 0
                right = (graded_dimension(zf, a, F.basis(i)) if zf else 0) + \
                        (graded_dimension(zg, a, G.basis(i - 1)) if zg else 0)
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
    K = koszul_complex([X1, X2, X3], 3)
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
    K = koszul_complex([X1, X2, X3], 3)
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
    K = koszul_complex([X1, X2, X3], 3)
    assert minimize(K).ranks == K.ranks


def test_minimized_bases_are_lex_refined():
    C = taylor_complex([(2, 0), (1, 1), (0, 2)], 2)
    M = minimize(C)
    for p in range(M.length + 1):
        assert M.basis(p).is_lex_refined()


def test_exactness_examples():
    I = MonomialIdeal(2, [(1, 0), (0, 1)])
    K = koszul_complex([(1, 0), (0, 1)], 2)
    assert check_exactness_on_box(K, I, (2, 2)).ok
    # A duplicated generator still gives a resolution.
    dup = taylor_complex([(1, 0), (1, 0)], 2)
    assert check_exactness_on_box(dup, MonomialIdeal(2, [(1, 0)])).ok


def test_exactness_detects_corrupted_sign():
    I = MonomialIdeal(2, [(1, 0), (0, 1)])
    K = koszul_complex([(1, 0), (0, 1)], 2)
    # Flip one sign inside d_2: x1 e2 + x2 e1 no longer maps onto the syzygy.
    col = K.differential(2)[0]
    flipped = ModuleVector(2, {key: (c if key[0] == 0 else -c)
                               for key, c in col.items()})
    broken = FreeComplex(2, K.bases, [K.differential(1), [flipped]])
    report = check_exactness_on_box(broken, I)
    assert not report.ok
    assert report.failures


TRUNCATED_GENS = [(2, 0, 1), (1, 1, 0), (0, 2, 1)]


def _truncated_taylor_report(scale=1):
    """Exhaustive report on the Taylor complex of TRUNCATED_GENS without the
    first basis element of F_2, with every column of d_1 scaled."""
    C = taylor_complex(TRUNCATED_GENS, 3)
    F2 = OrderedBasis(3, C.basis(2).elements[1:])
    T = FreeComplex(3, [C.basis(0), C.basis(1), F2],
                    [[col.scale(scale) for col in C.differential(1)],
                     C.differential(2)[1:]])
    return check_exactness_on_box(T, MonomialIdeal(3, TRUNCATED_GENS), exhaustive=True)


def test_exactness_failures_of_a_truncated_taylor_complex():
    # Dropping a basis element of F_2 leaves H_1 nonzero; every failing
    # degree of the box is reported, in the order of the walk.
    report = _truncated_taylor_report()
    assert not report.ok
    assert report.failures == [(1, (1, 2, 1)), (1, (1, 2, 2)), (1, (1, 3, 1)),
                               (1, (1, 3, 2))]
    assert report.degrees_checked == 48


def test_exactness_reports_the_level_the_exact_ranks_find():
    # Scaling d_1 by P kills it mod P, so a modular rank would blame level 0;
    # the exact ranks clear level 0 and fail at level 1.
    report = _truncated_taylor_report(scale=(1 << 61) - 1)
    assert not report.ok
    assert report.failures == [(1, (1, 2, 1)), (1, (1, 2, 2)), (1, (1, 3, 1)),
                               (1, (1, 3, 2))]
    assert report.degrees_checked == 48


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
    K = koszul_complex([(1, 0), (0, 1)], 2)
    scaled = FreeComplex(2, K.bases, [K.differential(1),
                                      [K.differential(2)[0].scale(P)]])
    report = check_exactness_on_box(scaled, MonomialIdeal(2, [(1, 0), (0, 1)]))
    assert report.ok and report.degrees_checked == 9


def test_lift_by_slice():
    # The fallback of lift_through: exact linear algebra on one slice.
    from syzdepth.complexes import _lift_by_slice

    C = taylor_complex([(2, 0, 1), (1, 1, 0), (0, 2, 1)], 3)
    top = (2, 2, 1)
    for p in range(1, C.length + 1):
        v = ModuleVector(3)
        for j, e in enumerate(C.basis(p)):
            shift = tuple(t - d for t, d in zip(top, e.degree))
            v = v + ModuleVector.generator(3, j, shift, coeff=j + 1)
        z = C.apply(p, v)
        assert C.apply(p, _lift_by_slice(C, p, z)) == z
    with pytest.raises(RuntimeError, match="lifting failed"):
        _lift_by_slice(C, 1, ModuleVector.generator(3, 0, (1, 0, 0)))
    mixed = ModuleVector.generator(3, 0, (2, 0, 1)) + ModuleVector.generator(3, 0, (1, 1, 1))
    with pytest.raises(ValueError, match="multihomogeneous"):
        _lift_by_slice(C, 1, mixed)


def test_complex_json_roundtrip_shape():
    C = taylor_complex([(1, 0), (0, 1)], 2)
    data = complex_to_jsonable(C)
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
