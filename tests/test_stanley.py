import itertools

import pytest

from syzdepth.complexes import koszul_complex, syzygy_generators, taylor_complex
from syzdepth.freemod import TermOrder
from syzdepth.groebner import initial_module
from syzdepth.syzygy import lex_refined_initial
from syzdepth.monomials import MonomialIdeal, unit
from syzdepth.stanley import (
    CharPoset,
    Interval,
    char_poset,
    exact_sdepth,
    filtration_lower_bound,
    ideal_sdepth,
    interval_value,
    partition_to_decomposition,
    validate_partition,
    verify_decomposition,
)


def maximal_ideal(n):
    return MonomialIdeal(n, [tuple(1 if j == i else 0 for j in range(n))
                             for i in range(n)])


def test_char_poset_examples():
    P = char_poset(MonomialIdeal(2, [(1, 0), (0, 1)]), g=(1, 1))
    assert P.points == {(1, 0), (0, 1), (1, 1)}
    P2 = char_poset(MonomialIdeal(1, [(2,)]))
    assert P2.cap == (2,) and P2.points == {(2,)}
    P3 = char_poset(MonomialIdeal(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)]))
    assert P3.cap == (1, 1, 1)
    assert P3.points == {(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)}


def test_char_poset_rejects_bad_quotient():
    with pytest.raises(ValueError, match="not contained"):
        char_poset(MonomialIdeal(2, [(2, 0)]), MonomialIdeal(2, [(0, 1)]))


def test_interval_value_examples():
    g = (1, 1, 1)
    assert interval_value(Interval((1, 0, 0), (1, 0, 1)), g) == 2
    assert interval_value(Interval((0, 0, 0), g), g) == 3
    assert interval_value(Interval((1, 0), (1, 1)), (2, 1)) == 1


def test_exact_sdepth_maximal_ideals():
    for n in range(1, 5):
        result = exact_sdepth(char_poset(maximal_ideal(n)))
        assert result.value == -(-n // 2)  # ceil(n/2)


def test_exact_sdepth_quotient_of_maximal_ideal():
    for n in (2, 3):
        P = char_poset(MonomialIdeal(n, [unit(n)]), maximal_ideal(n))
        assert exact_sdepth(P).value == 0


def test_exact_sdepth_principal():
    I = MonomialIdeal(3, [(1, 2, 0)])
    P = char_poset(I)
    result = exact_sdepth(P)
    assert result.value == 3
    assert result.partition == (Interval((1, 2, 0), (1, 2, 0)),)
    assert ideal_sdepth(I) == 3


def test_exact_sdepth_size_guard():
    P = CharPoset(10, (1,) * 10, frozenset(itertools.product((0, 1), repeat=10)))
    with pytest.raises(ValueError, match="limit"):
        exact_sdepth(P, max_points=100)


def test_ideal_sdepth_cache_respects_point_limit():
    # A value searched under the default limit must not answer a call whose
    # smaller limit refuses the 7-point poset of the maximal ideal.
    m = maximal_ideal(3)
    assert ideal_sdepth(m) == 2
    with pytest.raises(ValueError, match="7 points"):
        ideal_sdepth(m, max_points=1)


def test_validate_partition_faults():
    P = char_poset(maximal_ideal(2))
    good = [Interval((1, 0), (1, 1)), Interval((0, 1), (0, 1))]
    validate_partition(P, good)
    with pytest.raises(ValueError, match="twice"):
        validate_partition(P, [Interval((1, 0), (1, 1)), Interval((0, 1), (1, 1))])
    with pytest.raises(ValueError, match="not covered"):
        validate_partition(P, [Interval((1, 0), (1, 1))])
    with pytest.raises(ValueError, match="outside"):
        validate_partition(char_poset(MonomialIdeal(2, [(1, 1)])),
                           [Interval((0, 1), (1, 1))])


def test_filtration_bound_koszul_z1():
    K = koszul_complex([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    ini, _ = lex_refined_initial(K, 1)
    bound = filtration_lower_bound(ini)
    assert not bound.free
    assert bound.value == 2  # min(sdepth(x2,x3), sdepth(x3)) = min(2, 3)


def test_filtration_bound_free_module():
    from syzdepth.freemod import BasisElement, OrderedBasis
    from syzdepth.groebner import InitialModule

    ini = InitialModule(OrderedBasis(3, [BasisElement((0, 0, 0))]),
                        (MonomialIdeal(3, []),))
    bound = filtration_lower_bound(ini)
    assert bound.free and bound.value == 3


def test_filtration_bound_principal_component():
    from syzdepth.freemod import BasisElement, OrderedBasis
    from syzdepth.groebner import InitialModule

    ini = InitialModule(OrderedBasis(3, [BasisElement((0, 0, 0))]),
                        (MonomialIdeal(3, [(1, 2, 0)]),))
    assert filtration_lower_bound(ini).value == 3


def test_filtration_bound_regular_sequence_components():
    # Taylor components of a complete intersection are truncated regular
    # sequences; the bound matches n - floor((m-p)/2).
    gens = [(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 1)]
    n, m = 4, 3
    C = taylor_complex(gens, n)
    for p in range(1, m):
        ini = initial_module(syzygy_generators(C, p), TermOrder(C.basis(p), "lex"))
        bound = filtration_lower_bound(ini)
        assert bound.value >= n - (m - p) // 2


def test_shen_formula_small_complete_intersections():
    cases = [
        (2, [(1, 0), (0, 1)]),
        (3, [(1, 0, 0), (0, 2, 0)]),
        (4, [(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 2)]),
        (5, [(1, 1, 0, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 0, 1)]),
    ]
    for n, gens in cases:
        I = MonomialIdeal(n, gens)
        assert ideal_sdepth(I) == n - len(gens) // 2


def test_partition_to_decomposition_maximal_ideal():
    P = char_poset(maximal_ideal(3))
    partition = [Interval((1, 0, 0), (1, 1, 0)), Interval((0, 1, 0), (0, 1, 1)),
                 Interval((0, 0, 1), (1, 0, 1)), Interval((1, 1, 1), (1, 1, 1))]
    validate_partition(P, partition)
    dec = partition_to_decomposition(P, partition)
    assert sorted(len(Z) for _, Z in dec) == [2, 2, 2, 3]
    ok, bad = verify_decomposition(dec, maximal_ideal(3))
    assert ok, bad


def test_decomposition_single_interval():
    I = MonomialIdeal(2, [(1, 1)])
    P = char_poset(I)
    dec = partition_to_decomposition(P, [Interval((1, 1), (1, 1))])
    assert dec == [((1, 1), frozenset({0, 1}))]
    assert verify_decomposition(dec, I)[0]


def test_decomposition_overlap_detected():
    I = maximal_ideal(2)
    P = char_poset(I)
    dec = partition_to_decomposition(
        P, [Interval((1, 0), (1, 1)), Interval((0, 1), (1, 1))])
    ok, bad = verify_decomposition(dec, I)
    assert not ok and bad is not None


def test_certificates_verify_as_decompositions():
    # Every exact_sdepth certificate converts to a verified decomposition,
    # including non-squarefree caps where intervals expand to several summands.
    ideals = [
        maximal_ideal(3),
        MonomialIdeal(2, [(2, 0), (0, 2)]),
        MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)]),
        MonomialIdeal(3, [(1, 1, 0), (0, 1, 1)]),
    ]
    for I in ideals:
        P = char_poset(I)
        result = exact_sdepth(P)
        dec = partition_to_decomposition(P, result.partition)
        ok, bad = verify_decomposition(dec, I)
        assert ok, (I, bad)


def test_filtration_bound_below_exact_sdepth():
    # The filtration bound never exceeds the exact Stanley depth of the
    # syzygy components it is built from (it is their minimum).
    K = koszul_complex([(1, 0), (0, 1)], 2)
    ini = initial_module(syzygy_generators(K, 1), TermOrder(K.basis(1), "lex"))
    bound = filtration_lower_bound(ini)
    values = [ideal_sdepth(c) for _, c in ini.nonzero_components()]
    assert bound.value == min(values)
