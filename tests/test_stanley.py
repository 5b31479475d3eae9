import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from syzdepth.complexes import syzygy_generators, taylor_complex
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
    interval_points,
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


def test_exact_sdepth_size_guard(search_limit):
    P = CharPoset(10, (1,) * 10, frozenset(itertools.product((0, 1), repeat=10)))
    search_limit("POINT_LIMIT", 100)
    with pytest.raises(ValueError, match="limit"):
        exact_sdepth(P)


def test_exact_search_node_budget_spans_every_target(search_limit):
    # The maximal ideal at n = 5 takes 1,524 search calls over the targets
    # d = 5, 4, 3, more than any one target takes alone.
    P = char_poset(maximal_ideal(5))
    search_limit("SEARCH_NODE_LIMIT", 1524)
    assert exact_sdepth(P).value == 3
    search_limit("SEARCH_NODE_LIMIT", 1523)
    with pytest.raises(ValueError, match="more than 1523 nodes"):
        exact_sdepth(P)


def test_ideal_sdepth_cache_respects_point_limit(search_limit):
    # A value searched under the default limit must not answer once a smaller
    # limit, which refuses the 7-point poset of the maximal ideal, is set.
    m = maximal_ideal(3)
    assert ideal_sdepth(m) == 2
    search_limit("POINT_LIMIT", 1)
    with pytest.raises(ValueError, match="7 points"):
        ideal_sdepth(m)


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
    K = taylor_complex([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
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
        ini = initial_module(syzygy_generators(C, p), C.basis(p))
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
    K = taylor_complex([(1, 0), (0, 1)], 2)
    ini = initial_module(syzygy_generators(K, 1), K.basis(1))
    bound = filtration_lower_bound(ini)
    values = [ideal_sdepth(c) for _, c in ini.nonzero_components()]
    assert bound.value == min(values)


# ---------------------------------------------------------------------------
# The frozenset search that exact_sdepth replaced, kept as the reference for
# its bitset search: same branching order, so the same partitions.


def reference_sdepth(P):
    if not P.points:
        return P.n, ()
    points_sorted = sorted(P.points)
    for d in range(reference_start_bound(P), -1, -1):
        partition = _reference_feasible_partition(P, points_sorted, d)
        if partition is not None:
            return d, tuple(partition)
    raise AssertionError("unreachable: singleton partitions always succeed")


def reference_start_bound(P):
    """min over points x of max value of Interval(x, y) over points y >= x.

    The interval covering x has its top among those y, so no partition has
    a larger value, and the targets above this are skipped.
    """
    return min(max(interval_value(Interval(x, y), P.cap) for y in P.points
                   if all(a <= b for a, b in zip(x, y)))
               for x in P.points)


def _reference_candidate_tops(P, a, d):
    tops = []
    for b in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(a, P.cap))):
        iv = Interval(a, b)
        value = interval_value(iv, P.cap)
        if value >= d:
            tops.append((value, b))
    tops.sort(key=lambda vb: (-vb[0], vb[1]))
    return [b for _, b in tops]


def _reference_feasible_partition(P, points_sorted, d):
    failed = set()
    candidates = {}

    def search(covered):
        uncovered_first = None
        for pt in points_sorted:
            if pt not in covered:
                uncovered_first = pt
                break
        if uncovered_first is None:
            return []
        if covered in failed:
            return None
        a = uncovered_first
        if a not in candidates:
            candidates[a] = _reference_candidate_tops(P, a, d)
        for b in candidates[a]:
            pts = []
            ok = True
            for pt in interval_points(Interval(a, b)):
                if pt not in P.points or pt in covered:
                    ok = False
                    break
                pts.append(pt)
            if not ok:
                continue
            rest = search(covered | frozenset(pts))
            if rest is not None:
                return [Interval(a, b)] + rest
        failed.add(covered)
        return None

    return search(frozenset())


# S/J with 110 points whose true value is 1.  Started at d = n, the bitset
# search spent 1,924,753 nodes refuting d = 2 and was refused, and the
# reference search took about 95 s.
POSET_110 = char_poset(MonomialIdeal(4, [unit(4)]),
                       MonomialIdeal(4, [(1, 1, 2, 1), (1, 2, 0, 2), (2, 1, 0, 2)]),
                       (3, 2, 3, 2))


def test_exact_sdepth_starts_at_the_bound_above_every_point():
    P = POSET_110
    assert P.size == 110
    result = exact_sdepth(P)
    assert result.value == 1
    assert min(interval_value(iv, P.cap) for iv in result.partition) == 1
    # Witness for sdepth <= 1: a point x with no point of value 2 or more
    # above it in P.  No interval starting at x, nor any other interval
    # covering x, then has value 2.
    witnesses = [x for x in P.points
                 if all(interval_value(Interval(x, y), P.cap) < 2 for y in P.points
                        if all(a <= b for a, b in zip(x, y)))]
    assert witnesses


@st.composite
def small_posets(draw):
    """Ideals I, quotients S/I and I/J with J inside I (n <= 4, exponents
    <= 2 in I), under the default cap or a larger one."""
    n = draw(st.sampled_from([1, 2, 3, 4]))
    mono = st.tuples(*[st.sampled_from([0, 1, 2])] * n)
    gens = draw(st.lists(mono.filter(any), min_size=1, max_size=4))
    I = MonomialIdeal(n, gens)
    kind = draw(st.sampled_from(["ideal", "S/I", "I/J"]))
    J = None
    if kind == "S/I":
        I, J = MonomialIdeal(n, [unit(n)]), I
    elif kind == "I/J":
        shifts = st.tuples(*[st.sampled_from([0, 1])] * n)
        J = MonomialIdeal(n, [tuple(a + b for a, b in zip(draw(st.sampled_from(I.gens)),
                                                          draw(shifts)))
                              for _ in range(draw(st.integers(1, 3)))])
    P = char_poset(I, J)
    if draw(st.booleans()):
        P = char_poset(I, J, tuple(e + draw(st.integers(0, 1)) for e in P.cap))
    return P


@settings(max_examples=150, deadline=None)
@given(small_posets())
@example(POSET_110)
def test_exact_sdepth_matches_reference_search(P):
    if P.size > 512:
        with pytest.raises(ValueError, match="limit"):
            exact_sdepth(P)
        return
    result = exact_sdepth(P)
    assert (result.value, result.partition) == reference_sdepth(P)


@pytest.mark.parametrize("gens", [[(2,)], [(2, 0), (0, 3)], [(2, 0), (1, 1), (0, 2)],
                                  [(1, 0, 0), (0, 2, 0), (0, 0, 3)]])
def test_exact_quotient_with_the_cap_past_every_point(gens):
    # The poset of sdepth --quotient: S/I under I's lcm exponent, which no
    # point of S/I reaches, so every candidate top's last coordinate lies
    # past the prefix tables of the points.
    n = len(gens[0])
    P = char_poset(MonomialIdeal(n, [unit(n)]), MonomialIdeal(n, gens))
    assert all(max(x[k] for x in P.points) < P.cap[k] for k in range(n))
    result = exact_sdepth(P)
    assert (result.value, result.partition) == reference_sdepth(P)
    validate_partition(P, result.partition)
