from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from syzdepth import linalg

from syzdepth.freemod import (
    BasisElement,
    DegreeMasks,
    ModuleVector,
    OrderedBasis,
    Slices,
    leading_term,
    multidegree_of,
)
from syzdepth.monomials import unit


def basis_of(*degrees):
    n = len(degrees[0])
    return OrderedBasis(n, [BasisElement(d) for d in degrees])


def test_sort_lex_refined_examples():
    b = basis_of((1, 1), (2, 0), (0, 2))
    sorted_b, perm = b.sort_lex_refined()
    assert sorted_b.degrees == ((2, 0), (1, 1), (0, 2))
    assert perm == (1, 0, 2)

    already = basis_of((2, 0), (1, 1))
    s, perm = already.sort_lex_refined()
    assert perm == (0, 1) and s.degrees == already.degrees

    ties = OrderedBasis(2, [BasisElement((1, 0), "a"), BasisElement((1, 0), "b")])
    s, perm = ties.sort_lex_refined()
    assert perm == (0, 1)
    assert [e.label for e in s] == ["a", "b"]


def test_leading_term_position_rule():
    v = ModuleVector(2, {(0, (0, 1)): Fraction(1), (1, (1, 0)): Fraction(-1)})
    b = basis_of((1, 0), (0, 1))
    assert multidegree_of(v, b) == (1, 1)
    t = leading_term(v)
    assert (t.position, t.monomial) == (0, (0, 1))
    # Reversing the basis order flips which term leads.
    flipped = ModuleVector(2, {(1, (0, 1)): Fraction(1), (0, (1, 0)): Fraction(-1)})
    assert multidegree_of(flipped, basis_of((0, 1), (1, 0))) == (1, 1)
    t2 = leading_term(flipped)
    assert (t2.position, t2.monomial) == (0, (1, 0))


def test_leading_term_scalar_order():
    # Within one position monomials compare lexicographically.
    v = ModuleVector(2, {(0, (1, 0)): Fraction(1), (0, (0, 1)): Fraction(1)})
    t = leading_term(v)
    assert t.monomial == (1, 0)


def test_leading_term_zero_raises():
    with pytest.raises(ValueError, match="no leading term"):
        leading_term(ModuleVector(2))


def test_coefficients_are_fractions():
    # Ints become Fractions, so that quotients of coefficients stay exact.
    half = Fraction(1, 2)
    v = ModuleVector(2, {(0, (1, 0)): 3, (1, (0, 1)): half})
    assert [type(c) for _, c in v.items()] == [Fraction, Fraction]
    assert v.coefficient(0, (1, 0)) / 2 == Fraction(3, 2)
    assert v.coefficient(1, (0, 1)) is half
    assert ModuleVector(2, [((0, (1, 0)), 1), ((0, (1, 0)), 2)]).coefficient(0, (1, 0)) == 3


def test_multidegree_of():
    b = basis_of((1, 0), (0, 1))
    v = ModuleVector(2, {(0, (0, 1)): Fraction(1), (1, (1, 0)): Fraction(-1)})
    assert multidegree_of(v, b) == (1, 1)
    mixed = ModuleVector(2, {(0, (1, 0)): Fraction(1), (0, (0, 0)): Fraction(1)})
    assert multidegree_of(mixed, b) is None
    assert multidegree_of(ModuleVector(2), b) is None
    assert ModuleVector(2).is_zero()


def _brute_rank(rows):
    # Independent tiny row reduction over Fractions.
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_slices_reject_mixed_vectors():
    b = basis_of((0, 0))
    gens = [ModuleVector(2, {(0, (1, 0)): Fraction(1)}),
            ModuleVector(2, {(0, (0, 1)): Fraction(1)})]
    slices = Slices(gens, b)
    # x2*(x1 e) and x1*(x2 e) are the same coordinate vector.
    assert slices.rank(slices.active((1, 1))) == _brute_rank([[1], [1]]) == 1
    assert slices.rank(slices.active((0, 0))) == 0
    mixed = ModuleVector(2, {(0, (1, 0)): Fraction(1), (0, (0, 0)): Fraction(1)})
    with pytest.raises(ValueError, match="multihomogeneous"):
        Slices([mixed], b)


coeffs = st.integers(-3, 3)
monos = st.tuples(st.integers(0, 2), st.integers(0, 2))


@st.composite
def multihomogeneous_vectors(draw):
    # Terms in a rank-3 module, forced to share one total multidegree.
    degrees = ((1, 0), (0, 1), (0, 0))
    total = draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
    terms = {}
    for pos, d in enumerate(degrees):
        c = draw(coeffs)
        mono = tuple(t - e for t, e in zip(total, d))
        if c and all(x >= 0 for x in mono):
            terms[(pos, mono)] = Fraction(c)
    return ModuleVector(2, terms), OrderedBasis(2, [BasisElement(d) for d in degrees])


@given(multihomogeneous_vectors())
def test_multihomogeneous_vector_has_one_term_per_position(pair):
    # The term at position j can only be x^(d - deg e_j), so the monomial
    # order never breaks a tie: the leading term sits at the first position.
    v, basis = pair
    positions = [pos for (pos, _), _ in v.items()]
    assert len(positions) == len(set(positions))
    if not v.is_zero():
        d = multidegree_of(v, basis)
        t = leading_term(v)
        assert t.position == min(positions)
        assert t.monomial == tuple(a - b for a, b in zip(d, basis.degree(t.position)))


@given(st.integers(1, 5).flatmap(lambda c: st.lists(
    st.lists(st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4),
             min_size=c, max_size=c), max_size=6)))
@example([[0, 0, 1], [0, 1, 0], [2, 0, 0]])
def test_exact_rank_matches_reference_rank(rows):
    # Against the independent Fraction reduction above, with the rows fed as
    # sparse dicts.  The example is kept from the dense Bareiss kernel, which
    # skipped its last row at the first pivot and divided it by that pivot at
    # the next, and so lost a rank.
    assert linalg.exact_rank(_sparse(rows)) == _brute_rank(rows)


def _sparse(rows):
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


BIG = 10 ** 20
big_entries = (st.sampled_from([0, 0, 1, -1]) | st.integers(-BIG, BIG)
               | st.fractions(-BIG, BIG, max_denominator=10 ** 6))
factors = (st.integers(-BIG, BIG) | st.fractions(-BIG, BIG, max_denominator=10 ** 6)).filter(bool)


@st.composite
def dependent_rows(draw):
    """(rows, column order): entries up to 10^20 in size, Fractions with
    denominators up to 10^6, and rows that duplicate a row, are a multiple
    of one, or add a multiple of one row to another."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(big_entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 4))):
        u = draw(st.sampled_from(rows))
        v = draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(["duplicate", "proportional", "combination"]))
        if kind == "duplicate":
            new = list(u)
        else:
            f = draw(factors)
            new = [f * x for x in u] if kind == "proportional" else \
                [x + f * y for x, y in zip(u, v)]
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows, draw(st.permutations(range(ncols)))


@given(dependent_rows())
@example(([[1, 1, 0], [1, 0, 1], [0, -1, 1]], [0, 1, 2]))
@example(([[2, 2], [1, 1]], [0, 1]))
@example(([[Fraction(1, 2), Fraction(1, 3)], [3, 2]], [1, 0]))
def test_exact_rank_on_large_fractional_and_dependent_rows(case):
    # The sparse rows list their columns in a drawn order, so that the
    # leading column need not be the first key, and exact_rank leaves them
    # as they were.  Examples: the second row reduces to {2: 1, 1: -1},
    # whose leading column is not its first key; 2 * (1, 1) - (2, 2)
    # needs the multiply by the pivot; the lcm 6 makes both rows (3, 2).
    rows, order = case
    sparse = [{c: row[c] for c in order if row[c]} for row in rows]
    before = [list(row.items()) for row in sparse]
    assert linalg.exact_rank(sparse) == _brute_rank(rows)
    assert [list(row.items()) for row in sparse] == before


def test_integer_row_scales_by_the_lcm_of_the_denominators():
    row = {3: Fraction(1, 4), 0: Fraction(5, 6), 1: 2, 2: Fraction(-4, 1)}
    assert linalg.integer_row(row) == {3: 3, 0: 10, 1: 24, 2: -48}
    assert [type(x) for x in linalg.integer_row(row).values()] == [int] * 4
    assert linalg.integer_row({0: Fraction(7), 1: -1}) == {0: 7, 1: -1}


@given(st.lists(multihomogeneous_vectors(), max_size=4),
       st.tuples(st.integers(0, 4), st.integers(0, 4)))
def test_slice_rank_matches_coordinate_rank(pairs, a):
    # Reference: the multiples x^(a - deg v) v in (position, monomial)
    # coordinates, reduced by the independent row reduction above.
    basis = basis_of((1, 0), (0, 1), (0, 0))
    vectors = [v for v, _ in pairs]
    multiples = []
    for v in vectors:
        d = multidegree_of(v, basis)
        if d is not None and all(x <= y for x, y in zip(d, a)):
            multiples.append(v.scale(1, tuple(y - x for x, y in zip(d, a))))
    coords = sorted({key for w in multiples for key, _ in w.items()})
    expected = _brute_rank([[w.coefficient(*key) for key in coords] for w in multiples])
    slices = Slices(vectors, basis)
    mask = slices.active(a)
    assert slices.rank(mask) == expected


@given(st.lists(st.tuples(st.integers(0, 2), monos, coeffs), max_size=5),
       st.lists(st.tuples(st.integers(0, 2), monos, coeffs), max_size=5))
def test_addition_roundtrip(raw_v, raw_w):
    v = ModuleVector(2, {(p, m): Fraction(c) for p, m, c in raw_v if c})
    w = ModuleVector(2, {(p, m): Fraction(c) for p, m, c in raw_w if c})
    assert (v + w) - w == v


@given(st.lists(st.tuples(st.integers(0, 2), monos, coeffs), min_size=1, max_size=5),
       monos)
def test_leading_term_is_multiplicative(raw, m):
    v = ModuleVector(2, {(p, mo): Fraction(c) for p, mo, c in raw if c})
    if v.is_zero():
        return
    t = leading_term(v)
    tm = leading_term(v.scale(1, m))
    assert tm.position == t.position
    assert tm.monomial == tuple(a + b for a, b in zip(t.monomial, m))


def reference_dividing(masks, a):
    """DegreeMasks.dividing as it read when it clamped every coordinate."""
    mask = masks.full
    for below, t in zip(masks.at_most, a):
        mask &= below[min(t, len(below) - 1)]
    return mask


def reference_multiples(masks, a):
    """DegreeMasks.multiples as it read when it clamped every coordinate."""
    mask = masks.full
    for below, t in zip(masks.at_most, a):
        if t > 0:
            mask &= ~below[min(t - 1, len(below) - 1)]
    return mask


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_degree_masks_match_the_clamping_reference(data):
    # Vectors without a degree are the zero vectors Slices admits; queries
    # reach past every table and include zero coordinates.
    n = data.draw(st.integers(1, 4))
    degrees = data.draw(st.lists(st.none() | st.tuples(*[st.integers(0, 3)] * n),
                                 max_size=12))
    masks = DegreeMasks([(i, d) for i, d in enumerate(degrees) if d is not None],
                        n, len(degrees))
    queries = data.draw(st.lists(st.tuples(*[st.integers(0, 6)] * n), max_size=8))
    for a in queries + [(0,) * n]:
        assert masks.dividing(a) == reference_dividing(masks, a)
        assert masks.multiples(a) == reference_multiples(masks, a)
