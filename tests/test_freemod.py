from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from syzdepth import linalg

from syzdepth.freemod import (
    BasisElement,
    ModuleVector,
    OrderedBasis,
    Slices,
    TermOrder,
    graded_piece,
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
    t = leading_term(v, TermOrder(b, "lex"))
    assert (t.position, t.monomial) == (0, (0, 1))
    # Reversing the basis order flips which term leads.
    flipped = ModuleVector(2, {(1, (0, 1)): Fraction(1), (0, (1, 0)): Fraction(-1)})
    t2 = leading_term(flipped, TermOrder(basis_of((0, 1), (1, 0)), "lex"))
    assert (t2.position, t2.monomial) == (0, (1, 0))


def test_leading_term_scalar_order():
    v = ModuleVector(2, {(0, (1, 0)): Fraction(1), (0, (0, 1)): Fraction(1)})
    b = basis_of((0, 0))
    t = leading_term(v, TermOrder(b, "lex"))
    assert t.monomial == (1, 0)


def test_leading_term_zero_raises():
    with pytest.raises(ValueError, match="no leading term"):
        leading_term(ModuleVector(2), TermOrder(basis_of((0, 0)), "lex"))


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


def test_graded_piece_examples():
    b = basis_of((0, 0))
    gens = [ModuleVector(2, {(0, (1, 0)): Fraction(1)}),
            ModuleVector(2, {(0, (0, 1)): Fraction(1)})]
    piece = graded_piece(gens, (1, 1), b)
    assert len(piece) == 1
    # Independent oracle: x2*(x1 e) and x1*(x2 e) are the same coordinate vector.
    assert _brute_rank([[1], [1]]) == 1
    assert graded_piece([ModuleVector.generator(2, 0)], (0, 0), b)[0] == \
        ModuleVector.generator(2, 0)
    assert graded_piece(gens, (0, 0), b) == []
    mixed = ModuleVector(2, {(0, (1, 0)): Fraction(1), (0, (0, 0)): Fraction(1)})
    with pytest.raises(ValueError, match="multihomogeneous"):
        graded_piece([mixed], (1, 1), b)


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
def test_leading_term_ignores_scalar_order_when_multihomogeneous(pair):
    v, basis = pair
    if v.is_zero():
        return
    t1 = leading_term(v, TermOrder(basis, "lex"))
    t2 = leading_term(v, TermOrder(basis, "degrevlex"))
    assert t1 == t2


@given(st.integers(1, 5).flatmap(lambda c: st.lists(
    st.lists(st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4),
             min_size=c, max_size=c), max_size=6)))
@example([[0, 0, 1], [0, 1, 0], [2, 0, 0]])
def test_exact_rank_matches_reference_rank(rows):
    # Against the independent Fraction reduction above.  In the example the
    # last row is skipped at the first pivot and divided by it at the next.
    assert linalg.exact_rank(rows) == _brute_rank(rows)


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
    piece = graded_piece(vectors, a, basis)
    assert len(piece) == expected
    assert all(multidegree_of(w, basis) == a for w in piece)


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
    order = TermOrder(basis_of((0, 0), (0, 0), (0, 0)), "lex")
    t = leading_term(v, order)
    tm = leading_term(v.scale(1, m), order)
    assert tm.position == t.position
    assert tm.monomial == tuple(a + b for a, b in zip(t.monomial, m))
