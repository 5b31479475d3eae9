from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from syzdepth import linalg

from syzdepth.freemod import BasisElement, DegreeMasks, OrderedBasis, Slices, check_rows
from syzdepth.groebner import leading_module
from syzdepth.monomials import MonomialIdeal

import reference_slices
from reference_groebner import leading_term
from reference_vectors import ModuleVector, multidegree_of, row_vectors, scalar_rows


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
    # The vector term order of the reference engines (reference_groebner)
    # and the rows' leading module agree.
    v = ModuleVector(2, {(0, (0, 1)): Fraction(1), (1, (1, 0)): Fraction(-1)})
    b = basis_of((1, 0), (0, 1))
    assert multidegree_of(v, b) == (1, 1)
    t = leading_term(v)
    assert (t.position, t.monomial) == (0, (0, 1))
    assert leading_module(*scalar_rows([v], b), b).components[0].gens == ((0, 1),)
    # Reversing the basis order flips which term leads.
    flipped = ModuleVector(2, {(1, (0, 1)): Fraction(1), (0, (1, 0)): Fraction(-1)})
    b2 = basis_of((0, 1), (1, 0))
    assert multidegree_of(flipped, b2) == (1, 1)
    t2 = leading_term(flipped)
    assert (t2.position, t2.monomial) == (0, (1, 0))
    assert leading_module(*scalar_rows([flipped], b2), b2).components[0].gens == ((1, 0),)


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
    terms = dict(v.items())
    assert terms[0, (1, 0)] / 2 == Fraction(3, 2)
    assert terms[1, (0, 1)] is half
    assert dict(ModuleVector(2, [((0, (1, 0)), 1), ((0, (1, 0)), 2)]).items()) == \
        {(0, (1, 0)): 3}


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
    # x2*(x1 e) and x1*(x2 e) are the same coordinate vector.
    slices = Slices([(*scalar_rows(gens, b), len(b))], b.n)
    assert slices.rank(0, slices.active((1, 1))) == _brute_rank([[1], [1]]) == 1
    slices = Slices([(*scalar_rows(gens, b), len(b))], b.n)
    assert slices.rank(0, slices.active((0, 0))) == 0
    mixed = ModuleVector(2, {(0, (1, 0)): Fraction(1), (0, (0, 0)): Fraction(1)})
    with pytest.raises(ValueError, match="multihomogeneous"):
        scalar_rows([mixed], b)


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
        ini = leading_module(*scalar_rows([v], basis), basis)
        assert ini.nonzero_components() == [(t.position, MonomialIdeal(2, [t.monomial]))]


@pytest.mark.parametrize("position", [2, -1])
def test_scalar_rows_refuse_a_position_outside_the_basis(position):
    # A position past the rank once raised IndexError from multidegree_of,
    # and a negative one wrapped to the last basis element.
    b = basis_of((0, 0), (1, 0))
    vectors = [ModuleVector(2, {(0, (0, 0)): 1}), ModuleVector(2, {(position, (0, 1)): 1})]
    with pytest.raises(ValueError, match=f"^column 1 has position {position}, "
                                         "outside a basis of rank 2$"):
        scalar_rows(vectors, b)


SOURCE = basis_of((1, 0), (1, 1))  # deg e_1 = x1, deg e_2 = x1x2
TARGET = basis_of((0, 0), (1, 0))


@pytest.mark.parametrize("rows, degrees, message", [
    ([{0: 1}], SOURCE.degrees, " has 1 columns, expected 2"),
    ([{0: 1}, {0: 1}, {}], SOURCE.degrees, " has 3 columns, expected 2"),
    ([{0: 1}, {2: 1}], SOURCE.degrees, ": column 1 has position 2, outside a basis of rank 2"),
    ([{-1: 1}, {}], SOURCE.degrees, ": column 0 has position -1, outside a basis of rank 2"),
    ([{0: 1}, {(0, (1, 1)): 1}], SOURCE.degrees,
     r": column 1 has position \(0, \(1, 1\)\), outside a basis of rank 2"),
    ([{0: 1}, {1: 1}], [(1, 0), (0, 1)],
     r": column 1 has degree \(0, 1\), which the degree \(1, 0\) of position 1 does not divide"),
    ([{0: 1}, {1: 1}], [(1, 0), None],
     r": column 1 has degree None, which the degree \(1, 0\) of position 1 does not divide"),
    ([{0: 1}, {}], [(1,), (0, 1)], r": column 0 has degree \(1,\), not of length 2"),
    ([{0: 1}, {}], [(1, 0), (0, 1, 0)], r": column 1 has degree \(0, 1, 0\), not of length 2"),
    ([{0: 1, 1: 0}, {}], SOURCE.degrees,
     ": column 0 has coefficient 0 at position 1, not a nonzero int or Fraction"),
    ([{0: 1}, {1: 0.5}], SOURCE.degrees,
     ": column 1 has coefficient 0.5 at position 1, not a nonzero int or Fraction"),
], ids=["too-few", "too-many", "position-past", "position-below", "vector-key",
        "off-degree", "no-degree", "short-degree", "long-degree-of-a-zero-row", "zero", "float"])
def test_check_rows_names_the_map_and_the_column(rows, degrees, message):
    with pytest.raises(ValueError, match=f"^the map{message}$"):
        check_rows("the map", rows, degrees, TARGET)


@given(st.lists(st.tuples(st.dictionaries(st.integers(0, 1), coeffs.filter(bool)
                                          | st.fractions(-3, 3, max_denominator=4).filter(bool),
                                          max_size=2),
                          st.tuples(st.integers(1, 3), st.integers(0, 2))), max_size=4))
def test_check_rows_passes_every_element_and_keeps_the_rows(columns):
    # Nonzero ints and Fractions at degrees that every target degree
    # divides, zero rows at no degree: check_rows passes them untouched.
    rows = [row for row, _ in columns]
    degrees = [d if row else None for row, d in columns]
    before = [list(row.items()) for row in rows]
    assert check_rows("the map", rows, degrees, TARGET) is None
    assert [list(row.items()) for row in rows] == before


@given(st.lists(multihomogeneous_vectors(), max_size=4))
def test_row_vectors_invert_scalar_rows(pairs):
    # Term for term, in the same order, every coefficient a Fraction.
    basis = pairs[0][1] if pairs else basis_of((0, 0))
    vectors = [v for v, _ in pairs]
    back = row_vectors(*scalar_rows(vectors, basis), basis)
    assert [list(v.items()) for v in back] == [list(v.items()) for v in vectors]
    assert all(type(c) is Fraction for v in back for _, c in v.items())


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
    # whose leading column is not its first key; (2, 2) is stored monic as
    # (1, 1), which the second row cancels; so is (1/2, 1/3), as (1, 2/3).
    rows, order = case
    sparse = [{c: row[c] for c in order if row[c]} for row in rows]
    before = [list(row.items()) for row in sparse]
    assert linalg.exact_rank(sparse) == _brute_rank(rows)
    assert [list(row.items()) for row in sparse] == before


@given(dependent_rows())
@example(([[2, 3], [4, 6], [1, 0]], [0, 1]))
@example(([[Fraction(-1, 2), 1, 0], [1, -1, 3]], [2, 0, 1]))
def test_monic_pivots_lead_where_the_fraction_free_pivots_do(case):
    # The span of the rows so far fixes the leading columns of its echelon
    # form, and Slices.undo deletes pivots by them: after each row, the
    # monic kernel and the fraction-free one it replaced (kept in
    # reference_slices) hold pivots under the same columns, and each pivot
    # is monic.  Examples: a leading entry 2, then a row that reduces to
    # zero; a leading entry -1/2, then a row that leaves a pivot at column
    # 1, which is not its first key.
    rows, order = case
    pivots, reference = {}, {}
    for row in rows:
        sparse = {c: row[c] for c in order if row[c]}
        lead = linalg.eliminate(pivots, sparse)
        assert lead == reference_slices.eliminate(reference,
                                                  reference_slices.integer_row(sparse))
        assert pivots.keys() == reference.keys()
        assert all(min(pivot) == c and pivot[c] == 1 for c, pivot in pivots.items())


@pytest.mark.parametrize("x, y, expected", [
    (6, 3, 2), (-6, 3, -2), (6, -3, -2), (0, 5, 0), (5, 1, 5), (5, -1, -5),
    (3, 6, Fraction(1, 2)), (3, -6, Fraction(-1, 2)), (2, Fraction(2, 3), 3),
    (Fraction(3, 2), Fraction(1, 2), 3), (Fraction(1, 2), 3, Fraction(1, 6)),
    (Fraction(4, 2), 1, 2), (Fraction(4, 2), -1, -2), (Fraction(1, 2), 1, Fraction(1, 2)),
    (Fraction(1, 2), -1, Fraction(-1, 2)), (Fraction(-5), 1, -5),
])
def test_quotient_is_an_int_where_integral_and_a_fraction_otherwise(x, y, expected):
    q = linalg.quotient(x, y)
    assert q == expected and type(q) is type(expected)
    if y == 1:
        assert linalg.quotient(x) == expected and type(linalg.quotient(x)) is type(expected)


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
            shift = tuple(y - x for x, y in zip(d, a))
            multiples.append({(pos, tuple(x + y for x, y in zip(mono, shift))): c
                              for (pos, mono), c in v.items()})
    coords = sorted({key for w in multiples for key in w})
    expected = _brute_rank([[w.get(key, 0) for key in coords] for w in multiples])
    slices = Slices([(*scalar_rows(vectors, basis), len(basis))], basis.n)
    assert slices.rank(0, slices.active(a)) == expected


# Single terms c u e_j, c a nonzero int or Fraction, at any of the three
# positions.
single_terms = st.builds(
    lambda pos, mono, c: ModuleVector(2, {(pos, mono): Fraction(c)}),
    st.integers(0, 2), monos,
    coeffs.filter(bool) | st.fractions(-3, 3, max_denominator=4).filter(bool))


# Two single terms summed; most sums have two degrees.
two_terms = st.tuples(single_terms, single_terms).map(
    lambda pair: ModuleVector(2, [*pair[0].items(), *pair[1].items()]))


@settings(max_examples=300, deadline=None)
@given(st.lists(single_terms | st.just(ModuleVector(2, {})) | two_terms
                | multihomogeneous_vectors().map(lambda pair: pair[0]), max_size=8),
       st.data())
def test_slices_down_a_chain_with_undo_match_exact_rank(vectors, data):
    # A walk down and back up a chain of degrees, each a multiple of the one
    # before: at every step the pivot count is the exact rank of the active
    # rows, or at least a bound it met, and undo restores the count of the
    # step above.  Zero vectors are never active; a mixed vector is refused.
    # Zero rows given a degree, as a checked complex gives its zero columns,
    # are active where their degree divides a and add nothing to the rank.
    basis = basis_of((1, 0), (0, 1), (0, 0))
    degrees = [multidegree_of(v, basis) for v in vectors]
    if any(d is None and not v.is_zero() for v, d in zip(vectors, degrees)):
        with pytest.raises(ValueError, match="multihomogeneous"):
            scalar_rows(vectors, basis)
        return
    zeros = data.draw(st.lists(monos, max_size=3))
    vector_rows, vector_degrees = scalar_rows(vectors, basis)
    given_rows = vector_rows + [{}] * len(zeros)
    before = [list(row.items()) for row in given_rows]
    slices = Slices([(given_rows, vector_degrees + zeros, len(basis))], basis.n)
    rows = [{pos: c for (pos, _), c in v.items()} for v in vectors] + [{}] * len(zeros)
    degrees += zeros
    chain = []  # (degree, mark before its reduce, pivot count after)
    a = (0, 0)
    for _ in range(data.draw(st.integers(1, 10))):
        if len(chain) > 1 and data.draw(st.booleans()):
            k = data.draw(st.integers(1, len(chain) - 1))
            slices.undo(chain[k][1])
            del chain[k:]
            a = chain[-1][0]
            assert len(slices.pivots[0]) == chain[-1][2]
            continue
        if chain:
            a = tuple(t + data.draw(st.integers(0, 2)) for t in a)
        active = [i for i, d in enumerate(degrees)
                  if d is not None and all(x <= y for x, y in zip(d, a))]
        mask = slices.active(a)
        assert mask == sum(1 << i for i in active)
        rank = linalg.exact_rank([rows[i] for i in active])
        bound = data.draw(st.none() | st.integers(0, 4))
        mark = slices.mark()
        if bound is None:
            count = slices.rank(0, mask)
            assert count == rank
        else:
            count = slices.rank(0, mask, bound)
            assert count <= rank and min(count, bound) == min(rank, bound)
        chain.append((a, mark, count))
    # The engine keeps the rows it is given and modifies none of them.
    assert [list(row.items()) for row in given_rows] == before


# A row of a block on up to three positions, ints and Fractions, possibly
# zero, at a degree in two variables or at None.
block_rows = st.tuples(
    st.dictionaries(st.integers(0, 2), coeffs.filter(bool)
                    | st.fractions(-3, 3, max_denominator=4).filter(bool), max_size=3),
    st.none() | monos)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(block_rows, max_size=5), min_size=1, max_size=4),
       st.lists(st.none() | st.integers(0, 3), min_size=4, max_size=4),
       st.integers(0, 2))
def test_one_block_engine_walks_as_one_engine_per_block(blocks, bounds, residue):
    # The reference is the per-family engine: one reference_slices.Slices
    # per block, all taken down the closure by reference_slices.walk_closure.
    # At each degree, each block is first reduced up to a drawn bound, then
    # in full; a degree fails where the blocks' total rank is the drawn
    # residue mod 3, so that the skipping after a first failure is walked
    # too.  Both engines visit the same degrees in the same order, with the
    # same counts.  The engine returns the lex-first failure of the whole
    # closure, which the reference's exhaustive walk lists first, and the
    # closure size.
    basis = basis_of((0, 0), (0, 0), (0, 0))
    families = [([row for row, _ in block], [d for _, d in block]) for block in blocks]
    before = [[list(row.items()) for row in rows] for rows, _ in families]
    engine = Slices([(rows, degrees, len(basis)) for rows, degrees in families], basis.n)
    references = [reference_slices.Slices(rows, degrees, basis) for rows, degrees in families]
    # (degree, per-block counts) per visit
    seen = {"engine": [], "reference": [], "exhaustive": []}

    def record(side, a, counts):
        seen[side].append((a, counts))
        return True if sum(rank for _, rank in counts) % 3 == residue else None

    def visit(a, active):
        counts = []
        for k, (rows, degrees) in enumerate(families):
            bounded = engine.rank(k, active, bounds[k])
            rank = engine.rank(k, active)
            chosen = [row for row, d in zip(rows, degrees)
                      if d is not None and all(x <= y for x, y in zip(d, a))]
            assert rank == linalg.exact_rank(chosen)
            counts.append((bounded, rank))
        return record("engine", a, counts)

    def reference_visit(side):
        return lambda a: record(side, a, [(ref.reduce(ref.active(a), bounds[k]),
                                           ref.reduce(ref.active(a)))
                                          for k, ref in enumerate(references)])

    degrees = [d for ref in references for d in ref.degrees]
    every, size = reference_slices.walk_closure(degrees, basis.n, references,
                                                reference_visit("exhaustive"), exhaustive=True)
    assert engine.walk(visit) == ((every[0] if every else None), size)
    reference_slices.walk_closure(degrees, basis.n, references, reference_visit("reference"))
    assert seen["engine"] == seen["reference"]
    # The walk undoes every pivot it made, and modifies no row.
    assert engine.pivots == [{} for _ in blocks] and engine.mark() == (0, 0)
    assert [[list(row.items()) for row in rows] for rows, _ in families] == before


@given(st.lists(st.tuples(st.integers(0, 2), monos, coeffs), min_size=1, max_size=5),
       monos)
def test_leading_term_is_multiplicative(raw, m):
    v = ModuleVector(2, {(p, mo): Fraction(c) for p, mo, c in raw if c})
    if v.is_zero():
        return
    t = leading_term(v)
    tm = leading_term(ModuleVector(2, {(p, tuple(a + b for a, b in zip(mo, m))): c
                                       for (p, mo), c in v.items()}))
    assert tm.position == t.position
    assert tm.monomial == tuple(a + b for a, b in zip(t.monomial, m))


def clamping_tables(known, n):
    """The prefix tables DegreeMasks kept when it indexed them by every
    value from 0 to each coordinate's largest: below[t] holds the vectors
    whose coordinate is at most t."""
    tables = []
    for k in range(n):
        below = [0] * (max((d[k] for _, d in known), default=0) + 1)
        for i, d in known:
            below[d[k]] |= 1 << i
        for t in range(1, len(below)):
            below[t] |= below[t - 1]
        tables.append(below)
    return tables


def reference_dividing(full, tables, a):
    """DegreeMasks.dividing as it read when it clamped every coordinate."""
    mask = full
    for below, t in zip(tables, a):
        mask &= below[min(t, len(below) - 1)]
    return mask


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_degree_masks_match_the_clamping_reference(data):
    # Vectors without a degree are the zero vectors Slices admits; queries
    # reach past every table and include zero coordinates.
    n = data.draw(st.integers(1, 4))
    degrees = data.draw(st.lists(st.none() | st.tuples(*[st.integers(0, 3)] * n),
                                 max_size=12))
    known = [(i, d) for i, d in enumerate(degrees) if d is not None]
    masks = DegreeMasks(known, n)
    full, tables = (1 << len(degrees)) - 1, clamping_tables(known, n)
    queries = data.draw(st.lists(st.tuples(*[st.integers(0, 6)] * n), max_size=8))
    for a in queries + [(0,) * n]:
        assert masks.dividing(a) == reference_dividing(full, tables, a)
