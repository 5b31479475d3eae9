import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from syzdepth import blocks
from syzdepth.blocks import (
    Block,
    BlockStructure,
    _largest_s,
    block_structure,
    check_block_axioms,
    f_delta,
    filter_of_supports,
    is_order_filter,
    lifted_f,
    mask_elements,
    sigma_schedule,
    sqfree_lower_bound,
    squarefree_partition,
    subset_mask,
    subset_to_degree,
    syzygy_sqfree_bound,
    to_interval_partition,
)
from syzdepth.monomials import MonomialIdeal
from syzdepth.stanley import char_poset, exact_sdepth, validate_partition

from reference_blocks import (enumerate_block_structures, reference_block_structure,
                              reference_lifted_f, sqfree_lower_bound_closed_form,
                              structure_key, syzygy_sqfree_bound_closed_form)


def all_subsets(n, nonempty=True):
    out = filter_of_supports(n, [1 << i for i in range(n)])
    return out if nonempty else out | {0}


def test_block_structure_examples():
    s = block_structure(3, {1}, 2)
    assert [(b.B, b.G) for b in s.blocks] == [((1, 2), (3,))]
    s2 = block_structure(3, {2}, 2)
    assert [(b.B, b.G) for b in s2.blocks] == [((2, 3), (1,))]
    s3 = block_structure(3, {3}, 2)
    assert [(b.B, b.G) for b in s3.blocks] == [((3, 1), (2,))]


def test_block_structure_delta_one_gives_singletons():
    # At density one the prefix inequality kills every multi-element block.
    s = block_structure(5, {1, 2, 4}, 1)
    for block in s.blocks:
        assert len(block.B) == 1
    assert not check_block_axioms(s)


def test_block_structure_rational_density():
    s = block_structure(5, {1, 3}, Fraction(3, 2))
    assert not check_block_axioms(s)
    assert s.gaps() & s.A == frozenset()


def test_block_structure_range_checks():
    with pytest.raises(ValueError, match="nonempty"):
        block_structure(4, set(), 2)
    with pytest.raises(ValueError, match="density"):
        block_structure(3, {1, 2}, 2)  # (n-1)/|A| = 1 < 2
    with pytest.raises(ValueError, match="density"):
        block_structure(4, {1}, Fraction(1, 2))


def test_axiom_checker_catches_bad_structure():
    bad = BlockStructure(3, frozenset({1}), Fraction(2),
                         (Block((1,), (2, 3)),))
    assert any("size window" in p for p in check_block_axioms(bad))
    bad2 = BlockStructure(3, frozenset({1}), Fraction(2),
                          (Block((1, 2), ()), Block((3,), ())))
    assert check_block_axioms(bad2)  # anchor 3 not in A


def test_uniqueness_by_exhaustive_enumeration():
    for n in range(3, 7):
        subsets = [frozenset(mask_elements(A)) for A in all_subsets(n)]
        for A in subsets:
            for delta in (1, Fraction(3, 2), 2, 3):
                if not (1 <= delta and Fraction(delta) * len(A) <= n - 1):
                    continue
                found = enumerate_block_structures(n, A, delta)
                assert len(found) == 1, (n, sorted(A), delta)
                assert structure_key(found[0]) == structure_key(block_structure(n, A, delta))


def test_f_delta_examples():
    assert f_delta(3, {1}, 2) == frozenset({1, 3})
    assert f_delta(3, {3}, 2) == frozenset({2, 3})
    assert f_delta(5, {2}, 2).issuperset({2})


def test_hand_built_intervals_cover_small_sets_disjointly():
    # For n=3 and density 2 the singleton intervals [A, f_2(A)] tile all
    # one- and two-element subsets.
    tops = {i: f_delta(3, {i}, 2) for i in (1, 2, 3)}
    assert tops == {1: frozenset({1, 3}), 2: frozenset({1, 2}), 3: frozenset({2, 3})}
    covered = []
    for i, top in tops.items():
        members = [frozenset({i}) | frozenset(extra)
                   for extra in ([], sorted(top - {i}))]
        covered.extend(members)
    assert len(covered) == len(set(covered)) == 6


def test_lifted_f_examples():
    assert lifted_f(3, {1}, 0) == frozenset({1})
    result = lifted_f(3, {1}, 1)
    assert len(result) == 2 and 1 in result
    for (n, a_set, s) in [(5, {2}, 1), (7, {1, 5}, 1), (9, {3}, 2), (11, {2, 7}, 2)]:
        out = lifted_f(n, a_set, s)
        assert len(out) == len(a_set) + s
        assert out.issuperset(a_set)
        assert all(1 <= x <= n for x in out)
    with pytest.raises(ValueError, match="as"):
        lifted_f(3, {1, 2}, 1)  # needs n >= 2*1+2+1 = 5


def test_sigma_schedule_examples():
    assert sigma_schedule(0) == (0, 0, ())
    assert sigma_schedule(1).values == (2, 1)
    s2 = sigma_schedule(2)
    assert s2.values == (4, 3, 2, 2)
    products = [(i + 1) * (s2(i) + 1) for i in range(1, s2.r + 1)]
    assert products == sorted(products)  # weakly decreasing as i decreases
    assert min([s2.r + 1] + [i + s2(i) for i in range(1, s2.r + 1)]) == 2 * 2 + 1


def test_squarefree_partition_small_maximal_ideals():
    # n=3: s=0, everything trivial, value 1.
    pairs3 = squarefree_partition(3, all_subsets(3))
    assert all(A == B for A, B in pairs3)
    assert min(B.bit_count() for _, B in pairs3) == 1 == sqfree_lower_bound(3)
    # n=5: s=1, value 3, matching the exact Stanley depth of the ideal.
    pairs5 = squarefree_partition(5, all_subsets(5))
    assert min(B.bit_count() for _, B in pairs5) == 3 == sqfree_lower_bound(5)
    I5 = MonomialIdeal(5, [subset_to_degree(5, 1 << i) for i in range(5)])
    poset = char_poset(I5, g=(1,) * 5)
    validate_partition(poset, to_interval_partition(5, pairs5))
    assert exact_sdepth(poset).value == 3


def test_squarefree_partition_rejects_non_filter():
    with pytest.raises(ValueError, match="order filter"):
        squarefree_partition(3, [subset_mask({1})])
    with pytest.raises(ValueError, match="empty set"):
        squarefree_partition(2, all_subsets(2) | {0})
    with pytest.raises(ValueError, match=r"outside \[1\]"):
        squarefree_partition(1, [0b10, 0b11])


def test_squarefree_partition_covers_every_filter_of_4():
    # Exhaustive over order filters of [4] via antichain generators.
    n = 4
    universe = [subset_mask(c) for size in range(1, n + 1)
                for c in itertools.combinations(range(1, n + 1), size)]
    seen = set()
    for bits in range(1, 1 << len(universe)):
        gens = [universe[i] for i in range(len(universe)) if bits >> i & 1]
        if any(g1 != g2 and g1 & g2 == g1 for g1 in gens for g2 in gens):
            continue  # not an antichain; same filter arises elsewhere
        family = frozenset(filter_of_supports(n, gens))
        if family in seen:
            continue
        seen.add(family)
        pairs = squarefree_partition(n, family)
        covered = set()
        for A, B in pairs:
            members = {A | sub for sub in range(1 << n) if sub & (B & ~A) == sub}
            assert not (members & covered)
            covered |= members
        assert covered == family
        assert min(B.bit_count() for _, B in pairs) >= sqfree_lower_bound(n)
    assert len(seen) == 166  # Dedekind number 168 minus the two trivial filters


def test_is_order_filter():
    assert is_order_filter(3, all_subsets(3)) is None
    bad = is_order_filter(3, [subset_mask({1})])
    assert bad is not None


def test_sqfree_lower_bound_examples():
    assert sqfree_lower_bound(5) == 3
    assert sqfree_lower_bound(14) == 5
    assert sqfree_lower_bound(2) == 1


def test_sqfree_lower_bound_matches_closed_form():
    for n in range(1, 3000):
        assert sqfree_lower_bound(n) == sqfree_lower_bound_closed_form(n)


def test_syzygy_bound_examples():
    assert syzygy_sqfree_bound(5, 0, 1) == 2
    assert syzygy_sqfree_bound(20, 1, 2) == 8
    # Boundary case: the defining inequality includes equality, so a budget of
    # exactly (2s+1)(s+1) = 15 reaches s = 2 while 14 stays at s = 1.
    assert syzygy_sqfree_bound(15, 0, 1) == 6
    assert syzygy_sqfree_bound(14, 0, 1) == 4
    with pytest.raises(ValueError):
        syzygy_sqfree_bound(3, 3, 1)
    with pytest.raises(ValueError):
        syzygy_sqfree_bound(5, 0, 0)


def test_syzygy_bound_matches_closed_form():
    for n in range(1, 60):
        for d in range(0, n):
            for p in range(1, n - d + 1):
                if n + 1 - d - p < 1:
                    continue
                assert syzygy_sqfree_bound(n, d, p) == \
                    syzygy_sqfree_bound_closed_form(n, d, p)


# ---------------------------------------------------------------------------
# Reference gate: the frozenset implementation the mask layer replaced, kept
# verbatim apart from the reference_ prefix.  The mask functions must give
# the same filter, the same pairs in the same order, and the same rejection.


def reference_is_order_filter(n: int, sets):
    """None when up-closed; otherwise a violating (member, superset) pair."""
    family = set(sets)
    for S in family:
        for j in range(1, n + 1):
            if j not in S and S | {j} not in family:
                return (S, S | frozenset([j]))
    return None


def reference_filter_of_supports(n: int, supports) -> set:
    """The order filter generated by the given support sets inside [n]."""
    gens = [frozenset(S) for S in supports]
    out = set()
    for size in range(n + 1):
        for C in itertools.combinations(range(1, n + 1), size):
            C = frozenset(C)
            if any(g <= C for g in gens):
                out.add(C)
    return out


def reference_squarefree_partition(n: int, filter_sets) -> list:
    """Interval partition of an order filter with all tops of size >= 2s+1.

    Stage a covers every uncovered a-set A by the interval up to
    lifted_f(n, A, sigma(a)); whatever survives the r stages becomes a
    trivial interval.  Disjointness is asserted while covering.
    """
    family = {frozenset(S) for S in filter_sets}
    if not family:
        return []
    bad = reference_is_order_filter(n, family)
    if bad is not None:
        raise ValueError(f"not an order filter: {sorted(bad[0])} is in but "
                         f"{sorted(bad[1])} is not")
    if frozenset() in family:
        raise ValueError("the filter contains the empty set (unit ideal)")
    schedule = sigma_schedule(_largest_s(n + 1))
    covered = set()
    out = []
    for a in range(1, schedule.r + 1):
        stage = sorted((S for S in family if len(S) == a), key=sorted)
        for A in stage:
            if A in covered:
                continue
            top = lifted_f(n, A, schedule(a))
            members = [A | frozenset(extra)
                       for size in range(len(top) - len(A) + 1)
                       for extra in itertools.combinations(sorted(top - A), size)]
            clash = [C for C in members if C in covered]
            if clash:
                raise RuntimeError(f"stage {a} interval [{sorted(A)}, {sorted(top)}] "
                                   f"meets the cover at {sorted(clash[0])}")
            covered.update(members)
            out.append((A, top))
    for B in sorted(family - covered, key=lambda S: (len(S), sorted(S))):
        out.append((B, B))
    return out


def as_set(mask):
    return frozenset(mask_elements(mask))


@st.composite
def squarefree_supports(draw):
    """n <= 10 and the support masks of a squarefree ideal's generators."""
    n = draw(st.integers(1, 10))
    return n, draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))


@st.composite
def dense_supports(draw):
    """n <= 12 and support masks of one to three elements, whose filters
    mostly fill a quarter of the cube or more: membership tables."""
    n = draw(st.integers(1, 12))
    support = st.sets(st.integers(0, n - 1), min_size=1, max_size=min(3, n)).map(
        lambda elements: sum(1 << i for i in elements))
    return n, draw(st.lists(support, min_size=1, max_size=6))


def rejection(partition, n, family):
    with pytest.raises(ValueError) as info:
        partition(n, family)
    return str(info.value)


@settings(max_examples=80, deadline=None)
@given(st.one_of(squarefree_supports(), dense_supports()), st.data())
@example((1, [0b1]), None)
@example((7, [0b1111111]), None)
@example((10, [0b1111111111, 0b1, 0b110]), None)
def test_masks_match_the_frozenset_reference(case, data):
    n, gens = case
    ref_family = reference_filter_of_supports(n, [as_set(g) for g in gens])
    family = filter_of_supports(n, gens)
    assert {as_set(S) for S in family} == ref_family
    ref_pairs = reference_squarefree_partition(n, ref_family)
    pairs = squarefree_partition(n, family)
    assert [(as_set(A), as_set(B)) for A, B in pairs] == ref_pairs
    # The certificate makes the filter from the supports, as a table where dense.
    assert blocks.squarefree_certificate(n, gens) == (
        pairs, min((len(B) for _, B in ref_pairs), default=n))
    # Dropping a member with exactly one lower cover in the filter leaves a
    # family with exactly one violating pair, so both must name that pair.
    lonely = [S for S in sorted(family)
              if sum(S ^ (1 << i) in family for i in range(n) if S >> i & 1) == 1]
    if not lonely or data is None:
        return
    S = data.draw(st.sampled_from(lonely))
    broken = family - {S}
    message = rejection(squarefree_partition, n, broken)
    assert message.startswith("not an order filter: ")
    assert message == rejection(reference_squarefree_partition, n, {as_set(T) for T in broken})
    T, top = is_order_filter(n, broken)
    assert top == S and (as_set(T), as_set(S)) == reference_is_order_filter(
        n, {as_set(U) for U in broken})


def test_supports_outside_n_generate_nothing():
    for n, gens in [(2, [0b100]), (3, [0b1000, 0b010]), (1, [0b10, 0b1])]:
        expected = reference_filter_of_supports(n, [as_set(g) for g in gens])
        assert {as_set(S) for S in filter_of_supports(n, gens)} == expected


def whole(n, A, s):
    return frozenset(range(1, n + 1))


def wide_at_12_and_34(n, A, s):
    return frozenset(range(1, 6)) if set(A) in ({1, 2}, {3, 4}) else frozenset(A)


# Two tops patched over lifted_f, on the filter of all subsets of [6], and
# the clash each makes.  With every top equal to [n] (whole), the second
# stage interval meets the first.  With wide_at_12_and_34, stage 1 covers
# each singleton alone; at stage 2, [12, 12345] covers 1234 and 12345, so
# [34, 12345] first meets the cover at a two-element extension of 34, past
# its one-element extensions 134, 234 and 345.
_CLASHES = (
    (whole, "stage 1 interval [[2], [1, 2, 3, 4, 5, 6]] meets the cover at [1, 2]"),
    (wide_at_12_and_34,
     "stage 2 interval [[3, 4], [1, 2, 3, 4, 5]] meets the cover at [1, 2, 3, 4]"),
)


def _clash_messages(monkeypatch, lifted):
    """The RuntimeError texts of the partition and of the reference on the
    filter of all subsets of [6], with lifted in place of lifted_f."""
    monkeypatch.setattr(blocks, "lifted_f", lifted)
    monkeypatch.setattr(sys.modules[__name__], "lifted_f", lifted)
    with pytest.raises(RuntimeError) as info:
        squarefree_partition(6, all_subsets(6))
    with pytest.raises(RuntimeError) as ref_info:
        reference_squarefree_partition(6, {as_set(S) for S in all_subsets(6)})
    return str(info.value), str(ref_info.value)


def test_clash_is_reported_like_the_reference(monkeypatch):
    for lifted, message in _CLASHES:
        assert _clash_messages(monkeypatch, lifted) == (message, message)


def _certificate_clashes(monkeypatch):
    """The RuntimeError texts of squarefree_certificate on the supports of
    the six singletons, which generate the filter of all subsets of [6], one
    per clash of _CLASHES, and whether each took the table form: only the
    set form calls filter_of_supports."""
    tables = []
    of_supports = blocks.filter_of_supports

    def spy(n, supports):
        tables[-1] = False
        return of_supports(n, supports)

    monkeypatch.setattr(blocks, "filter_of_supports", spy)
    messages = []
    for lifted, _ in _CLASHES:
        monkeypatch.setattr(blocks, "lifted_f", lifted)
        tables.append(True)
        with pytest.raises(RuntimeError) as info:
            blocks.squarefree_certificate(6, [1 << i for i in range(6)])
        messages.append(str(info.value))
    return messages, tables


def test_certificate_reports_a_clash_like_the_reference_on_its_table(monkeypatch):
    # Six up-sets of 32 sets each against 2^6 subsets: the table form.
    assert _certificate_clashes(monkeypatch) == (
        [message for _, message in _CLASHES], [True, True])


def test_certificate_reports_a_clash_like_the_reference_on_its_set(monkeypatch):
    # The same clashes on the set form, with the table switched off.
    monkeypatch.setattr(blocks, "_TABLE_RATIO", 0)
    assert _certificate_clashes(monkeypatch) == (
        [message for _, message in _CLASHES], [False, False])


def test_certificate_does_not_check_the_set_it_built(monkeypatch):
    # 96 sets of 1,024: the set form.  The public partition checks the same
    # filter once; the certificate built it up-closed, so skips the check.
    n, s = 10, [0b11111 << k for k in (0, 2, 4, 5)]
    calls = []
    violation = blocks._violation

    def spy(n, family):
        calls.append(n)
        return violation(n, family)

    monkeypatch.setattr(blocks, "_violation", spy)
    pairs, _ = blocks.squarefree_certificate(n, s)
    assert calls == []
    assert squarefree_partition(n, filter_of_supports(n, s)) == pairs
    assert calls == [n]


def test_certificate_refuses_the_unit_ideal_on_its_table():
    # The empty support generates every subset of [3]: dense, so a table.
    with pytest.raises(ValueError, match=r"^the filter contains the empty set \(unit ideal\)$"):
        blocks.squarefree_certificate(3, [0])


def test_certificate_refuses_up_sets_above_the_limit(monkeypatch):
    # The supports {1} and {2..5} in [5] have up-sets of 16 and 2 sets: taken
    # at a limit of 18, refused at 17 before filter_of_supports or a table.
    supports = [0b00001, 0b11110]
    monkeypatch.setattr(blocks, "UPSET_LIMIT", 18)
    pairs, _ = blocks.squarefree_certificate(5, supports)
    assert pairs == squarefree_partition(5, filter_of_supports(5, supports))
    monkeypatch.setattr(blocks, "UPSET_LIMIT", 17)
    monkeypatch.setattr(blocks, "filter_of_supports", None)
    monkeypatch.setattr(blocks, "_without_bit", None)
    message = "^the supports' up-sets hold 18 sets, above the limit 17$"
    with pytest.raises(ValueError, match=message):
        blocks.squarefree_certificate(5, supports)


# ---------------------------------------------------------------------------
# The member-by-member check against brute force and the reference.


def _violations(n, family):
    """Every (member, one-element extension) pair with the extension
    missing, by brute force over the members and the bits of [n]."""
    return {(S, S | 1 << i) for S in family for i in range(n)
            if not S >> i & 1 and S | 1 << i not in family}


@st.composite
def families_near_filters(draw):
    """n <= 10, a filter of drawn supports, perhaps with some of its members
    dropped (so that it may fail to be a filter at several pairs), and
    perhaps one stray mask: 2^n or above, or negative."""
    n, gens = draw(squarefree_supports())
    if draw(st.booleans()):
        gens = gens + [0]  # every subset, the empty one included
    family = filter_of_supports(n, gens)
    dropped = draw(st.lists(st.sampled_from(sorted(family)), max_size=3))
    family -= set(dropped)
    stray = draw(st.one_of(st.none(), st.integers(1 << n, 1 << (n + 2)), st.integers(-8, -1)))
    return n, family, stray


@settings(max_examples=150, deadline=None)
@given(families_near_filters())
@example((10, filter_of_supports(10, [0b0011111111]), None))             # sparse
@example((10, filter_of_supports(10, [0b1]), None))                      # dense
@example((10, filter_of_supports(10, [0b1]) - {0b11}, None))             # dense, refused
@example((10, filter_of_supports(10, [0b0011111111]) - {0b0111111111}, None))
@example((10, filter_of_supports(10, [0b1, 0]), None))                   # empty set
@example((9, filter_of_supports(9, [0b11, 0b110000100]), None))        # dense, n = 9..12
@example((10, filter_of_supports(10, [0b101, 0b1001000000, 0b110]), None))
@example((11, filter_of_supports(11, [0b111, 0b10000100000, 0b1100010000]), None))
@example((12, filter_of_supports(12, [0b11, 0b100010001000, 0b11100000]) - {0b10011},
          None))                                                         # dense, refused
@example((12, filter_of_supports(12, [0b110, 0b100000001001, 0b10100000000]), None))
@example((4, filter_of_supports(4, [0b1]), 1 << 4))
@example((4, filter_of_supports(4, [0b1]), -1))
@example((2, {0b01}, -1))  # the low bits of -1 name 0b11, above 0b01
def test_member_by_member_check_matches_brute_force_and_the_reference(case):
    n, family, stray = case
    if stray is not None:
        # A mask outside [0, 2^n) is refused before any member is checked.
        family = family | {stray}
        assert rejection(is_order_filter, n, family) == f"the filter has a set outside [{n}]"
        assert rejection(squarefree_partition, n, family) == \
            f"the filter has a set outside [{n}]"
        return
    bad = is_order_filter(n, family)
    violations = _violations(n, family)
    assert (bad is None) == (not violations)
    assert bad is None or bad in violations
    reference = reference_is_order_filter(n, {as_set(S) for S in family})
    assert (bad is None) == (reference is None)

    ref_family = {as_set(S) for S in family}
    try:
        expected = reference_squarefree_partition(n, ref_family)
    except ValueError as error:
        message = rejection(squarefree_partition, n, family)
        if str(error).startswith("not an order filter: "):
            # The reference names the pair its set order meets first.
            assert message in {f"not an order filter: {mask_elements(S)} is in but "
                               f"{mask_elements(T)} is not" for S, T in violations}
        else:
            assert message == str(error)
        return
    assert [(as_set(A), as_set(B)) for A, B in squarefree_partition(n, family)] == expected


def test_a_negative_mask_is_a_set_outside_n():
    # A negative mask is no subset of [n], though its low n bits name one:
    # those of -1 name [2] in n = 2, a superset of 0b01.
    for n, family in ((2, [-1, 0b01]), (3, [-2, 0b111]), (3, [-1, -5])):
        for check in (is_order_filter, squarefree_partition):
            with pytest.raises(ValueError, match=rf"^the filter has a set outside \[{n}\]$"):
                check(n, family)


def test_a_negative_mask_is_refused():
    # The family {-1, [3]} in n = 3: -1 is no subset of [3], and has no
    # finite list of elements.  mask_elements comes last, as a list of the
    # bits of -1 would never end.
    family = {-1, 0b111}
    for check in (is_order_filter, squarefree_partition):
        assert rejection(check, 3, family) == "the filter has a set outside [3]"
    with pytest.raises(ValueError, match="negative mask"):
        mask_elements(-1)


# ---------------------------------------------------------------------------
# Integral densities run on ints and give the Fraction answer.


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n), min_size=1, max_size=n - 1))))
def test_integral_density_gives_the_fraction_structure(case):
    n, A = case
    for k in range(1, (n - 1) // len(A) + 1):
        structure = block_structure(n, A, k)
        assert type(structure.delta) is int
        assert structure == block_structure(n, A, Fraction(k))
        reference = reference_block_structure(n, A, Fraction(k))
        assert (structure.blocks, structure.gaps()) == (reference.blocks, reference.gaps())
        assert type(reference.delta) is Fraction


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 14).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.integers(1, n), min_size=1, max_size=n), st.integers(0, n))))
@example((14, {1}, 6))
@example((14, {3, 9}, 3))
def test_lifted_f_matches_the_fraction_reference(case):
    n, A, s = case
    a = len(A)
    if n < a * s + a + s:
        with pytest.raises(ValueError, match="as"):
            lifted_f(n, A, s)
        return
    assert lifted_f(n, A, s) == reference_lifted_f(n, A, s)
