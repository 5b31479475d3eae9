import functools
import itertools

import pytest
from hypothesis import given, strategies as st

from syzdepth.monomials import (
    MonomialIdeal,
    divide,
    divides,
    gcd,
    is_squarefree,
    lcm,
    lcm_closure,
    minimalize,
    mul,
    support,
    unit,
)

monos = st.tuples(*(st.integers(0, 4) for _ in range(3)))


def test_lcm_examples():
    assert lcm((1, 1, 0), (0, 1, 1)) == (1, 1, 1)
    assert lcm((1, 2, 3), unit(3)) == (1, 2, 3)
    assert lcm((2, 0), (1, 1)) == (2, 1)


def test_lcm_mismatched_length():
    with pytest.raises(ValueError):
        lcm((1, 0), (1, 0, 0))


@pytest.mark.parametrize("helper", [mul, lcm, gcd, divides, divide])
def test_helpers_reject_mismatched_lengths(helper):
    # The helpers map over both tuples, which would stop at the shorter one.
    for u, v in [((1, 0), (1, 0, 0)), ((0, 0, 2), (1,)), ((), (0,))]:
        with pytest.raises(ValueError, match="mismatched variable counts"):
            helper(u, v)


def test_divide_examples():
    assert divide((2, 2), (1, 2)) == (1, 0)
    assert divide((1, 0), (0, 1)) is None
    assert divide((1, 2), (1, 2)) == (0, 0)


def test_divide_is_exact():
    u, v = (3, 1, 2), (1, 0, 2)
    w = divide(u, v)
    assert mul(v, w) == u


def test_support_and_squarefree():
    assert support((1, 0, 1)) == frozenset({0, 2})
    assert not is_squarefree((2, 1))
    assert is_squarefree(unit(4)) and support(unit(4)) == frozenset()


@given(monos, monos)
def test_lcm_is_least_common_multiple(u, v):
    l = lcm(u, v)
    assert divides(u, l) and divides(v, l)
    # Anything strictly below l in one coordinate misses a divisibility.
    for i in range(3):
        if l[i] > 0:
            smaller = tuple(e - 1 if j == i else e for j, e in enumerate(l))
            assert not (divides(u, smaller) and divides(v, smaller))


@given(monos, monos, monos)
def test_lex_compatible_with_addition(a, b, c):
    # Lex is tuple comparison, x1 weighing most.
    if a > b:
        assert mul(a, c) > mul(b, c)


degree_lists = st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(*[st.integers(0, 3)] * n),
                                             max_size=7)))


@given(degree_lists, st.data())
def test_lcm_closure_is_the_lcm_of_every_subset(case, data):
    # The skip of degrees already in the closure loses no lcm; each degree
    # but zero has a proper divisor in the closure as its parent, so the
    # parents form a tree rooted at zero; and the sorted degrees and their
    # parents depend on neither the input order nor duplicates.
    n, degrees = case
    brute = {functools.reduce(lcm, subset, unit(n))
             for k in range(len(degrees) + 1)
             for subset in itertools.combinations(degrees, k)}
    closure = lcm_closure(degrees, n)
    assert list(closure) == sorted(brute)
    assert closure[unit(n)] is None
    for a, parent in closure.items():
        if a != unit(n):
            assert parent in closure and parent != a and divides(parent, a)
    extra = data.draw(st.lists(st.sampled_from(degrees), max_size=3)) if degrees else []
    shuffled = data.draw(st.permutations(degrees + extra))
    assert lcm_closure(shuffled, n) == closure
    assert lcm_closure(iter(shuffled), n) == closure


def test_minimalize():
    assert minimalize([(2, 0), (1, 0), (0, 1), (1, 1)]) == ((0, 1), (1, 0))


def test_ideal_colon():
    I = MonomialIdeal(3, [(1, 1, 0)])
    assert I.colon((0, 1, 1)).gens == ((1, 0, 0),)
    J = MonomialIdeal(4, [(1, 1, 0, 0)])
    assert J.colon((0, 0, 1, 1)).gens == ((1, 1, 0, 0),)


def test_ideal_membership_and_cap():
    I = MonomialIdeal(2, [(2, 0), (1, 1)])
    assert I.contains((2, 1)) and not I.contains((1, 0))
    assert I.lcm_exponent() == (2, 1)
