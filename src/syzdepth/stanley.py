"""Stanley depth by exact search over interval partitions of finite posets.

A module I/J of monomial ideals is encoded by the multidegrees below a cap g
that lie in I but not in J.  Interval partitions of that point set certify
Stanley decompositions; the depth of a partition is the minimum over its
intervals of the number of coordinates of the top that sit at the cap.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from . import monomials
from .freemod import DegreeMasks
from .groebner import InitialModule
from .monomials import Mono, MonomialIdeal


class Interval(NamedTuple):
    bottom: Mono
    top: Mono


@dataclass(frozen=True)
class CharPoset:
    n: int
    cap: Mono
    points: frozenset

    @property
    def size(self) -> int:
        return len(self.points)


def char_poset(I: MonomialIdeal, J: Optional[MonomialIdeal] = None,
               g: Optional[Mono] = None) -> CharPoset:
    """Characteristic poset of I/J below the cap g.

    The default cap is the componentwise maximum of all generator exponents,
    which is the smallest valid choice.
    """
    n = I.n
    if J is not None:
        if J.n != n:
            raise ValueError("I and J live in different rings")
        for u in J.gens:
            if not I.contains(u):
                raise ValueError(f"J is not contained in I: generator {u}")
    if g is None:
        g = I.lcm_exponent()
        if J is not None:
            g = monomials.lcm(g, J.lcm_exponent())
    else:
        g = tuple(g)
        for u in I.gens + (J.gens if J is not None else ()):
            if monomials.divide(g, u) is None:
                raise ValueError(f"cap {g} does not dominate generator {u}")
    points = []
    for a in itertools.product(*(range(e + 1) for e in g)):
        if I.contains(a) and (J is None or not J.contains(a)):
            points.append(a)
    return CharPoset(n, g, frozenset(points))


def interval_value(iv: Interval, g: Mono) -> int:
    """Number of coordinates of the top that sit at the cap."""
    return sum(1 for b, cap in zip(iv.top, g) if b == cap)


def interval_points(iv: Interval):
    return itertools.product(*(range(a, b + 1) for a, b in zip(iv.bottom, iv.top)))


def validate_partition(P: CharPoset, intervals: Sequence[Interval]) -> None:
    """Raise unless the intervals partition the poset's point set."""
    seen = set()
    for iv in intervals:
        if monomials.divide(iv.top, iv.bottom) is None:
            raise ValueError(f"interval {iv} has top below bottom")
        if monomials.divide(P.cap, iv.top) is None:
            raise ValueError(f"interval {iv} exceeds the cap {P.cap}")
        for pt in interval_points(iv):
            if pt not in P.points:
                raise ValueError(f"interval {iv} contains {pt}, which is outside "
                                 "the module")
            if pt in seen:
                raise ValueError(f"point {pt} is covered twice")
            seen.add(pt)
    if seen != P.points:
        missing = next(iter(P.points - seen))
        raise ValueError(f"point {missing} is not covered")


# The most points, and search calls over all its targets d, that one
# exact_sdepth call may take (the maximal ideal needs 120,183 calls at n = 6).
# Past either the search is refused, which also bounds the memo of failures.
POINT_LIMIT = 512
SEARCH_NODE_LIMIT = 1_000_000


class SearchRefused(ValueError):
    """The exact search refused a poset at the point limit or the node budget."""


class SdepthResult(NamedTuple):
    value: int
    partition: tuple  # tuple of Interval


def exact_sdepth(P: CharPoset) -> SdepthResult:
    """Maximum over interval partitions of the minimum interval value.

    Decision search for descending target values: branch on the
    lexicographically smallest uncovered point, try tops by decreasing value,
    ties by increasing top.  The targets start at the start bound: the
    minimum over points x of the largest value of a point of P above x.
    The interval that covers x has its top among those points, so no
    partition beats the bound, and the targets above it, which would all
    be refuted, are skipped.  Points are the bits of an int in lexicographic
    order, so the smallest uncovered point is the lowest zero bit of the
    covered set, and failure states are memoized on that int.  Every
    returned partition has passed validate_partition.  A search that
    visits more than SEARCH_NODE_LIMIT nodes, or a poset above POINT_LIMIT,
    raises SearchRefused.
    """
    if P.size > POINT_LIMIT:
        raise SearchRefused(f"poset has {P.size} points, above the limit {POINT_LIMIT}")
    if not P.points:
        return SdepthResult(P.n, ())
    tops = _CandidateTops(P)
    for d in range(_start_bound(tops), -1, -1):
        partition = _feasible_partition(tops, d)
        if partition is not None:
            try:
                validate_partition(P, partition)
            except ValueError as exc:
                raise RuntimeError("the search returned a certificate that is "
                                   f"not an interval partition: {exc}") from exc
            return SdepthResult(d, tuple(partition))
    raise RuntimeError("the search found no interval partition, not even "
                       "the one into single points")


class _CandidateTops(dict):
    """i -> the intervals [a, b] inside P from the i-th point a in
    lexicographic order, as (value, interval, bitmask) by decreasing value,
    then top; built on first use and shared by every target d, as is the
    count of search nodes visited so far.

    An interval lies in P exactly when its bitmask has one bit for each of
    its prod(b_j - a_j + 1) points.
    """

    def __init__(self, P: CharPoset):
        super().__init__()
        self.nodes = 0
        self.points = sorted(P.points)
        self.cap = P.cap
        self.masks = DegreeMasks(list(enumerate(self.points)), P.n, len(self.points))
        # Each prefix table padded with its last mask up to the cap, so that
        # every coordinate a top can take indexes it directly.
        self._below = [below + below[-1:] * (hi + 1 - len(below))
                       for below, hi in zip(self.masks.at_most, self.cap)]

    def __missing__(self, i):
        a = self.points[i]
        # (top so far, bitmask, value, size), extended one coordinate at a time
        partial = [((), self.masks.multiples(a), 0, 1)]
        for lo, hi, below in zip(a, self.cap, self._below):
            partial = [(b + (t,), mask & below[t],
                        value + (t == hi), size * (t - lo + 1))
                       for b, mask, value, size in partial for t in range(lo, hi + 1)]
        found = [(value, Interval(a, b), mask) for b, mask, value, size in partial
                 if mask.bit_count() == size]
        found.sort(key=lambda entry: (-entry[0], entry[1].top))
        self[i] = found
        return found


def _start_bound(tops) -> int:
    """min over points x of the largest value of a point of P above x.

    at_least[v] is the bitmask of the points of value at least v, so the
    bound only falls while no point above x is in at_least[bound].
    """
    n = len(tops.cap)
    at_least = [0] * (n + 1)
    for i, b in enumerate(tops.points):
        at_least[sum(map(operator.eq, b, tops.cap))] |= 1 << i
    for v in range(n - 1, -1, -1):
        at_least[v] |= at_least[v + 1]
    bound = n
    for a in tops.points:
        above = tops.masks.multiples(a)
        while not at_least[bound] & above:
            bound -= 1
    return bound


def _feasible_partition(tops, d: int):
    """An interval partition of every point into intervals of value at least
    d, as a list of Interval, or None."""
    full = (1 << len(tops.points)) - 1
    failed = set()
    budget = SEARCH_NODE_LIMIT - tops.nodes
    nodes = 0

    def search(covered):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchRefused(f"the exact search visited more than {SEARCH_NODE_LIMIT} nodes")
        if covered == full:
            return []
        if covered in failed:
            return None
        first = (~covered & (covered + 1)).bit_length() - 1
        for value, iv, mask in tops[first]:
            if value < d:
                break
            if not mask & covered:
                rest = search(covered | mask)
                if rest is not None:
                    return [iv] + rest
        failed.add(covered)
        return None

    partition = search(0)
    tops.nodes += nodes
    return partition


# ---------------------------------------------------------------------------
# Stanley depth of monomial ideals, with a bounded cache shared across calls


def ideal_sdepth(I: MonomialIdeal) -> int:
    """Stanley depth of a monomial ideal over its full ring.

    Variables absent from every generator contribute cap 0 in the poset, so
    they are counted automatically; principal ideals short-circuit to n.
    """
    if I.is_zero():
        raise ValueError("the zero ideal has no Stanley depth here")
    if len(I.gens) == 1:
        return I.n
    return _searched_ideal_sdepth(I.n, I.gens)


# Keyed on the ideal alone, as the search's limits are constants.
@functools.lru_cache(maxsize=1024)
def _searched_ideal_sdepth(n: int, gens: tuple) -> int:
    return exact_sdepth(char_poset(MonomialIdeal(n, gens))).value


class FiltrationBound(NamedTuple):
    value: int
    free: bool  # all components were zero


def filtration_lower_bound(initial: InitialModule) -> FiltrationBound:
    """min over nonzero components I_j of sdepth(I_j).

    This bounds the Stanley depth of any module whose initial module is the
    given one, through the position filtration.  When every component is
    zero the module is zero (or free for syzygies) and n is returned with a
    flag.  A component whose exact search is refused raises SearchRefused
    naming its position.
    """
    n = initial.basis.n
    nonzero = initial.nonzero_components()
    if not nonzero:
        return FiltrationBound(n, True)
    values = []
    for j, ideal in nonzero:
        try:
            values.append(ideal_sdepth(ideal))
        except SearchRefused as exc:
            raise SearchRefused(f"the filtration bound needs the exact Stanley depth "
                                f"of the component at position {j}, and its search "
                                f"was refused: {exc}") from exc
    return FiltrationBound(min(values), False)


# ---------------------------------------------------------------------------
# Stanley decompositions


def partition_to_decomposition(P: CharPoset, intervals: Sequence[Interval]):
    """Translate an interval partition into Stanley summands (monomial, vars).

    An interval [a, b] contributes x^e K[Z] with Z = {j : b_j = g_j} for every
    anchor e in [a, b] that agrees with a on Z; for squarefree caps this is
    the single summand x^a K[Z].
    """
    out = []
    for iv in intervals:
        Z = frozenset(j for j in range(P.n) if iv.top[j] == P.cap[j])
        ranges = [range(iv.bottom[j], iv.top[j] + 1) if j not in Z
                  else range(iv.bottom[j], iv.bottom[j] + 1) for j in range(P.n)]
        for e in itertools.product(*ranges):
            out.append((e, Z))
    return out


def verify_decomposition(decomposition, I: MonomialIdeal,
                         J: Optional[MonomialIdeal] = None,
                         box: Optional[Mono] = None):
    """Each degree of the box must be covered exactly once iff it lies in I/J.

    Returns (ok, first bad degree)."""
    if box is None:
        g = I.lcm_exponent()
        if J is not None:
            g = monomials.lcm(g, J.lcm_exponent())
        box = tuple(e + 1 for e in g)
    for a in itertools.product(*(range(b + 1) for b in box)):
        expected = 1 if I.contains(a) and (J is None or not J.contains(a)) else 0
        covering = 0
        for e, Z in decomposition:
            if monomials.divide(a, e) is not None and all(
                    a[j] == e[j] for j in range(len(a)) if j not in Z):
                covering += 1
        if covering != expected:
            return False, a
    return True, None
