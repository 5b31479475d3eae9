"""Stanley depth by exact search over interval partitions of finite posets.

A module I/J of monomial ideals is encoded by the multidegrees below a cap g
that lie in I but not in J.  Interval partitions of that point set certify
Stanley decompositions; the depth of a partition is the minimum over its
intervals of the number of coordinates of the top that sit at the cap.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from . import monomials
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
    which is the smallest valid choice.  The points are those of the boxes
    [u, g] of I's generators u that J does not contain, listed box by box
    with no membership test per point (_outside): in the box [u, g] a
    generator v of J divides the same points as lcm(u, v).
    """
    n = I.n
    if J is not None:
        if J.n != n:
            raise ValueError("I and J live in different rings")
        for u in J.gens:
            if not I.contains(u):
                raise ValueError(f"J is not contained in I: generator {u}")
    if g is None:
        g = _default_cap(I, J)
    else:
        g = tuple(g)
        for u in I.gens + (J.gens if J is not None else ()):
            if monomials.divide(g, u) is None:
                raise ValueError(f"cap {g} does not dominate generator {u}")
    top = [e + 1 for e in g]
    others = J.gens if J is not None else ()
    boxes = [box for u in I.gens
             for box in _outside({monomials.lcm(u, v) for v in others}, u, top, n)]
    return CharPoset(n, g, frozenset(itertools.chain.from_iterable(
        itertools.starmap(itertools.product, boxes))))


def _outside(gens: set, low: tuple, top: list, k: int) -> list:
    """Disjoint boxes, each a tuple of k ranges, that together hold the
    points a with low <= a < top in the first k coordinates that no member
    of gens, each a k-tuple at least low, divides.

    With no member, that is the whole box, and with low itself a member, no
    point (at k = 0 the one member is the empty tuple).  Otherwise the box
    is cut on coordinate k into slabs at the members' exponents there, as in
    poset_size: every point of the slab from one cut up to the next is
    divided by the same members, those at or below the cut, so the slab is
    their boxes in the first k - 1 coordinates times its range on
    coordinate k.
    """
    if not gens:
        return [tuple(map(range, low[:k], top))]
    if low[:k] in gens:
        return []
    cuts = sorted({u[-1] for u in gens} | {low[k - 1]}) + [top[k - 1]]
    return [box + (range(cut, end),) for cut, end in zip(cuts, cuts[1:])
            for box in _outside({u[:-1] for u in gens if u[-1] <= cut}, low, top, k - 1)]


def _default_cap(I: MonomialIdeal, J: Optional[MonomialIdeal]) -> Mono:
    g = I.lcm_exponent()
    return g if J is None else monomials.lcm(g, J.lcm_exponent())


def poset_size(I: MonomialIdeal, J: Optional[MonomialIdeal] = None) -> int:
    """len(char_poset(I, J).points) for J inside I, with no point listed.

    Under the default cap g, which dominates every generator, the points of
    I/J are those of the box of g outside J less those outside I; J = None
    has no generator.  outside(gens, k) counts the points of the box of g's
    first k coordinates that none of gens, cut to those coordinates,
    divides: none when one of them is zero, the box less the points above a
    single one, and otherwise the sum over slabs of the box cut on
    coordinate k at the generators' exponents there, as every point of the
    slab from one cut up to the next is divided by the same generators,
    those at or below the cut.
    """
    g = _default_cap(I, J)

    def outside(gens: set, k: int) -> int:
        box = math.prod([e + 1 for e in g[:k]])
        if (0,) * k in gens:
            return 0
        if len(gens) < 2:
            return box - sum(math.prod([e - a + 1 for a, e in zip(u, g)]) for u in gens)
        cuts = sorted({u[-1] for u in gens}) + [g[k - 1] + 1]
        count = cuts[0] * (box // (g[k - 1] + 1))
        for low, high in zip(cuts, cuts[1:]):
            count += (high - low) * outside({u[:-1] for u in gens if u[-1] <= low}, k - 1)
        return count

    return outside(set(() if J is None else J.gens), I.n) - outside(set(I.gens), I.n)


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
        missing = min(P.points - seen)
        raise ValueError(f"point {missing} is not covered")


# The most points, and search calls over all its targets d, that one
# exact_sdepth call may take (the maximal ideal needs 120,183 calls at n = 6).
# Past either the search is refused, which also bounds the memo of failures.
POINT_LIMIT = 512
SEARCH_NODE_LIMIT = 1_000_000


class SearchRefused(ValueError):
    """The exact search refused a poset at the point limit or the node budget."""


def check_point_limit(size: int) -> None:
    """Refuse a poset of size points above POINT_LIMIT."""
    if size > POINT_LIMIT:
        raise SearchRefused(f"poset has {size} points, above the limit {POINT_LIMIT}")


def char_poset_under_limit(I: MonomialIdeal, J: Optional[MonomialIdeal] = None) -> CharPoset:
    """char_poset(I, J) for J inside I, refused above POINT_LIMIT points
    before any point is listed: a poset whose cap's box holds more points
    is counted first."""
    if math.prod(e + 1 for e in _default_cap(I, J)) > POINT_LIMIT:
        check_point_limit(poset_size(I, J))
    return char_poset(I, J)


class SdepthResult(NamedTuple):
    value: int
    partition: tuple  # tuple of Interval


def exact_sdepth(P: CharPoset) -> SdepthResult:
    """Maximum over interval partitions of the minimum interval value.

    Decision search for descending target values: branch on the
    lexicographically smallest uncovered point, try tops by decreasing value,
    ties by increasing top.  The tops from a point are the points of P above
    it, as the poset of a module is convex, each kept when its interval's
    bitmask counts all of the interval's points.  The targets start at the
    start bound: the minimum over points x of the largest value of a point
    of P above x.  The interval that covers x has its top among those
    points, so no partition beats the bound, and the targets above it,
    which would all be refuted, are skipped.  Points are the bits of an int
    in lexicographic order, so the smallest uncovered point is the lowest
    zero bit of the covered set, and failure states are memoized on that
    int.  The search names each interval by the indices of its bottom and
    top, and only the partition it returns is made into Intervals, which
    pass validate_partition before they are returned.  A search
    that visits more than SEARCH_NODE_LIMIT nodes, or a poset above
    POINT_LIMIT, raises SearchRefused.
    """
    check_point_limit(P.size)
    if not P.points:
        return SdepthResult(P.n, ())
    tops = _CandidateTops(P)
    for d in range(_start_bound(tops), -1, -1):
        found = _feasible_partition(tops, d)
        if found is not None:
            partition = [Interval(tops.points[a], tops.points[b]) for a, b in found]
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
    lexicographic order, as (value, j, bitmask), b the j-th point, by
    decreasing value, then top; built on first use and shared by every
    target d, as is the count of search nodes visited so far.

    Point j has its value, up[j], the bitmask of the points at or above it,
    and down[j], of the points at or below it.  The tops from a are the
    points of up[a]: the poset of a module I/J is convex (a <= c <= b with
    a, b in P puts c in P), so every point b above a closes an interval
    [a, b] inside P, whose points are up[a] & down[b].  The interval is
    kept only when that mask has one bit for each of its prod(b_k - a_k + 1)
    points, which drops the tops of a poset that is not convex.  The bits
    of up[a] are the tops in lexicographic order, and a stable sort by
    value puts the list in order.
    """

    def __init__(self, P: CharPoset):
        super().__init__()
        self.nodes = 0
        self.points = sorted(P.points)
        self.cap = P.cap
        self.values = [sum(map(operator.eq, b, self.cap)) for b in self.points]
        # Per coordinate, {t: bitmask of the points at least t there} and
        # {t: bitmask of the points at most t}, for the values t it takes.
        full = (1 << len(self.points)) - 1
        self.up, self.down = [full] * len(self.points), [full] * len(self.points)
        for column in zip(*self.points):
            by_value = {}
            for i, t in enumerate(column):
                by_value[t] = by_value.get(t, 0) | 1 << i
            at_least, at_most, below = {}, {}, 0
            for t in sorted(by_value):
                at_least[t] = full ^ below
                below |= by_value[t]
                at_most[t] = below
            self.up[:] = map(operator.and_, self.up, map(at_least.__getitem__, column))
            self.down[:] = map(operator.and_, self.down, map(at_most.__getitem__, column))

    def __missing__(self, i):
        points, down, values, up = self.points, self.down, self.values, self.up[i]
        before = [s - 1 for s in points[i]]  # [a, b] has prod(b - before) points
        found = []
        tops = bin(up)[:1:-1]  # bit j is character j
        j = tops.find("1")
        while j >= 0:
            mask = up & down[j]
            if mask.bit_count() == math.prod(map(operator.sub, points[j], before)):
                found.append((values[j], j, mask))
            j = tops.find("1", j + 1)
        found.sort(key=operator.itemgetter(0), reverse=True)
        self[i] = found
        return found


def _start_bound(tops) -> int:
    """min over points x of the largest value of a point of P above x.

    at_least[v] is the bitmask of the points of value at least v, so the
    bound only falls while no point above x is in at_least[bound].
    """
    n = len(tops.cap)
    at_least = [0] * (n + 1)
    for i, value in enumerate(tops.values):
        at_least[value] |= 1 << i
    for v in range(n - 1, -1, -1):
        at_least[v] |= at_least[v + 1]
    bound = n
    for above in tops.up:
        while not at_least[bound] & above:
            bound -= 1
    return bound


def _feasible_partition(tops, d: int):
    """An interval partition of every point into intervals of value at least
    d, as a list of the (bottom, top) indices of its intervals, or None."""
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
        for value, top, mask in tops[first]:
            if value < d:
                break
            if not mask & covered:
                rest = search(covered | mask)
                if rest is not None:
                    return [(first, top)] + rest
        failed.add(covered)
        return None

    try:
        partition = search(0)
    finally:
        del search  # it holds itself through its cell
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
    return exact_sdepth(char_poset_under_limit(MonomialIdeal._made(n, gens))).value


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


def verify_decomposition(decomposition, I: MonomialIdeal):
    """Each degree of the box up to I's lcm exponent plus one in every
    coordinate must be covered exactly once iff it lies in I.

    Returns (ok, first bad degree)."""
    for a in itertools.product(*(range(e + 2) for e in I.lcm_exponent())):
        expected = 1 if I.contains(a) else 0
        covering = 0
        for e, Z in decomposition:
            if monomials.divide(a, e) is not None and all(
                    a[j] == e[j] for j in range(len(a)) if j not in Z):
                covering += 1
        if covering != expected:
            return False, a
    return True, None
