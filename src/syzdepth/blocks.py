"""Circular block structures and the constructive squarefree depth bound.

The ground set is [n] = {1, ..., n} arranged clockwise.  A block structure
for a subset A and a rational density delta >= 1 partitions the circle into
anchored blocks and A-free gaps subject to two counting axioms; adjoining
the gaps to A gives the map used to build interval partitions of order
filters, stage by cardinality, with a schedule of densities.

Block structures take subsets of [n] as sets of ints.  Order filters and
their interval partitions are int bitmasks, bit i standing for x_{i+1},
which is element i+1 of [n]: the subset {1, 3} is 0b101.  lifted_f keeps
the set interface and the partition converts at that one call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, NamedTuple, Optional, Sequence

from .stanley import Interval


@dataclass(frozen=True)
class Block:
    B: tuple  # clockwise arc, first element is the anchor
    G: tuple  # following gap, possibly empty


@dataclass(frozen=True)
class BlockStructure:
    n: int
    A: frozenset
    delta: Fraction
    blocks: tuple

    def gaps(self) -> frozenset:
        out = set()
        for block in self.blocks:
            out.update(block.G)
        return frozenset(out)

    def as_set(self) -> frozenset:
        """Rotation-independent identity of the structure."""
        return frozenset((block.B, block.G) for block in self.blocks)


def _delta_range_check(n: int, A, delta: Fraction) -> None:
    if not A:
        raise ValueError("A must be nonempty")
    if not all(1 <= x <= n for x in A):
        raise ValueError(f"A must be a subset of [{n}]")
    if not (1 <= delta and delta * len(A) <= n - 1):
        raise ValueError(f"density {delta} outside [1, (n-1)/|A|] for |A|={len(A)}, n={n}")


def _sweep(n: int, A: frozenset, delta: Fraction, start: int):
    """Deterministic clockwise sweep from a candidate anchor; None on misfit.

    A block grows while the proper-prefix inequality |P|+1 <= delta*|P&A|
    stays satisfied and closes at the first length where it fails; the
    following maximal A-free run is its gap.
    """
    blocks = []
    pos = start
    covered = 0
    while covered < n:
        if pos not in A:
            return None
        arc = [pos]
        in_a = 1
        while len(arc) + 1 <= delta * in_a:
            if covered + len(arc) >= n:
                return None  # the block would wrap past the start
            nxt = arc[-1] % n + 1
            arc.append(nxt)
            in_a += nxt in A
        if not (delta * in_a - 1 < len(arc) <= delta * in_a):
            return None
        covered += len(arc)
        gap = []
        nxt = arc[-1] % n + 1
        while covered < n and nxt not in A:
            gap.append(nxt)
            covered += 1
            nxt = nxt % n + 1
        blocks.append(Block(tuple(arc), tuple(gap)))
        pos = nxt
    if pos != start:
        return None
    return blocks


def check_block_axioms(structure: BlockStructure) -> list:
    """All violations of the four block-structure axioms (empty = valid)."""
    n, A, delta = structure.n, structure.A, structure.delta
    problems = []
    elements = []
    for block in structure.blocks:
        if not block.B:
            problems.append(f"empty block in {structure.blocks}")
            continue
        if block.B[0] not in A:
            problems.append(f"anchor {block.B[0]} of block {block.B} is not in A")
        if any(x in A for x in block.G):
            problems.append(f"gap {block.G} meets A")
        elements.extend(block.B)
        elements.extend(block.G)
        size = len(block.B)
        in_a = sum(1 for x in block.B if x in A)
        if not (delta * in_a - 1 < size <= delta * in_a):
            problems.append(f"block {block.B} violates the size window")
        for k in range(1, size):
            prefix = block.B[:k]
            p_in_a = sum(1 for x in prefix if x in A)
            if not (len(prefix) + 1 <= delta * p_in_a):
                problems.append(f"prefix {prefix} of block {block.B} violates "
                                "the density inequality")
    if sorted(elements) != list(range(1, n + 1)):
        problems.append("blocks and gaps do not partition the circle")
    else:
        # Contiguity: the listed arcs must chain clockwise around the circle.
        seq = []
        for block in structure.blocks:
            seq.extend(block.B)
            seq.extend(block.G)
        for i in range(len(seq)):
            if seq[(i + 1) % n] != seq[i] % n + 1:
                problems.append("arcs are not consecutive on the circle")
                break
    return problems


def block_structure(n: int, A: Iterable, delta) -> BlockStructure:
    """The unique block structure of A at density delta.

    Found by sweeping clockwise from each element of A in turn; the axioms
    are re-checked on the result before it is returned.
    """
    A = frozenset(A)
    delta = Fraction(delta)
    _delta_range_check(n, A, delta)
    for start in sorted(A):
        blocks = _sweep(n, A, delta, start)
        if blocks is not None:
            structure = BlockStructure(n, A, delta, tuple(blocks))
            problems = check_block_axioms(structure)
            if problems:
                raise RuntimeError(f"sweep produced an invalid structure: {problems}")
            return structure
    raise RuntimeError(f"no block structure found for n={n}, A={sorted(A)}, "
                       f"delta={delta}; this should be impossible in range")


def enumerate_block_structures(n: int, A: Iterable, delta) -> list:
    """All axiom-satisfying structures, by brute force over anchor sets and
    block endpoints.  Used to confirm uniqueness at small n."""
    A = frozenset(A)
    delta = Fraction(delta)
    _delta_range_check(n, A, delta)
    found = {}
    anchors_pool = sorted(A)
    for k in range(1, len(anchors_pool) + 1):
        for anchors in itertools.combinations(anchors_pool, k):
            spans = []
            for idx, start in enumerate(anchors):
                nxt = anchors[(idx + 1) % k]
                length = (nxt - start) % n or n
                spans.append(length)
            for cut in itertools.product(*(range(1, span + 1) for span in spans)):
                blocks = []
                for idx, start in enumerate(anchors):
                    b = tuple((start - 1 + t) % n + 1 for t in range(cut[idx]))
                    g = tuple((start - 1 + cut[idx] + t) % n + 1
                              for t in range(spans[idx] - cut[idx]))
                    blocks.append(Block(b, g))
                structure = BlockStructure(n, A, delta, tuple(blocks))
                if not check_block_axioms(structure):
                    found[structure.as_set()] = structure
    return list(found.values())


def f_delta(n: int, A: Iterable, delta) -> frozenset:
    """A together with all gaps of its block structure."""
    structure = block_structure(n, A, delta)
    return frozenset(structure.A) | structure.gaps()


def lifted_f(n: int, A: Iterable, s: int) -> frozenset:
    """The padded-circle map: an (|A|+s)-superset of A inside [n].

    A is padded with n-|A| fresh elements, the block structure at density
    s+1 is taken on the larger circle [ns+n+s], and the result is cut back
    to [n].  For s = 0 the padding degenerates and the map is the identity.
    """
    A = frozenset(A)
    a = len(A)
    if not A or not all(1 <= x <= n for x in A):
        raise ValueError(f"A must be a nonempty subset of [{n}]")
    if n < a * s + a + s:
        raise ValueError(f"need n >= as+a+s, got n={n}, a={a}, s={s}")
    if s == 0:
        return A
    big_n = n * s + n + s
    padded = A | frozenset(range(n + 1, 2 * n - a + 1))
    image = f_delta(big_n, padded, Fraction(s + 1))
    result = frozenset(x for x in image if x <= n)
    if len(result) != a + s:
        raise RuntimeError(f"lifted image has size {len(result)}, expected {a + s}")
    return result


class SigmaSchedule(NamedTuple):
    r: int
    s: int
    values: tuple  # values[i-1] = sigma(i) for i in 1..r

    def __call__(self, i: int) -> int:
        return self.values[i - 1]


def sigma_schedule(s: int) -> SigmaSchedule:
    """Density schedule with r = 2s: sigma(i) = s for i > s, else 2s+1-i."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    r = 2 * s
    values = tuple(s if i >= s + 1 else 2 * s + 1 - i for i in range(1, r + 1))
    return SigmaSchedule(r, s, values)


# ---------------------------------------------------------------------------
# Interval partitions of order filters, on bitmasks


def subset_mask(elements: Iterable) -> int:
    """The bitmask of a subset of [n]: bit i for element i+1."""
    mask = 0
    for x in elements:
        mask |= 1 << (x - 1)
    return mask


def mask_elements(mask: int) -> list:
    """The elements of [n] in a bitmask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def support_mask(degree) -> int:
    """The bitmask of the support of an exponent vector."""
    mask = 0
    for i, e in enumerate(degree):
        if e:
            mask |= 1 << i
    return mask


def _lex_key(n: int):
    """Sort key for masks of one size: ascending keys list the subsets in
    lexicographic order of their sorted elements.  Two sets of one size
    first differ at the least element of their symmetric difference, and
    the set holding it comes first; the key is the complement written
    least element first, where that set reads 0."""
    full = (1 << n) - 1
    return lambda mask: f"{full ^ mask:0{n}b}"[::-1]


def _upset(base: int, free: int) -> list:
    """base | sub for every submask sub of free."""
    out = []
    sub = free
    while True:
        out.append(base | sub)
        if not sub:
            return out
        sub = (sub - 1) & free


def is_order_filter(n: int, sets) -> Optional[tuple]:
    """None when up-closed; otherwise a violating (member, superset) pair."""
    family = set(sets)
    full = (1 << n) - 1
    for S in family:
        free = full & ~S
        while free:
            bit = free & -free
            if S | bit not in family:
                return (S, S | bit)
            free ^= bit
    return None


def filter_of_supports(n: int, supports: Iterable) -> set:
    """The order filter generated by the given support masks inside [n].

    The up-closure of a support g is g together with every submask of its
    complement; a support reaching outside [n] has no superset inside it.
    """
    full = (1 << n) - 1
    out = set()
    for g in supports:
        if not g & ~full:
            out.update(_upset(g, full & ~g))
    return out


def _largest_s(budget: int) -> int:
    s = 0
    while (2 * (s + 1) + 1) * (s + 2) <= budget:
        s += 1
    return s


def squarefree_partition(n: int, filter_sets) -> list:
    """Interval partition of an order filter with all tops of size >= 2s+1.

    The filter and the returned (bottom, top) pairs are bitmasks.  Stage a
    covers every uncovered a-set A, in lexicographic order, by the interval
    up to lifted_f(n, A, sigma(a)); whatever survives the r stages becomes a
    trivial interval, by size and then lexicographically.  Disjointness is
    asserted while covering.
    """
    family = set(filter_sets)
    if not family:
        return []
    if max(family) >> n:
        raise ValueError(f"the filter has a set outside [{n}]")
    bad = is_order_filter(n, family)
    if bad is not None:
        raise ValueError(f"not an order filter: {mask_elements(bad[0])} is in but "
                         f"{mask_elements(bad[1])} is not")
    if 0 in family:
        raise ValueError("the filter contains the empty set (unit ideal)")
    schedule = sigma_schedule(_largest_s(n + 1))
    by_size = [[] for _ in range(n + 1)]
    for S in family:
        by_size[S.bit_count()].append(S)
    key = _lex_key(n)
    covered = set()
    out = []
    for a in range(1, schedule.r + 1):
        for A in sorted(by_size[a], key=key):
            if A in covered:
                continue
            top = subset_mask(lifted_f(n, mask_elements(A), schedule(a)))
            members = _upset(A, top & ~A)
            if not covered.isdisjoint(members):
                # The first clash in the order of growing extensions of A.
                clash = min((C for C in members if C in covered),
                            key=lambda C: (C.bit_count(), key(C & ~A)))
                raise RuntimeError(f"stage {a} interval [{mask_elements(A)}, "
                                   f"{mask_elements(top)}] meets the cover at "
                                   f"{mask_elements(clash)}")
            covered.update(members)
            out.append((A, top))
    for size in by_size:
        out.extend((B, B) for B in sorted(size, key=key) if B not in covered)
    return out


_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def subset_to_degree(n: int, mask: int) -> tuple:
    """The exponent vector of a mask inside [n]: its n binary digits, least
    significant first, as ints."""
    return tuple(format(mask, "b").zfill(n)[::-1].encode().translate(_DIGIT_VALUES))


def to_interval_partition(n: int, pairs) -> list:
    """Convert mask intervals to exponent-tuple intervals (cap all ones)."""
    return [Interval(subset_to_degree(n, A), subset_to_degree(n, B))
            for A, B in pairs]


# ---------------------------------------------------------------------------
# Closed-form depth bounds


def sqfree_lower_bound(n: int) -> int:
    """2s+1 for the largest s with (2s+1)(s+1) <= n+1."""
    if n < 1:
        raise ValueError("n must be positive")
    return 2 * _largest_s(n + 1) + 1


def sqfree_lower_bound_closed_form(n: int) -> int:
    """Integer-arithmetic evaluation of the printed square-root formula."""
    return 2 * ((isqrt(8 * n + 9) + 1) // 4) - 1


def syzygy_sqfree_bound(n: int, d: int, p: int) -> int:
    """2s+1+d+p for the largest s with (2s+1)(s+1) <= n+1-d-p."""
    if p < 1:
        raise ValueError("p must be at least 1")
    if d < 0:
        raise ValueError("d must be nonnegative")
    budget = n + 1 - d - p
    if budget < 1:
        raise ValueError(f"need n+1-d-p >= 1, got {budget}")
    return 2 * _largest_s(budget) + 1 + d + p


def syzygy_sqfree_bound_closed_form(n: int, d: int, p: int) -> int:
    return 2 * ((isqrt(8 * (n - d - p) + 9) + 1) // 4) + d + p - 1
