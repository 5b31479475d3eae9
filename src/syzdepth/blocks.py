"""Circular block structures and the constructive squarefree depth bound.

The ground set is [n] = {1, ..., n} arranged clockwise.  A block structure
for a subset A and a rational density delta >= 1 partitions the circle into
anchored blocks and A-free gaps subject to two counting axioms; adjoining
the gaps to A gives the map used to build interval partitions of order
filters, stage by cardinality, with a schedule of densities.

Block structures take subsets of [n] as sets of ints.  Order filters and
their interval partitions are int bitmasks, bit i standing for x_{i+1},
which is element i+1 of [n]: the subset {1, 3} is 0b101.  lifted_f keeps
the set interface and the partition converts at that one call.  A filter
from outside is checked and partitioned member by member, as a set of masks;
squarefree_certificate builds its own up-closed and partitions it unchecked,
a dense one as a membership table of 2^n bytes; it refuses, before building
either, supports whose up-sets hold more than UPSET_LIMIT sets.

An integral density is held as an int, so the sweep and the axiom check
compare ints; only a non-integral one stays a Fraction.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
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
    delta: int | Fraction  # an int whenever the density is integral
    blocks: tuple

    def gaps(self) -> frozenset:
        out = set()
        for block in self.blocks:
            out.update(block.G)
        return frozenset(out)


def _delta_range_check(n: int, A, delta) -> None:
    if not A:
        raise ValueError("A must be nonempty")
    if not all(1 <= x <= n for x in A):
        raise ValueError(f"A must be a subset of [{n}]")
    if not (1 <= delta and delta * len(A) <= n - 1):
        raise ValueError(f"density {delta} outside [1, (n-1)/|A|] for |A|={len(A)}, n={n}")


def _sweep(n: int, A: frozenset, delta, start: int):
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
    are re-checked on the result before it is returned.  An integral
    density is normalised to an int, so that the sweep runs on ints.
    """
    A = frozenset(A)
    delta = Fraction(delta)
    if delta.denominator == 1:
        delta = delta.numerator
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
    image = f_delta(big_n, padded, s + 1)
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
    """The elements of [n] in a bitmask, in increasing order.  A negative
    mask, which has infinitely many bits set, raises ValueError."""
    if mask < 0:
        raise ValueError(f"a negative mask has no finite list of elements: {mask}")
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


def _upset(base: int, free: int) -> list:
    """base | sub for every submask sub of free."""
    out = []
    sub = free
    while True:
        out.append(base | sub)
        if not sub:
            return out
        sub = (sub - 1) & free


# squarefree_certificate, the only builder of a membership table (one byte
# per subset of [n]), builds one only when 2^n is at most this many times
# the supports' up-sets counted with overlaps.  The table's partition walks
# all 2^n subsets at about a sixth of the per-set code's cost per member, so
# it wins while the filter fills more than about a fifth of the cube.  A filter
# of a few large supports in a large n, such as (x1...x38) in n = 40, is far
# sparser, and only the per-set code can hold it.
_TABLE_RATIO = 4

# The most sets that the supports' up-sets, counted with overlaps, may hold:
# squarefree_certificate refuses more, before it builds any table or set, so
# the filter holds at most this many sets and a table at most _TABLE_RATIO
# times as many bytes.  The singletons of [16] hold 16 * 2^15 sets, at the
# limit; (x1) in 40 variables would ask for a table of 2^40 bytes.
UPSET_LIMIT = 1 << 19

# _REVERSED[b] is the byte b with its eight bits in reverse order.
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _cube_family(n: int, sets) -> set:
    """The masks as a set, each checked to lie in [0, 2^n), the subsets of
    [n], else ValueError."""
    family = set(sets)
    if family and (min(family) < 0 or max(family) >> n):
        raise ValueError(f"the filter has a set outside [{n}]")
    return family


def _without_bit(n: int, i: int) -> int:
    """The int whose byte S is 1 exactly for the subsets S of [n] without i."""
    return int.from_bytes((b"\x01" * (1 << i) + bytes(1 << i)) * (1 << (n - i - 1)), "little")


def is_order_filter(n: int, sets) -> Optional[tuple]:
    """None when up-closed, else a violating (member, superset) pair found
    member by member (_violation).  A mask outside [0, 2^n) is a ValueError."""
    return _violation(n, _cube_family(n, sets))


def _violation(n: int, family: set) -> Optional[tuple]:
    """The first member, in the set's order, with a one-element extension
    missing, and that extension; None when there is none."""
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


def squarefree_certificate(n: int, supports: Iterable) -> tuple:
    """squarefree_partition of filter_of_supports(n, supports), unchecked, and
    the least size of a top (n if there is none).  Where the supports' up-sets,
    counted with overlaps, hold 2^n / _TABLE_RATIO sets or more, the filter is
    made as a membership table, the only one the module builds; otherwise as
    a set.  Read as one int, the table has byte S at bit 8 * S.  Supports
    whose up-sets hold more than UPSET_LIMIT sets raise ValueError first."""
    full = (1 << n) - 1
    supports = [g for g in supports if not g & ~full]
    size = sum(1 << (n - g.bit_count()) for g in supports)
    if size > UPSET_LIMIT:
        raise ValueError(f"the supports' up-sets hold {size} sets, above the limit {UPSET_LIMIT}")
    if _TABLE_RATIO * size < 1 << n:
        pairs = _set_stages(n, filter_of_supports(n, supports))
    else:
        members = sum(1 << 8 * g for g in set(supports))  # byte g is 1
        for i in range(n):
            members |= (members & _without_bit(n, i)) << (8 << i)  # S onto S | 2^i
        table = bytearray(members.to_bytes(1 << n, "little"))

        def cover(covered):
            for C in covered:
                table[C] = 0

        members = itertools.compress(range(1 << n), table)
        pairs = _stages(n, _size_classes(n, members), table.__getitem__, cover)
    return pairs, min(map(int.bit_count, map(operator.itemgetter(1), pairs)), default=n)


def squarefree_partition(n: int, filter_sets) -> list:
    """Interval partition of an order filter with all tops of size >= 2s+1.

    The filter and the returned (bottom, top) pairs are bitmasks.  Stage a
    covers every uncovered a-set A, in lexicographic order, by the interval
    up to lifted_f(n, A, sigma(a)); whatever survives the r stages becomes a
    trivial interval, by size and then lexicographically.  Disjointness is
    asserted while covering.  A mask outside [0, 2^n) raises ValueError.
    The filter is checked (_violation) and partitioned member by member.
    """
    family = _cube_family(n, filter_sets)
    bad = _violation(n, family)
    if bad is not None:
        raise ValueError(f"not an order filter: {mask_elements(bad[0])} is in but "
                         f"{mask_elements(bad[1])} is not")
    return _set_stages(n, family)


def _set_stages(n: int, family: set) -> list:
    """_stages on a set of masks, which loses the members it covers."""
    return _stages(n, _size_classes(n, family), family.__contains__, family.difference_update)


def _size_classes(n: int, masks) -> list:
    """The masks by size, each size class in lexicographic order: of two
    sets of one size, the one holding the least element of their symmetric
    difference has the greater little-endian bytes, each bit-reversed."""
    width = (n + 7) >> 3
    by_size = [[] for _ in range(n + 1)]
    for S in masks:
        by_size[S.bit_count()].append(S)
    for group in by_size:
        group.sort(key=lambda S: S.to_bytes(width, "little").translate(_REVERSED), reverse=True)
    return by_size


def _lex_masks(bits: list, size: int):
    """The unions of `size` of the given bits, in lexicographic order of
    their elements when the bits ascend."""
    return map(sum, itertools.combinations(bits, size))


def _stages(n: int, by_size: list, present, cover) -> list:
    """The stages and trivial intervals on an up-closed filter, unchecked, in
    either form, a set or squarefree_certificate's table: by_size[k] lists
    its k-sets in lexicographic order, present(C) is true while the member C
    is uncovered, and cover(members) marks the members covered.  Both forms
    share the refusal of the unit ideal and the sigma schedule.
    """
    if present(0):
        raise ValueError("the filter contains the empty set (unit ideal)")
    schedule = sigma_schedule(_largest_s(n + 1))
    out = []
    for a in range(1, schedule.r + 1):
        for A in filter(present, by_size[a]):
            top = subset_mask(lifted_f(n, mask_elements(A), schedule(a)))
            members = _upset(A, top & ~A)
            if not all(map(present, members)):
                # The first clash in the order of growing extensions of A.
                free = [1 << (x - 1) for x in mask_elements(top & ~A)]
                clash = next(A | E for size in range(len(free) + 1)
                             for E in _lex_masks(free, size) if not present(A | E))
                raise RuntimeError(f"stage {a} interval [{mask_elements(A)}, "
                                   f"{mask_elements(top)}] meets the cover at "
                                   f"{mask_elements(clash)}")
            cover(members)
            out.append((A, top))
    for size_class in by_size:
        trivial = list(filter(present, size_class))
        out += zip(trivial, trivial)
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

