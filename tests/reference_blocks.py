"""Oracles for syzdepth.blocks that only the tests call.

enumerate_block_structures and the two closed forms were blocks' own,
moved here verbatim: the brute-force enumeration confirms that the sweep's
structure is the unique one at small n, and the closed forms evaluate the
printed square-root formulas the search-based bounds must match.
structure_key, which keys the enumeration, was BlockStructure.as_set.

reference_sweep, reference_block_structure and reference_lifted_f are
blocks' _sweep, block_structure and lifted_f as they read when every
density was a Fraction, kept verbatim apart from the reference_ prefix: the
library now sweeps an integral density in int arithmetic, and these give
the Fraction answer it must equal.  reference_f_delta is f_delta on them.
"""

import itertools
from fractions import Fraction
from math import isqrt
from typing import Iterable

from syzdepth.blocks import (Block, BlockStructure, _delta_range_check,
                             check_block_axioms)


def structure_key(structure: BlockStructure) -> frozenset:
    """Rotation-independent identity of the structure."""
    return frozenset((block.B, block.G) for block in structure.blocks)


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
                    found[structure_key(structure)] = structure
    return list(found.values())


def sqfree_lower_bound_closed_form(n: int) -> int:
    """Integer-arithmetic evaluation of the printed square-root formula."""
    return 2 * ((isqrt(8 * n + 9) + 1) // 4) - 1


def syzygy_sqfree_bound_closed_form(n: int, d: int, p: int) -> int:
    return 2 * ((isqrt(8 * (n - d - p) + 9) + 1) // 4) + d + p - 1


def reference_sweep(n: int, A: frozenset, delta: Fraction, start: int):
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


def reference_block_structure(n: int, A: Iterable, delta) -> BlockStructure:
    """The unique block structure of A at density delta.

    Found by sweeping clockwise from each element of A in turn; the axioms
    are re-checked on the result before it is returned.
    """
    A = frozenset(A)
    delta = Fraction(delta)
    _delta_range_check(n, A, delta)
    for start in sorted(A):
        blocks = reference_sweep(n, A, delta, start)
        if blocks is not None:
            structure = BlockStructure(n, A, delta, tuple(blocks))
            problems = check_block_axioms(structure)
            if problems:
                raise RuntimeError(f"sweep produced an invalid structure: {problems}")
            return structure
    raise RuntimeError(f"no block structure found for n={n}, A={sorted(A)}, "
                       f"delta={delta}; this should be impossible in range")


def reference_f_delta(n: int, A: Iterable, delta) -> frozenset:
    """A together with all gaps of its block structure."""
    structure = reference_block_structure(n, A, delta)
    return frozenset(structure.A) | structure.gaps()


def reference_lifted_f(n: int, A: Iterable, s: int) -> frozenset:
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
    image = reference_f_delta(big_n, padded, Fraction(s + 1))
    result = frozenset(x for x in image if x <= n)
    if len(result) != a + s:
        raise RuntimeError(f"lifted image has size {len(result)}, expected {a + s}")
    return result
