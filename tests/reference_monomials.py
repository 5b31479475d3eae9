"""Helpers on monomials that only the tests call.

minimalize_ordered was monomials' own, moved here verbatim: the tests use
it to draw minimal generating sets in a chosen order.
"""

from typing import Iterable

from syzdepth.monomials import Mono, minimalize


def minimalize_ordered(gens: Iterable[Mono]) -> tuple:
    """Minimal generators in first-occurrence order of the given sequence."""
    gens = list(gens)
    minimal = set(minimalize(gens))
    return tuple(dict.fromkeys(u for u in gens if u in minimal))
