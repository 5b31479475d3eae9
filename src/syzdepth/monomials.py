"""Exponent-vector arithmetic and monomial ideals.

Monomials and multidegrees are plain tuples of ints of a fixed length n.
Variable priority is fixed at x1 > x2 > ... > xn, so lex is tuple comparison.
"""

from __future__ import annotations

from operator import add, le, sub
from typing import Iterable, Optional

Mono = tuple  # length-n tuple of ints, componentwise >= 0 for monomials

# Exponents stay far below this at desk scale; anything larger is a bug,
# never silent wraparound (Python ints cannot wrap, so this is a sanity cap).
EXPONENT_CAP = 2**31


def unit(n: int) -> Mono:
    return (0,) * n


def variable(i: int, n: int) -> Mono:
    """The monomial x_{i+1}, i.e. the i-th canonical exponent vector (0-based i)."""
    if not 0 <= i < n:
        raise ValueError(f"variable index {i} out of range for n={n}")
    return tuple(1 if j == i else 0 for j in range(n))


def _mismatch(u: Mono, v: Mono) -> ValueError:
    return ValueError(f"mismatched variable counts: {len(u)} vs {len(v)}")


def check_monomial(u: Mono) -> Mono:
    """u, unless an exponent is negative (reported first) or at the cap."""
    if min(u, default=0) < 0:
        raise ValueError(f"negative exponent in monomial {u}")
    if max(u, default=0) >= EXPONENT_CAP:
        raise ValueError(f"exponent overflow in {u}")
    return u


# The helpers below sit in the inner loops of Buchberger and the complexes.
# map stops at the shorter tuple, so each one checks the lengths first.


def mul(u: Mono, v: Mono) -> Mono:
    if len(u) != len(v):
        raise _mismatch(u, v)
    return tuple(map(add, u, v))


def lcm(u: Mono, v: Mono) -> Mono:
    if len(u) != len(v):
        raise _mismatch(u, v)
    return tuple(map(max, u, v))


def gcd(u: Mono, v: Mono) -> Mono:
    if len(u) != len(v):
        raise _mismatch(u, v)
    return tuple(map(min, u, v))


def divides(v: Mono, u: Mono) -> bool:
    """True when v divides u componentwise."""
    if len(u) != len(v):
        raise _mismatch(u, v)
    return all(map(le, v, u))


def divide(u: Mono, v: Mono) -> Optional[Mono]:
    """u/v when v divides u, else None."""
    if len(u) != len(v):
        raise _mismatch(u, v)
    if not all(map(le, v, u)):
        return None
    return tuple(map(sub, u, v))


def support(u: Mono) -> frozenset:
    """Indices (0-based) of variables with positive exponent."""
    return frozenset(i for i, e in enumerate(u) if e > 0)


def is_squarefree(u: Mono) -> bool:
    return all(e <= 1 for e in u)


def lcm_closure(degrees: Iterable[Mono], n: int) -> dict:
    """The zero degree and the lcm of every nonempty subset of the degrees,
    each mapped to its parent, with the keys in lexicographic order.

    Each degree a has the representative lcm{d : d | a} in the closure, and
    the same degrees divide both, so a property that depends only on which
    degrees divide a is decided on the closure (the lcm lattice).

    The closure is lcm-closed after every step, so a degree already in it
    adds nothing and is skipped.  Degrees are walked by increasing total
    degree, ties in lex order, so a degree that is the lcm of earlier ones
    (every basis degree of a Taylor complex, after its generators) is always
    skipped.  A new degree lcm(c, d) has the parent c it was first made
    from, a proper divisor of it; the zero degree has the parent None.  So
    the parents form a tree rooted at zero in which every degree is a
    multiple of its ancestors, and so comes after them in lex order; the
    keys and the parents depend only on the set of degrees.
    """
    parents = {unit(n): None}
    for d in sorted(set(degrees), key=lambda d: (sum(d), d)):
        if d not in parents:
            for c in list(parents):
                parents.setdefault(lcm(c, d), c)
    return {a: parents[a] for a in sorted(parents)}


def minimalize(gens: Iterable[Mono]) -> tuple:
    """Unique minimal generating set of the monomial ideal generated by gens."""
    gens = sorted(set(gens), key=lambda u: (sum(u), u))
    out = []
    for u in gens:
        if not any(divides(v, u) for v in out):
            out.append(u)
    return tuple(out)


class MonomialIdeal:
    """A monomial ideal, stored through its unique minimal generating set.

    The constructor is the check for generators from outside: each must
    have length n and pass check_monomial.  _made takes generators the
    library made from checked ones, and checks nothing.
    """

    __slots__ = ("n", "gens")

    def __init__(self, n: int, generators: Iterable[Mono]):
        self.n = n
        gens = [tuple(g) for g in generators]
        for g in gens:
            if len(g) != n:
                raise ValueError(f"generator {g} does not have length {n}")
            check_monomial(g)
        self.gens = minimalize(gens)

    @classmethod
    def _made(cls, n: int, gens: Iterable[Mono]) -> "MonomialIdeal":
        """The ideal of library-made generators, tuples of length n with
        exponents in range: minimalized, at once when there is at most one."""
        ideal = object.__new__(cls)
        ideal.n = n
        gens = tuple(gens)
        ideal.gens = gens if len(gens) < 2 else minimalize(gens)
        return ideal

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.n == other.n
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.n, self.gens))

    def __repr__(self):
        return f"MonomialIdeal(n={self.n}, gens={list(self.gens)})"

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return any(sum(g) == 0 for g in self.gens)

    def contains(self, u: Mono) -> bool:
        return any(divides(g, u) for g in self.gens)

    def colon(self, v: Mono) -> "MonomialIdeal":
        """The colon ideal (self : v), via u/gcd(u, v) over the generators."""
        return MonomialIdeal._made(self.n, [divide(lcm(g, v), v) for g in self.gens])

    def lcm_exponent(self) -> Mono:
        """Componentwise max of the generator exponents (zero vector if none)."""
        g = [0] * self.n
        for u in self.gens:
            for i, e in enumerate(u):
                if e > g[i]:
                    g[i] = e
        return tuple(g)

    def is_squarefree(self) -> bool:
        return all(is_squarefree(g) for g in self.gens)
