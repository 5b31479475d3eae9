"""Seeded random instances for the verification harness.

Every stream is a pure function of (seed, trial index), so any report can be
replayed byte for byte.
"""

from __future__ import annotations

import random
from typing import Optional

from .complexes import stable_closure
from .monomials import MonomialIdeal


def trial_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def random_monomial_ideal(rng: random.Random, n_max: int, m_max: int,
                          exp_max: int, squarefree: bool = False,
                          min_gens: int = 1, n: Optional[int] = None) -> MonomialIdeal:
    """Uniform exponents in [0, exp_max], zero vectors rejected, generators
    deduplicated and minimalized; the draws are length n, nonnegative and
    below the cap, so the ideal is made unchecked."""
    if n is None:
        n = rng.randint(1, n_max)
    m = rng.randint(min_gens, max(min_gens, m_max))
    cap = 1 if squarefree else exp_max
    gens = []
    attempts = 0
    while len(gens) < m and attempts < 50 * m:
        attempts += 1
        u = tuple(rng.randint(0, cap) for _ in range(n))
        if any(u):
            gens.append(u)
    ideal = MonomialIdeal._made(n, gens)
    if ideal.is_zero():
        return MonomialIdeal._made(n, [tuple(1 if i == 0 else 0 for i in range(n))])
    return ideal


def random_stable_ideal(rng: random.Random, n_max: int, m_max: int,
                        exp_max: int) -> MonomialIdeal:
    base = random_monomial_ideal(rng, n_max, m_max, exp_max)
    return stable_closure(base)


def random_regular_sequence(rng: random.Random, n_max: int, m_max: int, exp_max: int):
    """Monomials with pairwise disjoint supports; returns (n, gens)."""
    n = rng.randint(2, n_max)
    m = rng.randint(1, min(m_max, n))
    variables = list(range(n))
    rng.shuffle(variables)
    cut = sorted(rng.sample(range(1, n), m - 1)) if m > 1 else []
    groups = []
    prev = 0
    for c in cut + [n]:
        groups.append(variables[prev:c])
        prev = c
    gens = []
    for group in groups[:m]:
        u = [0] * n
        size = rng.randint(1, len(group))
        for i in rng.sample(group, size):
            u[i] = rng.randint(1, exp_max)
        gens.append(tuple(u))
    return n, gens


def ideal_instance(I: MonomialIdeal) -> dict:
    return {"n": I.n, "generators": [list(g) for g in I.gens]}
