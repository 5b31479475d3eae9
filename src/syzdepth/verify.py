"""Randomized and exhaustive verification harness for the library's theorems.

Each job draws seeded instances, runs the relevant certified check and emits
one report per instance; reports embed the instance for replay.  Every
stream is a pure function of (seed, trial index), so any report can be
replayed byte for byte.  A runner returns the trial's instance and a
failure witness, None for a pass, and run_verify_job alone writes the
report.  The runners call groebner's engines on the rows of the complexes
they build, which the library wrote, so no trial checks a row.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

from . import blocks, monomials
from .complexes import (
    comparison_cone,
    eliahou_kervaire,
    is_minimal,
    minimize,
    stable_closure,
    syzygy_rows,
    taylor_complex,
)
from .groebner import (
    _buchberger,
    _initial_module,
    _leading_module,
    is_squarefree_module,
)
from .monomials import MonomialIdeal
from .stanley import char_poset, exact_sdepth, filtration_lower_bound, validate_partition
from .syzygy import compose_cone_gb, lex_refined_initial, verify_boundary_gb, verify_theorem_main

@dataclass
class VerifyJob:
    """One verify run; cli's grammar holds the defaults of its fields."""

    theorem: str
    trials: int
    seed: int
    n_max: int
    m_max: int
    exp_max: int

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem {self.theorem!r}; choose from {THEOREMS}")
        if self.trials < 0:
            raise ValueError("--trials must be at least 0")
        for flag, value in (("--n-max", self.n_max), ("--m-max", self.m_max),
                            ("--exp-max", self.exp_max)):
            if value < 1:
                raise ValueError(f"{flag} must be at least 1")
        if self.exp_max >= monomials.EXPONENT_CAP:
            # Exponents are drawn up to exp_max, and the ideals made of them
            # are not checked again.
            raise ValueError(f"--exp-max must be below {monomials.EXPONENT_CAP}")
        if self.theorem == "lemma-groebner" and self.n_max < 2:
            # One variable gives principal ideals only, and the runner
            # redraws until it has two generators.
            raise ValueError("--n-max must be at least 2 for lemma-groebner")
        if self.theorem in ("sqfree-stde", "squarefree") and self.n_max < 2:
            # The runners draw 2 to n_max variables.
            raise ValueError(f"--n-max must be at least 2 for {self.theorem}")


def trial_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def random_monomial_ideal(rng: random.Random, n_max: int, m_max: int,
                          exp_max: int, min_gens: int = 1,
                          n: Optional[int] = None) -> MonomialIdeal:
    """Uniform exponents in [0, exp_max], zero vectors rejected, generators
    deduplicated and minimalized; the draws are length n, nonnegative and
    below the cap, so the ideal is made unchecked."""
    if n is None:
        n = rng.randint(1, n_max)
    m = rng.randint(min_gens, max(min_gens, m_max))
    gens = []
    attempts = 0
    while len(gens) < m and attempts < 50 * m:
        attempts += 1
        u = tuple(rng.randint(0, exp_max) for _ in range(n))
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


def ideal_instance(n: int, gens) -> dict:
    """The replay layout of a stream's instance: n and the generators."""
    return {"n": n, "generators": [list(g) for g in gens]}


def taylor_step_cone(gens, n):
    """The mapping cone of the last Taylor iteration step for the sequence.

    Returns (cone, phi) where phi maps the shifted Taylor complex of the
    colon quotients into the Taylor complex of the first m-1 generators.
    """
    m = len(gens)
    if m < 2:
        raise ValueError("need at least two generators to form the cone step")
    F = taylor_complex(gens[:-1], n)
    last = gens[-1]
    quotients = [monomials.divide(u, monomials.gcd(u, last)) for u in gens[:-1]]
    return comparison_cone(F, quotients, last)


def run_verify_job(job: VerifyJob) -> Iterator[dict]:
    runner = _RUNNERS[job.theorem]
    for index in range(job.trials):
        instance, witness = runner(trial_rng(job.seed, index), job)
        yield {"theorem": job.theorem, "instance": instance,
               "status": "PASS" if witness is None else "FAIL",
               "witness": witness or {}, "trial": index}


def _taylor_trial(rng, job):
    """A drawn ideal, its instance and its Taylor complex."""
    I = random_monomial_ideal(rng, job.n_max, job.m_max, job.exp_max)
    return I, ideal_instance(I.n, I.gens), taylor_complex(list(I.gens), I.n)


def _squarefree_trial(rng, job):
    """A drawn squarefree ideal in 2 to n_max variables and its instance."""
    n = rng.randint(2, job.n_max)
    I = random_monomial_ideal(rng, n, job.m_max, 1, n=n)
    return I, ideal_instance(I.n, I.gens)


def _bound_failure(p, ini, required):
    """The witness when ini(Z_p) is not free and its filtration bound is
    below required, else None."""
    bound = filtration_lower_bound(ini)
    if not bound.free and bound.value < required:
        return {"p": p, "bound": bound.value, "required": required}


def _run_theorem_main(rng, job):
    I, instance, C = _taylor_trial(rng, job)
    complexes = [("taylor", C)]
    if not is_minimal(C):
        # minimize only re-sorts a minimal complex lex-refined, and
        # lex_refined_initial sorts the same way, so it would agree.
        complexes.append(("minimized", minimize(C)))
    for tag, cx in complexes:
        for p in range(0, I.n + 1):
            rep = verify_theorem_main(cx, p)
            if not rep.passed:
                return instance, {"complex": tag, "instance": instance, **rep.to_jsonable()}
    return instance, None


def _run_boundary_gb(rng, job):
    I, instance, C = _taylor_trial(rng, job)
    for p in range(1, C.length + 1):
        rep = verify_boundary_gb(C, p, taylor_gens=list(I.gens))
        if not rep.equal:
            return instance, {"complex": "taylor", **rep.to_jsonable()}
    stable = random_stable_ideal(rng, min(job.n_max, 3), job.m_max, min(job.exp_max, 2))
    if not stable.is_unit() and not stable.is_zero():
        EK = eliahou_kervaire(stable)
        for p in range(1, EK.length + 1):
            rep = verify_boundary_gb(EK, p)
            if not rep.equal:
                return ideal_instance(stable.n, stable.gens), {
                    "complex": "eliahou-kervaire", **rep.to_jsonable()}
    return instance, None


def _run_lemma_groebner(rng, job):
    I = random_monomial_ideal(rng, job.n_max, job.m_max, job.exp_max, min_gens=2)
    while len(I.gens) < 2:
        I = random_monomial_ideal(rng, job.n_max, job.m_max, job.exp_max, min_gens=2)
    instance = ideal_instance(I.n, I.gens)
    gens = list(I.gens)
    cone, phi = taylor_step_cone(gens, I.n)
    G, F = phi.source, phi.target
    for i in range(1, cone.length + 1):
        ini_c = _initial_module(*syzygy_rows(cone, i), cone.basis(i))
        # Z_{i-1}(G) is generated by the columns of the i-th differential of G
        # (at i = 1 these generate the resolved colon module itself).
        gbG = (_buchberger(*syzygy_rows(G, i - 1), G.basis(i - 1))
               if i <= G.length else None)
        gbF = (_buchberger(*syzygy_rows(F, i), F.basis(i))
               if i <= F.length else None)
        g_components = (
            _leading_module(gbG.rows, gbG.degrees, gbG.basis).components
            if gbG is not None
            else tuple(MonomialIdeal._made(I.n, ()) for _ in range(G.rank(i - 1))))
        f_components = (
            _leading_module(gbF.rows, gbF.degrees, gbF.basis).components
            if gbF is not None else ())
        expected = g_components + f_components
        if ini_c.components != expected:
            return instance, {"i": i, "cone": ini_c.to_jsonable()}
        if gbF is not None and gbG is not None:
            try:
                compose_cone_gb(gbF, gbG, phi, cone, i, oracle=ini_c)
            except RuntimeError as exc:
                return instance, {"i": i, "compose_error": str(exc)}
    return instance, None


def _run_mainsyz(rng, job):
    I, instance, C = _taylor_trial(rng, job)
    minimized = minimize(C)
    for p in range(1, I.n):
        if minimized.rank(p + 1) == 0:
            continue  # Z_p is zero or free in the minimal resolution
        ini, _ = lex_refined_initial(C, p)
        if failure := _bound_failure(p, ini, p + 1):
            return instance, failure
    return instance, None


def _run_regular(rng, job):
    n, gens = random_regular_sequence(rng, min(job.n_max + 1, 5), min(job.m_max, 3),
                                      job.exp_max)
    instance = ideal_instance(n, gens)
    m = len(gens)
    C = taylor_complex(gens, n)
    for p in range(1, m + 1):
        rows, degrees = syzygy_rows(C, p)
        if not rows:
            continue
        ini = _initial_module(rows, degrees, C.basis(p))
        if failure := _bound_failure(p, ini, n - (m - p) // 2):
            return instance, failure
    return instance, None


def _run_sqfree_stde(rng, job):
    I, instance = _squarefree_trial(rng, job)
    n = I.n
    pairs, worst = blocks.squarefree_certificate(n, map(blocks.support_mask, I.gens))
    poset = char_poset(I, g=(1,) * n)
    intervals = blocks.to_interval_partition(n, pairs)
    try:
        validate_partition(poset, intervals)
    except ValueError as exc:
        return instance, {"error": str(exc)}
    bound = blocks.sqfree_lower_bound(n)
    if worst < bound:
        return instance, {"min_top": worst, "bound": bound}
    if n <= 5:
        exact = exact_sdepth(poset)
        if exact.value < bound:
            return instance, {"exact": exact.value, "bound": bound}
    return instance, None


def _run_squarefree(rng, job):
    I, instance = _squarefree_trial(rng, job)
    n = I.n
    d = min(sum(g) for g in I.gens) - 1
    C = minimize(taylor_complex(list(I.gens), I.n))
    for p in range(1, C.length + 1):
        if C.rank(p + 1) == 0:
            continue  # Z_p is zero or free here
        if n + 1 - d - p < 1:
            continue
        ini, _ = lex_refined_initial(C, p)
        if not is_squarefree_module(ini):
            return instance, {"p": p, "reason": "initial module not squarefree"}
        required = blocks.syzygy_sqfree_bound(n, d, p)
        if failure := _bound_failure(p, ini, required):
            return instance, failure
    return instance, None


_RUNNERS = {
    "theorem-main": _run_theorem_main,
    "boundary-gb": _run_boundary_gb,
    "mainsyz": _run_mainsyz,
    "regular": _run_regular,
    "sqfree-stde": _run_sqfree_stde,
    "squarefree": _run_squarefree,
    "lemma-groebner": _run_lemma_groebner,
}
THEOREMS = tuple(_RUNNERS)
