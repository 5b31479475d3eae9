"""Randomized and exhaustive verification harness for the library's theorems.

Each job draws seeded instances, runs the relevant certified check and emits
one report per instance; reports embed the instance for replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import blocks, monomials
from .complexes import (
    comparison_cone,
    is_minimal,
    minimize,
    shift_complex,
    syzygy_generators,
    taylor_complex,
)
from .freemod import TermOrder
from .groebner import buchberger, initial_module, is_squarefree_module, monomial_module_from_terms
from .instances import (
    ideal_instance,
    random_monomial_ideal,
    random_regular_sequence,
    random_stable_ideal,
    trial_rng,
)
from .monomials import MonomialIdeal
from .stanley import char_poset, exact_sdepth, filtration_lower_bound, validate_partition
from .syzygy import compose_cone_gb, lex_refined_initial, verify_boundary_gb, verify_theorem_main

THEOREMS = ("theorem-main", "boundary-gb", "mainsyz", "regular",
            "sqfree-stde", "squarefree", "lemma-groebner")


@dataclass
class VerifyJob:
    theorem: str
    trials: int = 20
    seed: int = 0
    n_max: int = 4
    m_max: int = 4
    exp_max: int = 3

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem {self.theorem!r}; choose from {THEOREMS}")


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
    G = shift_complex(taylor_complex(quotients, n), last)
    return comparison_cone(G, F, last)


def run_verify_job(job: VerifyJob) -> Iterator[dict]:
    runner = _RUNNERS[job.theorem]
    for index in range(job.trials):
        rng = trial_rng(job.seed, index)
        report = runner(rng, job)
        report["trial"] = index
        yield report


def all_pass(reports) -> bool:
    return all(r["status"] == "PASS" for r in reports)


def _report(theorem, instance, status, witness=None) -> dict:
    return {"theorem": theorem, "instance": instance, "status": status,
            "witness": witness or {}}


def _run_theorem_main(rng, job) -> dict:
    I = random_monomial_ideal(rng, job.n_max, job.m_max, job.exp_max)
    instance = ideal_instance(I)
    C = taylor_complex(list(I.gens), I.n)
    complexes = [("taylor", C)]
    if not is_minimal(C):
        # minimize only re-sorts a minimal complex lex-refined, and
        # lex_refined_initial sorts the same way, so it would agree.
        complexes.append(("minimized", minimize(C)))
    for tag, cx in complexes:
        for p in range(0, I.n + 1):
            rep = verify_theorem_main(cx, p, instance)
            if not rep.passed:
                return _report("theorem-main", instance, "FAIL",
                               {"complex": tag, **rep.to_jsonable()})
    return _report("theorem-main", instance, "PASS")


def _run_boundary_gb(rng, job) -> dict:
    I = random_monomial_ideal(rng, job.n_max, job.m_max, job.exp_max)
    instance = ideal_instance(I)
    C = taylor_complex(list(I.gens), I.n)
    for p in range(1, C.length + 1):
        rep = verify_boundary_gb(C, p, taylor_gens=list(I.gens))
        if not rep.equal:
            return _report("boundary-gb", instance, "FAIL",
                           {"complex": "taylor", **rep.to_jsonable()})
    from .complexes import eliahou_kervaire

    stable = random_stable_ideal(rng, min(job.n_max, 3), job.m_max, min(job.exp_max, 2))
    if not stable.is_unit() and not stable.is_zero():
        EK = eliahou_kervaire(stable)
        for p in range(1, EK.length + 1):
            rep = verify_boundary_gb(EK, p)
            if not rep.equal:
                return _report("boundary-gb", ideal_instance(stable), "FAIL",
                               {"complex": "eliahou-kervaire", **rep.to_jsonable()})
    return _report("boundary-gb", instance, "PASS")


def _run_lemma_groebner(rng, job) -> dict:
    I = random_monomial_ideal(rng, job.n_max, job.m_max, job.exp_max, min_gens=2)
    while len(I.gens) < 2:
        I = random_monomial_ideal(rng, job.n_max, job.m_max, job.exp_max, min_gens=2)
    instance = ideal_instance(I)
    gens = list(I.gens)
    cone, phi = taylor_step_cone(gens, I.n)
    G, F = phi.source, phi.target
    for i in range(1, cone.length + 1):
        order_c = TermOrder(cone.basis(i), "lex")
        ini_c = initial_module(syzygy_generators(cone, i), order_c)
        # Z_{i-1}(G) is generated by the columns of the i-th differential of G
        # (at i = 1 these generate the resolved colon module itself).
        gbG = (buchberger(list(G.differential(i)), TermOrder(G.basis(i - 1), "lex"))
               if i <= G.length else None)
        gbF = (buchberger(syzygy_generators(F, i), TermOrder(F.basis(i), "lex"))
               if i <= F.length else None)
        g_components = (
            monomial_module_from_terms(gbG.order.basis, gbG.leading_terms()).components
            if gbG is not None
            else tuple(MonomialIdeal(I.n, []) for _ in range(G.rank(i - 1))))
        f_components = (
            monomial_module_from_terms(gbF.order.basis, gbF.leading_terms()).components
            if gbF is not None else ())
        expected = g_components + f_components
        if ini_c.components != expected:
            return _report("lemma-groebner", instance, "FAIL",
                           {"i": i, "cone": ini_c.to_jsonable()})
        if gbF is not None and gbG is not None:
            try:
                compose_cone_gb(gbF, gbG, phi, cone, i)
            except RuntimeError as exc:
                return _report("lemma-groebner", instance, "FAIL",
                               {"i": i, "compose_error": str(exc)})
    return _report("lemma-groebner", instance, "PASS")


def _run_mainsyz(rng, job) -> dict:
    I = random_monomial_ideal(rng, job.n_max, job.m_max, job.exp_max)
    instance = ideal_instance(I)
    C = taylor_complex(list(I.gens), I.n)
    minimized = minimize(C)
    for p in range(1, I.n):
        if minimized.rank(p + 1) == 0:
            continue  # Z_p is zero or free in the minimal resolution
        ini, _ = lex_refined_initial(C, p)
        bound = filtration_lower_bound(ini)
        if not bound.free and bound.value < p + 1:
            return _report("mainsyz", instance, "FAIL",
                           {"p": p, "bound": bound.value, "required": p + 1})
    return _report("mainsyz", instance, "PASS")


def _run_regular(rng, job) -> dict:
    n, gens = random_regular_sequence(rng, min(job.n_max + 1, 5), min(job.m_max, 3),
                                      job.exp_max)
    instance = {"n": n, "generators": [list(g) for g in gens]}
    m = len(gens)
    C = taylor_complex(gens, n)
    for p in range(1, m + 1):
        gens_p = syzygy_generators(C, p)
        if not gens_p:
            continue
        ini = initial_module(gens_p, TermOrder(C.basis(p), "lex"))
        bound = filtration_lower_bound(ini)
        required = n - (m - p) // 2
        if not bound.free and bound.value < required:
            return _report("regular", instance, "FAIL",
                           {"p": p, "bound": bound.value, "required": required})
    return _report("regular", instance, "PASS")


def _run_sqfree_stde(rng, job) -> dict:
    n = rng.randint(2, max(2, job.n_max))
    I = random_monomial_ideal(rng, n, job.m_max, 1, squarefree=True, n=n)
    instance = ideal_instance(I)
    supports = [frozenset(i + 1 for i in monomials.support(g)) for g in I.gens]
    family = blocks.filter_of_supports(n, supports)
    pairs = blocks.squarefree_partition(n, family)
    poset = char_poset(I, g=(1,) * n)
    intervals = blocks.to_interval_partition(n, pairs)
    try:
        validate_partition(poset, intervals)
    except ValueError as exc:
        return _report("sqfree-stde", instance, "FAIL", {"error": str(exc)})
    bound = blocks.sqfree_lower_bound(n)
    worst = min(len(B) for _, B in pairs)
    if worst < bound:
        return _report("sqfree-stde", instance, "FAIL",
                       {"min_top": worst, "bound": bound})
    if n <= 5:
        exact = exact_sdepth(poset)
        if exact.value < bound:
            return _report("sqfree-stde", instance, "FAIL",
                           {"exact": exact.value, "bound": bound})
    return _report("sqfree-stde", instance, "PASS")


def _run_squarefree(rng, job) -> dict:
    n = rng.randint(2, max(2, job.n_max))
    I = random_monomial_ideal(rng, n, job.m_max, 1, squarefree=True, n=n)
    instance = ideal_instance(I)
    d = min(sum(g) for g in I.gens) - 1
    C = minimize(taylor_complex(list(I.gens), I.n))
    for p in range(1, C.length + 1):
        if C.rank(p + 1) == 0:
            continue  # Z_p is zero or free here
        if n + 1 - d - p < 1:
            continue
        ini, _ = lex_refined_initial(C, p)
        if not is_squarefree_module(ini):
            return _report("squarefree", instance, "FAIL",
                           {"p": p, "reason": "initial module not squarefree"})
        bound = filtration_lower_bound(ini)
        required = blocks.syzygy_sqfree_bound(n, d, p)
        if not bound.free and bound.value < required:
            return _report("squarefree", instance, "FAIL",
                           {"p": p, "bound": bound.value, "required": required})
    return _report("squarefree", instance, "PASS")


_RUNNERS = {
    "theorem-main": _run_theorem_main,
    "boundary-gb": _run_boundary_gb,
    "lemma-groebner": _run_lemma_groebner,
    "mainsyz": _run_mainsyz,
    "regular": _run_regular,
    "sqfree-stde": _run_sqfree_stde,
    "squarefree": _run_squarefree,
}
