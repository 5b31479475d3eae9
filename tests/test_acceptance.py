"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
Seeds are fixed so every run checks the identical instance corpus.
"""

import itertools
import time
from fractions import Fraction

import pytest

from syzdepth.blocks import (
    block_structure,
    check_block_axioms,
    filter_of_supports,
    sqfree_lower_bound,
    squarefree_partition,
    subset_mask,
    support_mask,
    syzygy_sqfree_bound,
    to_interval_partition,
)
from syzdepth.complexes import (
    check_complex,
    check_exactness_on_box,
    eliahou_kervaire,
    is_stable,
    minimize,
    syzygy_rows,
    taylor_complex,
)
from syzdepth.groebner import buchberger, initial_module, is_squarefree_module
from syzdepth.verify import (
    random_monomial_ideal,
    random_regular_sequence,
    trial_rng,
)
from syzdepth.monomials import MonomialIdeal, unit
from syzdepth.stanley import (
    char_poset,
    exact_sdepth,
    filtration_lower_bound,
    ideal_sdepth,
    validate_partition,
)
from syzdepth.syzygy import lex_refined_initial, verify_boundary_gb, verify_theorem_main
from syzdepth.verify import taylor_step_cone

from reference_blocks import enumerate_block_structures, sqfree_lower_bound_closed_form

CORPUS_SEED = 1729
CORPUS_SIZE = 200


def announce(number, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:2d}: {status} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    out = []
    for t in range(CORPUS_SIZE):
        rng = trial_rng(CORPUS_SEED, t)
        I = random_monomial_ideal(rng, n_max=4, m_max=5, exp_max=3)
        out.append((I, taylor_complex(list(I.gens), I.n)))
    return out


@pytest.fixture(scope="module")
def minimized(corpus):
    return [minimize(C) for _, C in corpus]


def test_criterion_01_complex_validity(corpus):
    t0 = time.time()
    stable_count = 0
    for I, C in corpus:
        assert check_complex(C)
        assert check_exactness_on_box(C, I).ok, I
        if is_stable(I):
            stable_count += 1
            EK = eliahou_kervaire(I)
            assert check_complex(EK)
            assert check_exactness_on_box(EK, I).ok, I
    elapsed = time.time() - t0
    announce(1, elapsed < 120, elapsed,
             f"{CORPUS_SIZE} ideals, {stable_count} stable")


def test_criterion_02_theorem_main(corpus, minimized):
    t0 = time.time()
    checked = 0
    for (I, C), M in zip(corpus, minimized):
        for cx in (C, M):
            for p in range(0, I.n + 1):
                rep = verify_theorem_main(cx, p)
                assert rep.passed, (I, p, rep.to_jsonable())
                checked += 1
    announce(2, True, time.time() - t0, f"{checked} (complex, p) pairs")


def test_criterion_03_three_way_equality(corpus):
    t0 = time.time()
    for I, C in corpus:
        for p in range(1, C.length + 1):
            rep = verify_boundary_gb(C, p, taylor_gens=list(I.gens))
            assert rep.equal, (I, p)
    # Koszul complexes of regular sequences with up to four generators.
    for t in range(40):
        rng = trial_rng(CORPUS_SEED + 1, t)
        n, gens = random_regular_sequence(rng, n_max=4, m_max=4, exp_max=3)
        K = taylor_complex(gens, n)
        for p in range(1, K.length + 1):
            rep = verify_boundary_gb(K, p, taylor_gens=gens)
            assert rep.equal, (gens, p)
    announce(3, True, time.time() - t0)


def test_criterion_04_cone_groebner_composition():
    from syzdepth.syzygy import compose_cone_gb

    t0 = time.time()
    done = 0
    t = 0
    while done < 50:
        rng = trial_rng(CORPUS_SEED + 2, t)
        t += 1
        I = random_monomial_ideal(rng, n_max=4, m_max=5, exp_max=3, min_gens=2)
        if len(I.gens) < 2:
            continue
        done += 1
        cone, phi = taylor_step_cone(list(I.gens), I.n)
        G, F = phi.source, phi.target
        for i in range(1, cone.length + 1):
            ini_c = initial_module(*syzygy_rows(cone, i), cone.basis(i))
            g_parts = ()
            if G.rank(i - 1):
                if i <= G.length:
                    g_parts = initial_module(*syzygy_rows(G, i - 1), G.basis(i - 1)).components
                else:
                    g_parts = tuple(MonomialIdeal(I.n, []) for _ in range(G.rank(i - 1)))
            f_parts = ()
            if F.rank(i):
                f_parts = initial_module(*syzygy_rows(F, i), F.basis(i)).components
            assert ini_c.components == tuple(g_parts) + tuple(f_parts), (I, i)
            if i <= F.length:
                gbF = buchberger(*syzygy_rows(F, i), F.basis(i))
                gbG = buchberger(*syzygy_rows(G, i - 1), G.basis(i - 1)) \
                    if i <= G.length else buchberger([], [], cone.basis(i))
                compose_cone_gb(gbF, gbG, phi, cone, i)  # raises unless certified
    announce(4, True, time.time() - t0, "50 cones")


def maximal_ideal(n):
    return MonomialIdeal(n, [tuple(1 if j == i else 0 for j in range(n))
                             for i in range(n)])


def test_criterion_05_sdepth_anchors():
    t0 = time.time()
    for n in range(1, 6):
        assert exact_sdepth(char_poset(maximal_ideal(n))).value == -(-n // 2), n
    for n in (1, 2, 3):
        P = char_poset(MonomialIdeal(n, [unit(n)]), maximal_ideal(n))
        assert exact_sdepth(P).value == 0, n
    complete_intersections = [
        (2, [(1, 0), (0, 1)]),
        (2, [(2, 0), (0, 3)]),
        (3, [(1, 1, 0), (0, 0, 2)]),
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        (4, [(1, 1, 0, 0), (0, 0, 1, 1)]),
        (4, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0)]),
        (5, [(1, 0, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 0, 1, 1)]),
        (5, [(3, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 1, 1, 1)]),
        (5, [(1, 1, 1, 0, 0), (0, 0, 0, 2, 2)]),
    ]
    for n, gens in complete_intersections:
        assert ideal_sdepth(MonomialIdeal(n, gens)) == n - len(gens) // 2, (n, gens)
    elapsed = time.time() - t0
    announce(5, elapsed < 300, elapsed)


def test_criterion_06_mainsyz_bound(corpus, minimized):
    t0 = time.time()
    checked = skipped_free = 0
    for (I, C), M in zip(corpus, minimized):
        for p in range(1, I.n):
            if M.rank(p + 1) == 0:
                skipped_free += 1
                continue
            ini, _ = lex_refined_initial(C, p)
            bound = filtration_lower_bound(ini)
            assert bound.free or bound.value >= p + 1, (I, p, bound)
            checked += 1
    announce(6, True, time.time() - t0,
             f"{checked} bounds, {skipped_free} free syzygies skipped")


def test_criterion_07_regular_sequences():
    t0 = time.time()
    for t in range(40):
        rng = trial_rng(CORPUS_SEED + 3, t)
        n, gens = random_regular_sequence(rng, n_max=5, m_max=3, exp_max=3)
        m = len(gens)
        C = taylor_complex(gens, n)
        for p in range(1, m + 1):
            rows, degrees = syzygy_rows(C, p)
            if not rows:
                continue
            ini = initial_module(rows, degrees, C.basis(p))
            bound = filtration_lower_bound(ini)
            assert bound.free or bound.value >= n - (m - p) // 2, (gens, p)
        # Z_1 components are truncated regular sequences; Shen's formula is exact.
        ini1 = initial_module(*syzygy_rows(C, 1), C.basis(1))
        for j, component in ini1.nonzero_components():
            k = len(component.gens)
            assert ideal_sdepth(component) == n - k // 2, (gens, j)
    announce(7, True, time.time() - t0)


def test_criterion_08_block_structures():
    t0 = time.time()
    densities = (1, Fraction(3, 2), 2, 3)
    checked = 0
    for n in range(2, 9):
        for size in range(1, n + 1):
            for A in itertools.combinations(range(1, n + 1), size):
                for delta in densities:
                    if Fraction(delta) * size > n - 1:
                        continue
                    structure = block_structure(n, A, delta)
                    assert not check_block_axioms(structure), (n, A, delta)
                    checked += 1
    unique_checked = 0
    for n in range(2, 7):
        for size in range(1, n + 1):
            for A in itertools.combinations(range(1, n + 1), size):
                for delta in densities:
                    if Fraction(delta) * size > n - 1:
                        continue
                    found = enumerate_block_structures(n, A, delta)
                    assert len(found) == 1, (n, A, delta)
                    unique_checked += 1
    announce(8, True, time.time() - t0,
             f"{checked} structures, {unique_checked} uniqueness checks")


def test_criterion_09_squarefree_partitions():
    t0 = time.time()
    # Exhaustive over the order filters of [4].
    n = 4
    universe = [subset_mask(c) for size in range(1, n + 1)
                for c in itertools.combinations(range(1, n + 1), size)]
    seen = set()
    for bits in range(1, 1 << len(universe)):
        gens = [universe[i] for i in range(len(universe)) if bits >> i & 1]
        if any(g1 != g2 and g1 & g2 == g1 for g1 in gens for g2 in gens):
            continue
        family = frozenset(filter_of_supports(n, gens))
        if family in seen:
            continue
        seen.add(family)
        pairs = squarefree_partition(n, family)
        _assert_partition_covers(n, family, pairs)
        assert min(B.bit_count() for _, B in pairs) >= sqfree_lower_bound(n)
    assert len(seen) == 166
    # 200 seeded squarefree ideals with up to nine variables.
    for t in range(200):
        rng = trial_rng(CORPUS_SEED + 4, t)
        nn = rng.randint(2, 9)
        I = random_monomial_ideal(rng, nn, 5, 1, n=nn)
        family = filter_of_supports(nn, [support_mask(g) for g in I.gens])
        pairs = squarefree_partition(nn, family)
        _assert_partition_covers(nn, family, pairs)
        assert min(B.bit_count() for _, B in pairs) >= sqfree_lower_bound(nn), I
    # The n=5 maximal ideal meets its exact Stanley depth.
    I5 = maximal_ideal(5)
    family5 = filter_of_supports(5, [1 << i for i in range(5)])
    pairs5 = squarefree_partition(5, family5)
    poset5 = char_poset(I5, g=(1,) * 5)
    validate_partition(poset5, to_interval_partition(5, pairs5))
    value5 = min(B.bit_count() for _, B in pairs5)
    assert value5 == 3 == exact_sdepth(poset5).value
    elapsed = time.time() - t0
    announce(9, elapsed < 180, elapsed, f"166 filters + 200 ideals")


def _assert_partition_covers(n, family, pairs):
    covered = set()
    for A, B in pairs:
        members = {A | sub for sub in range(1 << n) if sub & (B & ~A) == sub}
        assert members.isdisjoint(covered)
        assert members <= family
        covered |= members
    assert covered == family


def test_criterion_10_closed_forms():
    t0 = time.time()
    s = 0
    for n in range(1, 10 ** 6 + 1):
        while (2 * (s + 1) + 1) * (s + 2) <= n + 1:
            s += 1
        assert 2 * s + 1 == sqfree_lower_bound_closed_form(n), n
    for n in range(1, 101):
        for d in range(0, n + 1):
            for p in range(1, n + 2):
                budget = n + 1 - d - p
                if budget < 1:
                    continue
                value = syzygy_sqfree_bound(n, d, p)
                sv = (value - 1 - d - p) // 2
                assert (2 * sv + 1) * (sv + 1) <= budget, (n, d, p)
                assert (2 * sv + 3) * (sv + 2) > budget, (n, d, p)
    elapsed = time.time() - t0
    announce(10, elapsed < 10, elapsed)


def test_criterion_11_squarefree_syzygies():
    t0 = time.time()
    checked = 0
    for t in range(100):
        rng = trial_rng(CORPUS_SEED + 5, t)
        n = rng.randint(2, 7)
        I = random_monomial_ideal(rng, n, 5, 1, n=n)
        d = min(sum(g) for g in I.gens) - 1
        C = minimize(taylor_complex(list(I.gens), I.n))
        for p in range(1, C.length + 1):
            if C.rank(p + 1) == 0:
                continue  # Z_p is zero or free in the minimal resolution
            if n + 1 - d - p < 1:
                continue
            ini, _ = lex_refined_initial(C, p)
            assert is_squarefree_module(ini), (I, p)
            bound = filtration_lower_bound(ini)
            required = syzygy_sqfree_bound(n, d, p)
            assert bound.free or bound.value >= required, (I, p, bound, required)
            checked += 1
    announce(11, True, time.time() - t0, f"{checked} syzygy modules")
