"""Seeded operation corpora for the three workloads.

Everything here is plain Python and imports nothing from syzdepth: the
instances are generated, and the facts the checks rely on are recorded,
apart from the program under test.  A corpus is a pure function of
(workload, seed, scale); the same arguments give byte-identical inputs.

An operation is a dict with
  "name"   unique label, stable across seeds for the fixed families,
  "kind"   which check applies (resolve, initial, exact, filtration,
           construct, verify),
  "args"   CLI arguments without --input/--output,
  "ideal"  {"n", "generators"} written as the input file (None for verify),
  "facts"  what the independent check needs beyond the ideal.
"""

from __future__ import annotations

import functools
import itertools
import random

VERIFY_THEOREMS = ("theorem-main", "boundary-gb", "lemma-groebner", "mainsyz")

# Calls per operation.  An operation's time is the median of its calls;
# operations of a few milliseconds get more calls, because a 5-call median of
# them still moves with the machine's speed from one run to the next.
CALLS = {"verify": 9, "exact": 11, "filtration": 11}
DEFAULT_CALLS = 5
VERIFY_CAPS = {"n_max": 5, "m_max": 6, "exp_max": 3}

# Exact Stanley-depth search falls off a cliff in the number of poset points
# (a 6-vertex edge ideal with 51 points takes seconds, its neighbours
# milliseconds).  Instances are drawn under these caps, which are properties
# of the input and hold for every seed.  Every labelled graph on 5 vertices,
# and every one on 6 vertices whose edge ideal has at most 38 points, was
# timed below 0.06 s when the caps were chosen.
EDGE6_IDEAL_POINT_CAP = 38
CI_POINT_CAP = 40


# ---------------------------------------------------------------------------
# Monomial helpers (independent of syzdepth.monomials)


def divides(u, v) -> bool:
    return all(a <= b for a, b in zip(u, v))


def lcm_all(gens, n):
    return tuple(max((g[i] for g in gens), default=0) for i in range(n))


def minimal_ordered(gens):
    """Drop duplicates and non-minimal generators, keeping first occurrences."""
    out = []
    for g in gens:
        g = tuple(g)
        if g in out:
            continue
        if any(h != g and divides(h, g) for h in gens):
            continue
        out.append(g)
    return out


def unit_vector(i, n):
    return tuple(1 if j == i else 0 for j in range(n))


def maximal_ideal(n):
    return [unit_vector(i, n) for i in range(n)]


def path_ideal(n):
    return [tuple(1 if j in (i, i + 1) else 0 for j in range(n)) for i in range(n - 1)]


def ideal_json(n, gens):
    return {"n": n, "generators": [list(g) for g in gens]}


def count_points(n, gens, cap, quotient=False):
    """Points a <= cap with x^a in I (or not in I for the quotient)."""
    inside = 0
    total = 0
    for a in itertools.product(*(range(c + 1) for c in cap)):
        total += 1
        inside += any(divides(g, a) for g in gens)
    return total - inside if quotient else inside


def random_ideal(rng, n, m, exp_max):
    """m minimal generators in n variables with exponents <= exp_max."""
    while True:
        gens = []
        for _ in range(50 * m):
            u = tuple(rng.randint(0, exp_max) for _ in range(n))
            if any(u):
                gens.append(u)
            gens = minimal_ordered(gens)
            if len(gens) == m:
                return gens


def exchange_moves(u):
    """x_j * u / x_k for j < k, k the last variable in the support of u."""
    support = [i for i, e in enumerate(u) if e]
    k = support[-1]
    for j in range(k):
        v = list(u)
        v[k] -= 1
        v[j] += 1
        yield tuple(v)


def stable_closure(gens):
    """Smallest ideal containing gens closed under the exchange moves."""
    current = minimal_ordered(gens)
    while True:
        added = [v for u in current for v in exchange_moves(u)
                 if not any(divides(g, v) for g in current)]
        if not added:
            return sorted(current, reverse=True)
        current = minimal_ordered(current + added)


def complete_intersection(rng, n, m, exp_max=2):
    """m monomials with pairwise disjoint nonempty supports."""
    variables = list(range(n))
    rng.shuffle(variables)
    cuts = sorted(rng.sample(range(1, n), m - 1))
    gens = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        group = variables[lo:hi]
        u = [0] * n
        for i in rng.sample(group, rng.randint(1, len(group))):
            u[i] = rng.randint(1, exp_max)
        gens.append(tuple(u))
    return gens


def edge_ideal(n, edges):
    return [tuple(1 if j in e else 0 for j in range(n)) for e in edges]


def random_graph(rng, n, low, high):
    pairs = list(itertools.combinations(range(n), 2))
    return sorted(rng.sample(pairs, rng.randint(low, min(high, len(pairs)))))


def random_squarefree(rng, n, m, smin, smax):
    gens = []
    while len(gens) < m:
        support = rng.sample(range(n), rng.randint(smin, smax))
        gens.append(tuple(1 if j in support else 0 for j in range(n)))
        gens = minimal_ordered(gens)
    return gens


def sqfree_bound(n):
    """2s+1 for the largest s with (2s+1)(s+1) <= n+1."""
    s = 0
    while (2 * s + 3) * (s + 2) <= n + 1:
        s += 1
    return 2 * s + 1


# The instances' isomorphism types come from a fixed pool, drawn once from
# POOL_SEED (and cached, so that set-up times only the presentation and the
# files); the run's seed draws their presentation: the order of the
# variables and the order of the generators.  Every run therefore has the
# same mix of sizes, while the inputs the program sees change with the seed.
POOL_SEED = "syzdepth-bench-pool"


def pool_rng(tag):
    return random.Random(f"{POOL_SEED}:{tag}")


def present(rng, gens, permute=True):
    """Relabel the variables (when permute) and shuffle the generators."""
    n = len(gens[0])
    perm = list(range(n))
    if permute:
        rng.shuffle(perm)
    out = [tuple(g[perm[i]] for i in range(n)) for g in gens]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# certify: exactness certificates and the Hilbert-slice oracle


def _resolve_ops(tag, n, gens, minimize=True):
    ideal = ideal_json(n, gens)
    ops = [{"name": f"resolve/{tag}", "kind": "resolve", "ideal": ideal,
            "args": ["resolve", "--method", "taylor", "--check"], "facts": {}}]
    if minimize:
        ops.append({"name": f"resolve-min/{tag}", "kind": "resolve", "ideal": ideal,
                    "args": ["resolve", "--method", "taylor", "--check", "--minimize"],
                    "facts": {}})
    return ops


def _initial_ops(tag, n, gens, lex_ps, boundary_ps):
    ideal = ideal_json(n, gens)
    ops = []
    for p in lex_ps:
        ops.append({"name": f"initial-lex-p{p}/{tag}", "kind": "initial", "ideal": ideal,
                    "args": ["initial", "--method", "taylor", "--p", str(p),
                             "--basis", "lex", "--oracle"],
                    "facts": {"p": p, "basis": "lex"}})
    for p in boundary_ps:
        ops.append({"name": f"initial-boundary-p{p}/{tag}", "kind": "initial",
                    "ideal": ideal,
                    "args": ["initial", "--method", "taylor", "--p", str(p),
                             "--basis", "boundary", "--oracle"],
                    "facts": {"p": p, "basis": "boundary"}})
    return ops


# Fixed families: (tag, n, generators, homological degrees p with a lex
# oracle).  The lex oracle on the maximal ideal on 7 variables, and on the
# maximal ideal on 6 and the path ideal on 7 variables for p <= 3, takes 0.4
# to 1.8 s per call; those calls are left out so that one slow operation
# does not carry the pass.  The seed shuffles their generators only, so these
# operations, which make up the tail, cost the same in every run.
FAMILIES = [("M5", 5, maximal_ideal(5), range(1, 5)),
            ("M6", 6, maximal_ideal(6), range(4, 6)),
            ("M7", 7, maximal_ideal(7), ()),
            ("P5", 5, path_ideal(5), range(1, 4)),
            ("P6", 6, path_ideal(6), range(1, 5)),
            ("P7", 7, path_ideal(7), range(4, 6))]

# Random ideals by (n, number of minimal generators), exponents <= 3, and
# stable closures of random ideals by (n, generators before closing).
CERTIFY_STRATA = [(3, 3), (3, 4), (3, 6), (4, 3), (4, 4), (4, 5), (5, 3), (5, 4), (5, 5)]
STABLE_STRATA = [(3, 2), (3, 3), (4, 2), (4, 3)]


@functools.cache
def _certify_pool(scale):
    pool = pool_rng("certify")
    return tuple((tuple(random_ideal(pool, n, m, 3) for n, m in CERTIFY_STRATA),
                  tuple(stable_closure(random_ideal(pool, n, m, 2)) for n, m in STABLE_STRATA))
                 for _ in range(scale))


def certify_corpus(seed: int, scale: int = 1):
    rng = random.Random(f"certify:{seed}")
    ops = []
    for tag, n, gens, lex_ps in FAMILIES:
        gens = present(rng, gens, permute=False)
        ops += _resolve_ops(tag, n, gens, minimize=(n < 7 or tag == "P7"))
        ops += _initial_ops(tag, n, gens, lex_ps, range(1, len(gens)))
    for k, (ideals, stables) in enumerate(_certify_pool(scale)):
        for (n, m), gens in zip(CERTIFY_STRATA, ideals):
            gens = present(rng, gens)
            tag = f"R{n}.{m}.{k}"
            ops += _resolve_ops(tag, n, gens)
            ops += _initial_ops(tag, n, gens, range(1, m), range(1, m))
        for (n, m), gens in zip(STABLE_STRATA, stables):
            # Stability depends on the order of the variables, so only the
            # generators are shuffled.
            gens = present(rng, gens, permute=False)
            ops.append({"name": f"resolve-ek/S{n}.{m}.{k}", "kind": "resolve",
                        "ideal": ideal_json(n, gens),
                        "args": ["resolve", "--method", "ek", "--check"], "facts": {}})
    return ops


def certify_selftest(seed: int):
    rng = random.Random(f"certify-selftest:{seed}")
    ops = _resolve_ops("P4", 4, path_ideal(4))
    ops += _initial_ops("M4", 4, maximal_ideal(4), range(1, 4), range(1, 4))
    gens = random_ideal(rng, 3, 3, 2)
    ops += _initial_ops("R3", 3, gens, range(1, 3), range(1, 3))
    ops.append({"name": "resolve-ek/S3", "kind": "resolve",
                "ideal": ideal_json(3, stable_closure(random_ideal(rng, 3, 2, 2))),
                "args": ["resolve", "--method", "ek", "--check"], "facts": {}})
    return ops


# ---------------------------------------------------------------------------
# sdepth: exact search, the filtration bound and the squarefree construction


def _exact_ops(tag, n, gens, ideal_value=None, quotient_value=None,
               quotient=True):
    ideal = ideal_json(n, gens)
    ops = [{"name": f"exact/{tag}", "kind": "exact", "ideal": ideal,
            "args": ["sdepth", "--mode", "exact"],
            "facts": {"quotient": False, "expected": ideal_value}}]
    if quotient:
        ops.append({"name": f"exact-quotient/{tag}", "kind": "exact", "ideal": ideal,
                    "args": ["sdepth", "--mode", "exact", "--quotient"],
                    "facts": {"quotient": True, "expected": quotient_value}})
    return ops


def _filtration_ops(tag, n, gens, free_p):
    """filtration-bound for p = 1..m-1; Z_p is free exactly at p = free_p."""
    ideal = ideal_json(n, gens)
    return [{"name": f"filtration-p{p}/{tag}", "kind": "filtration", "ideal": ideal,
             "args": ["sdepth", "--mode", "filtration-bound", "--p", str(p)],
             "facts": {"p": p, "free": p == free_p}}
            for p in range(1, len(gens))]


def _construct_op(tag, n, gens):
    """`sdepth --mode sqfree-construct` for even n, `partition` for odd n: both
    run the same construction and emit the same payload."""
    args = ["sdepth", "--mode", "sqfree-construct"] if n % 2 == 0 else ["partition"]
    return {"name": f"{args[-1]}/{tag}", "kind": "construct",
            "ideal": ideal_json(n, gens), "args": args, "facts": {}}


# Complete intersections by (n, m); edge ideals by (vertices, least and most
# edges); random ideals for the exact search by (n, m, largest exponent);
# squarefree ideals for the construction by (n, generators, least and
# largest support).
CI_STRATA = [(n, m) for n in range(2, 6) for m in range(1, n + 1)]
EDGE_STRATA = [(5, 2, 5), (5, 5, 8), (6, 3, 4), (6, 4, 5)]
EXACT_STRATA = [(3, 3, 3), (3, 4, 3), (3, 5, 3), (4, 3, 2), (4, 4, 2)]
EXACT_POINT_CAP = 40
CONSTRUCT_STRATA = [(8, 8, 2, 3), (9, 9, 2, 3), (10, 10, 2, 3), (11, 10, 2, 4),
                    (12, 12, 3, 4), (13, 12, 3, 5), (14, 14, 4, 6)]


def _draw_ci(pool, n, m):
    while True:
        gens = complete_intersection(pool, n, m)
        cap = lcm_all(gens, n)
        if max(count_points(n, gens, cap),
               count_points(n, gens, cap, quotient=True)) <= CI_POINT_CAP:
            return gens


def _draw_graph(pool, n, low, high):
    """Six-vertex graphs cover every vertex and stay under the point cap."""
    while True:
        gens = edge_ideal(n, random_graph(pool, n, low, high))
        if n == 5 or (all(lcm_all(gens, n))
                      and count_points(n, gens, (1,) * n) <= EDGE6_IDEAL_POINT_CAP):
            return gens


def _draw_exact(pool, n, m, exp_max):
    while True:
        gens = random_ideal(pool, n, m, exp_max)
        cap = lcm_all(gens, n)
        if max(count_points(n, gens, cap),
               count_points(n, gens, cap, quotient=True)) <= EXACT_POINT_CAP:
            return gens


@functools.cache
def _sdepth_pool(scale):
    pool = pool_rng("sdepth")
    blocks = tuple((tuple(_draw_ci(pool, n, m) for n, m in CI_STRATA),
                    tuple(_draw_graph(pool, *cell) for cell in EDGE_STRATA),
                    tuple(_draw_exact(pool, *cell) for cell in EXACT_STRATA))
                   for _ in range(scale))
    squarefree = tuple(random_squarefree(pool, *cell) for cell in CONSTRUCT_STRATA)
    return blocks, squarefree


def sdepth_corpus(seed: int, scale: int = 1):
    rng = random.Random(f"sdepth:{seed}")
    ops = []
    for n in range(2, 6):
        gens = present(rng, maximal_ideal(n), permute=False)
        # sdepth(m) = ceil(n/2); S/m is a single point of value 0.  For the
        # Koszul complex of the maximal ideal, Z_{n-1} is free of rank one.
        ops += _exact_ops(f"M{n}", n, gens, -(-n // 2), 0)
        ops += _filtration_ops(f"M{n}", n, gens, free_p=n - 1)
    blocks, squarefree = _sdepth_pool(scale)
    for k, (cis, graphs, randoms) in enumerate(blocks):
        for (n, m), gens in zip(CI_STRATA, cis):
            gens = present(rng, gens)
            tag = f"C{n}.{m}.{k}"
            # A monomial complete intersection of m generators in n variables
            # has sdepth(I) = n - floor(m/2) and sdepth(S/I) = n - m; its
            # Taylor complex is the Koszul complex, so Z_{m-1} is free.
            ops += _exact_ops(tag, n, gens, n - m // 2, n - m)
            ops += _filtration_ops(tag, n, gens, free_p=m - 1)
        for (n, low, _), gens in zip(EDGE_STRATA, graphs):
            ops += _exact_ops(f"E{n}.{low}.{k}", n, present(rng, gens), quotient=(n == 5))
        for (n, m, _), gens in zip(EXACT_STRATA, randoms):
            ops += _exact_ops(f"R{n}.{m}.{k}", n, present(rng, gens))
    for (n, _, _, _), gens in zip(CONSTRUCT_STRATA, squarefree):
        ops.append(_construct_op(f"Q{n}", n, present(rng, gens)))
    return ops


def sdepth_selftest(seed: int):
    rng = random.Random(f"sdepth-selftest:{seed}")
    ops = _exact_ops("M3", 3, maximal_ideal(3), 2, 0)
    ops += _filtration_ops("M3", 3, maximal_ideal(3), free_p=2)
    gens = complete_intersection(rng, 4, 2)
    ops += _exact_ops("C4.2", 4, gens, 4 - 1, 4 - 2)
    ops += _exact_ops("E5", 5, edge_ideal(5, random_graph(rng, 5, 2, 4)))
    ops.append(_construct_op("Q8", 8, random_squarefree(rng, 8, 6, 2, 3)))
    ops.append(_construct_op("Q9", 9, random_squarefree(rng, 9, 6, 2, 3)))
    return ops


# ---------------------------------------------------------------------------
# verify: one trial of a theorem stream per operation


def _first_draws(trial_seed, m_low):
    """(n, m) drawn first by the trial generator for random.Random(f"{s}:0").

    This mirrors the order in which the instance generator draws, so that
    trial seeds can be stratified; if that order changes, the selection below
    stays valid and only loses its stratification.
    """
    r = random.Random(f"{trial_seed}:0")
    return r.randint(1, VERIFY_CAPS["n_max"]), r.randint(m_low, VERIFY_CAPS["m_max"])


def _fill_cells(cells, start, m_low, per_cell):
    """Give each cell the first per_cell trial seeds from start on whose
    first draws fall in it."""
    s = start
    while any(len(v) < per_cell for v in cells.values()):
        cell = cells.get(_first_draws(s, m_low))
        if cell is not None and len(cell) < per_cell:
            cell.append(s)
        s += 1


def verify_corpus(seed: int, per_cell: int = 2, selftest: bool = False):
    """per_cell trials for every (n, m) cell of every theorem stream.

    The trials that make up the tail of the workload use the same trial seeds
    in every run, so that the tail compares like with like; the rest come
    from the run's seed.  They are the cells with n >= 4 and m >= 5, and all
    of lemma-groebner, which redraws its instance until it has two
    generators, so that its first draws do not predict its size.
    """
    ops = []
    for index, theorem in enumerate(VERIFY_THEOREMS):
        m_low = 2 if theorem == "lemma-groebner" else 1
        cells = {(n, m): [] for n in range(1, VERIFY_CAPS["n_max"] + 1)
                 for m in range(m_low, VERIFY_CAPS["m_max"] + 1)}
        if selftest:
            cells = {key: [] for key in list(cells)[:3]}
        fixed = {key: v for key, v in cells.items()
                 if theorem == "lemma-groebner" or (key[0] >= 4 and key[1] >= 5)}
        seeded = {key: v for key, v in cells.items() if key not in fixed}
        _fill_cells(fixed, 7919 * index, m_low, per_cell)
        _fill_cells(seeded, 1_000_003 * (seed % 1_000_000 + 1) + 7919 * index,
                    m_low, per_cell)
        for (n, m), seeds in sorted(cells.items()):
            for trial_seed in seeds:
                ops.append({
                    "name": f"verify-{theorem}/{n}.{m}.{trial_seed}", "kind": "verify",
                    "ideal": None,
                    "args": ["verify", "--theorem", theorem, "--trials", "1",
                             "--seed", str(trial_seed),
                             "--n-max", str(VERIFY_CAPS["n_max"]),
                             "--m-max", str(VERIFY_CAPS["m_max"]),
                             "--exp-max", str(VERIFY_CAPS["exp_max"])],
                    "facts": {"theorem": theorem, **VERIFY_CAPS}})
    return ops
