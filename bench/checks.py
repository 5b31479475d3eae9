"""Independent checks of the CLI outputs.

Every fact used here comes from the input generators alone and is computed
with the standard library, apart from syzdepth.  The checks run outside the
timed region.  Each check returns None when the output is right and a short
reason when it is not.

Hilbert-function identities are compared on the box [0, lcm(I)].  Every basis
degree of a resolution of S/I and every generator degree of an initial module
of a syzygy module lies in the lcm lattice of I, hence below lcm(I) (the
checks verify this first).  Both sides of each identity at a degree a then
equal their values at min(a, lcm(I)), so the box covers every degree.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from corpora import divides, lcm_all, sqfree_bound

# ---------------------------------------------------------------------------
# Flat arrays over a box [0, cap]


class Box:
    def __init__(self, cap):
        self.cap = tuple(cap)
        self.dims = [c + 1 for c in self.cap]
        self.strides = []
        stride = 1
        for d in reversed(self.dims):
            self.strides.append(stride)
            stride *= d
        self.strides.reverse()
        self.size = stride

    def index(self, a) -> int:
        return sum(x * s for x, s in zip(a, self.strides))

    def zeros(self):
        return [0] * self.size

    def _sweep(self, arr, combine):
        for stride, d in zip(self.strides, self.dims):
            if d == 1:
                continue
            for idx in range(self.size):
                if (idx // stride) % d:
                    arr[idx] = combine(arr[idx], arr[idx - stride])
        return arr

    def prefix_sum(self, arr):
        """arr[a] becomes the sum of arr[b] over b <= a."""
        return self._sweep(arr, lambda x, y: x + y)

    def up_closure(self, arr):
        """arr[a] becomes 1 when some b <= a has arr[b] set."""
        return self._sweep(arr, lambda x, y: x or y)

    def membership(self, gens):
        """Indicator of x^a in the ideal generated by gens."""
        arr = self.zeros()
        for g in gens:
            arr[self.index(g)] = 1
        return self.up_closure(arr)


def _mul(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _subset_lcms(gens, n):
    """(size, lcm) for every subset of the generators, the empty one included."""
    out = [(0, (0,) * n)]
    for g in gens:
        out += [(k + 1, tuple(max(a, b) for a, b in zip(lcm, g))) for k, lcm in out]
    return out


def _taylor_syzygy_dimensions(box, gens, n, p):
    """dim (Z_p)_a = sum_{q>p} (-1)^(q-p-1) #{q-subsets whose lcm divides x^a}."""
    arr = box.zeros()
    for q, lcm in _subset_lcms(gens, n):
        if q > p:
            arr[box.index(lcm)] += 1 if (q - p - 1) % 2 == 0 else -1
    return box.prefix_sum(arr)


def _monomial_module_dimensions(box, degrees, components):
    """dim at a of the monomial module sum_j I_j e_j with deg e_j = degrees[j]."""
    total = box.zeros()
    for d, comp in zip(degrees, components):
        if not comp:
            continue
        shifted = []
        for g in comp:
            deg = _mul(d, g)
            if not divides(deg, box.cap):
                return None
            shifted.append(deg)
        for idx, v in enumerate(box.membership(shifted)):
            total[idx] += v
    return total


# ---------------------------------------------------------------------------
# certify


def _check_differentials(cx):
    """Each entry is c * x^(deg col - deg row); consecutive maps compose to 0."""
    degrees, ranks = cx["degrees"], cx["ranks"]
    if [len(level) for level in degrees] != ranks:
        return "ranks disagree with the listed degrees"
    maps = []
    for p, matrix in enumerate(cx["differentials"], start=1):
        if len(matrix) != ranks[p - 1] or any(len(row) != ranks[p] for row in matrix):
            return f"differential {p} has the wrong shape"
        cols = [dict() for _ in range(ranks[p])]
        for r, row in enumerate(matrix):
            for c, entry in enumerate(row):
                if not entry:
                    continue
                if len(entry) != 1:
                    return f"d{p}[{r}][{c}] has {len(entry)} terms"
                expected = tuple(b - a for a, b in zip(degrees[p - 1][r], degrees[p][c]))
                if tuple(entry[0]["monomial"]) != expected or min(expected) < 0:
                    return f"d{p}[{r}][{c}] is not multidegree-preserving"
                coeff = Fraction(entry[0]["coeff"])
                if coeff:
                    cols[c][r] = coeff
        maps.append(cols)
    for p in range(1, len(maps)):
        lower, upper = maps[p - 1], maps[p]
        for c, col in enumerate(upper):
            image = {}
            for k, coeff in col.items():
                for r, c2 in lower[k].items():
                    image[r] = image.get(r, 0) + coeff * c2
            if any(image.values()):
                return f"d{p} d{p + 1} is not zero on column {c}"
    return None


def check_resolve(op, out):
    gens = [tuple(g) for g in op["ideal"]["generators"]]
    n = op["ideal"]["n"]
    if not out.get("exactness", {}).get("ok"):
        return "the exactness certificate did not pass"
    cx = out["complex"]
    if cx["n"] != n or cx["degrees"][0] != [[0] * n]:
        return "F_0 is not the ring in degree 0"
    bad = _check_differentials(cx)
    if bad:
        return bad
    lcm = lcm_all(gens, n)
    box = Box(lcm)
    euler = box.zeros()
    for p, level in enumerate(cx["degrees"]):
        for d in level:
            if not divides(d, lcm):
                return f"basis degree {d} of F_{p} lies outside the lcm box"
            euler[box.index(d)] += -1 if p % 2 else 1
    box.prefix_sum(euler)
    member = box.membership(gens)
    for idx in range(box.size):
        if euler[idx] != 1 - member[idx]:
            return "Euler characteristic differs from the Hilbert function of S/I"
    return None


def check_initial_module(gens, n, p, degrees, components, lex):
    """ini(Z_p) of the Taylor complex: degrees, Hilbert function, and for a
    lex-refined basis generators free of x_1..x_min(p,n)."""
    lcm = lcm_all(gens, n)
    expected_degrees = sorted(lcm_s for q, lcm_s in _subset_lcms(gens, n) if q == p)
    if sorted(tuple(d) for d in degrees) != expected_degrees:
        return "basis degrees are not the lcms of the p-subsets"
    if len(components) != len(degrees):
        return "one component per basis position expected"
    if lex:
        k = min(p, n)
        for comp in components:
            for g in comp:
                if any(g[:k]):
                    return f"lex generator {g} meets x_1..x_{k}"
    box = Box(lcm)
    got = _monomial_module_dimensions(box, [tuple(d) for d in degrees],
                                      [[tuple(g) for g in comp] for comp in components])
    if got is None:
        return "an initial-module generator lies outside the lcm box"
    if got != _taylor_syzygy_dimensions(box, gens, n, p):
        return "graded dimensions differ from those of the Taylor syzygy module"
    return None


def check_initial(op, out):
    if out.get("oracle_equal") is not True:
        return "the oracle did not confirm the initial module"
    gens = [tuple(g) for g in op["ideal"]["generators"]]
    p = op["facts"]["p"]
    if out.get("p") != p or out.get("basis") != op["facts"]["basis"]:
        return "output is for another p or basis"
    return check_initial_module(gens, op["ideal"]["n"], p, out["degrees"],
                                out["components"], op["facts"]["basis"] == "lex")


# ---------------------------------------------------------------------------
# sdepth


def check_exact(op, out):
    n = op["ideal"]["n"]
    gens = [tuple(g) for g in op["ideal"]["generators"]]
    quotient = op["facts"]["quotient"]
    cap = lcm_all(gens, n)
    if tuple(out["g"]) != cap:
        return f"cap {out['g']} is not lcm(I) = {list(cap)}"
    box = Box(cap)
    member = box.membership(gens)
    in_poset = [v != quotient for v in member]
    covered = bytearray(box.size)
    values = []
    for iv in out["intervals"]:
        a, b = tuple(iv["a"]), tuple(iv["b"])
        if len(a) != n or not divides(a, b) or not divides(b, cap):
            return f"interval {a}..{b} is not inside the cap"
        for pt in itertools.product(*(range(x, y + 1) for x, y in zip(a, b))):
            idx = box.index(pt)
            if not in_poset[idx]:
                return f"interval {a}..{b} leaves the poset at {pt}"
            if covered[idx]:
                return f"point {pt} is covered twice"
            covered[idx] = 1
        values.append(sum(1 for x, c in zip(b, cap) if x == c))
    if any(in_poset[idx] and not covered[idx] for idx in range(box.size)):
        return "the intervals do not cover the poset"
    depth = min(values, default=n)
    if out["sdepth"] != depth:
        return f"reported sdepth {out['sdepth']} but the partition has depth {depth}"
    expected = op["facts"]["expected"]
    if expected is not None and depth != expected:
        return f"sdepth {depth} differs from the closed form {expected}"
    return None


def check_filtration(op, out):
    n = op["ideal"]["n"]
    gens = [tuple(g) for g in op["ideal"]["generators"]]
    p = op["facts"]["p"]
    bound = out["sdepth_lower_bound"]
    if out.get("p") != p:
        return "output is for another p"
    if op["facts"]["free"]:
        if bound != n:
            return f"Z_{p} is free of rank one, yet the bound is {bound} != {n}"
    elif bound < p + 1:
        return f"filtration bound {bound} < p+1 = {p + 1} on a non-free Z_{p}"
    comps = out["components"]
    return check_initial_module(gens, n, p, comps["degrees"], comps["components"],
                                lex=True)


def check_construct(op, out):
    n = op["ideal"]["n"]
    gens = [tuple(g) for g in op["ideal"]["generators"]]
    if out["g"] != [1] * n:
        return "squarefree construction must use the cap 1^n"
    masks = [sum(1 << i for i in range(n) if g[i]) for g in gens]
    full = 1 << n
    in_filter = bytearray(full)
    for m in masks:
        in_filter[m] = 1
    for i in range(n):
        bit = 1 << i
        for s in range(full):
            if s & bit and not in_filter[s]:
                in_filter[s] = in_filter[s ^ bit]
    if len(out["subsets"]) != len(out["intervals"]):
        return "subsets and intervals disagree in number"
    covered = bytearray(full)
    values = []
    for iv, sub in zip(out["intervals"], out["subsets"]):
        a = sum(1 << (i - 1) for i in sub["a"])
        b = sum(1 << (i - 1) for i in sub["b"])
        if (iv["a"] != [a >> i & 1 for i in range(n)]
                or iv["b"] != [b >> i & 1 for i in range(n)]):
            return f"interval {iv} does not match subsets {sub}"
        if a & ~b:
            return f"subset interval {sub} has a bottom outside its top"
        free = b & ~a
        t = free
        while True:
            s = a | t
            if not in_filter[s]:
                return f"interval {sub} leaves the order filter"
            if covered[s]:
                return f"subset {s:b} is covered twice"
            covered[s] = 1
            if t == 0:
                break
            t = (t - 1) & free
        values.append(bin(b).count("1"))
    if covered != in_filter:
        return "the intervals do not cover the order filter"
    depth = min(values, default=n)
    if out["sdepth"] != depth:
        return f"reported sdepth {out['sdepth']} but the partition has depth {depth}"
    bound = sqfree_bound(n)
    if out["bound"] != bound:
        return f"reported bound {out['bound']}, expected {bound}"
    if depth < bound:
        return f"construction reached depth {depth} below the bound {bound}"
    return None


# ---------------------------------------------------------------------------
# verify


def check_verify(op, out):
    facts = op["facts"]
    if out.get("status") != "PASS":
        return f"report status {out.get('status')}"
    if out.get("theorem") != facts["theorem"] or out.get("trial") != 0:
        return "report is for another theorem or trial"
    inst = out["instance"]
    n, gens = inst["n"], [tuple(g) for g in inst["generators"]]
    if not (1 <= n <= facts["n_max"] and 1 <= len(gens) <= facts["m_max"]):
        return f"instance size n={n}, m={len(gens)} outside the caps"
    for g in gens:
        if len(g) != n or not any(g) or max(g) > facts["exp_max"] or min(g) < 0:
            return f"generator {g} outside the caps"
        if any(h != g and divides(h, g) for h in gens) or gens.count(g) > 1:
            return "generators are not minimal"
    # Inclusion-exclusion over the Taylor complex of the trial's instance.
    box = Box(lcm_all(gens, n))
    euler = box.zeros()
    for q, lcm in _subset_lcms(gens, n):
        euler[box.index(lcm)] += -1 if q % 2 else 1
    box.prefix_sum(euler)
    member = box.membership(gens)
    if any(euler[idx] != 1 - member[idx] for idx in range(box.size)):
        return "Taylor Euler characteristic differs from the Hilbert function"
    return None


CHECKS = {
    "resolve": check_resolve,
    "initial": check_initial,
    "exact": check_exact,
    "filtration": check_filtration,
    "construct": check_construct,
    "verify": check_verify,
}


def check(op, out):
    """None when the output of op is right, else the first reason it is not."""
    try:
        return CHECKS[op["kind"]](op, out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {exc!r}"
