"""Closed forms and certified checks for initial modules of syzygies.

Covers the Taylor closed form for syzygy initial modules, the boundary
Groebner basis property, composition of Groebner bases through mapping
cones, and the vanishing of early variables under lex-refined bases.
The checks run groebner's engines on the rows of the complexes they are
given, which the complexes' constructors checked or the library wrote;
verify_gunnar_step, which takes rows from outside, checks them once.
compose_cone_gb checks neither its chain map nor its Groebner bases, but
certifies what it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import monomials
from .complexes import ChainMap, FreeComplex, _compose, _Lifter, syzygy_rows
from .freemod import OrderedBasis, check_rows
from .groebner import (
    GroebnerBasis,
    InitialModule,
    _initial_module,
    _kernel_generators,
    _leading_module,
)
from .monomials import Mono, MonomialIdeal


@dataclass
class TheoremReport:
    theorem: str
    p: int
    status: str  # "PASS" or "FAIL"
    witness: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_jsonable(self) -> dict:
        return {"theorem": self.theorem, "p": self.p, "status": self.status,
                "witness": self.witness}


def taylor_initial_component(gens: Sequence[Mono], F: frozenset) -> MonomialIdeal:
    """The component of ini(Z_p) on the Taylor basis element e_F.

    Generated by the quotients lcm(F + i)/lcm(F) over i < min(F).  Each
    generator must pass check_monomial.
    """
    return _taylor_initial_component([monomials.check_monomial(tuple(u)) for u in gens], F)


def _taylor_initial_component(gens: Sequence[Mono], F: frozenset) -> MonomialIdeal:
    """taylor_initial_component of generators that are not checked again."""
    if not F:
        raise ValueError("F must be a nonempty subset of the generator indices")
    n = len(gens[0])
    lcm_F = monomials.unit(n)
    for i in F:
        lcm_F = monomials.lcm(lcm_F, gens[i - 1])
    quotients = []
    for i in range(1, min(F)):
        lcm_Fi = monomials.lcm(lcm_F, gens[i - 1])
        quotients.append(monomials.divide(lcm_Fi, lcm_F))
    return MonomialIdeal._made(n, quotients)


def boundary_leading_terms(C: FreeComplex, p: int) -> InitialModule:
    """Monomial module spanned by the leading terms of the (p+1)-boundaries,
    taken under the complex's own basis order at level p."""
    return _leading_module(*syzygy_rows(C, p), C.basis(p))


@dataclass
class BoundaryGBReport:
    p: int
    boundary: InitialModule
    oracle: InitialModule
    closed_form: Optional[InitialModule] = None

    @property
    def equal(self) -> bool:
        if self.boundary.components != self.oracle.components:
            return False
        if self.closed_form is not None:
            return self.boundary.components == self.closed_form.components
        return True

    def to_jsonable(self) -> dict:
        out = {"p": self.p, "equal": self.equal,
               "boundary": self.boundary.to_jsonable(),
               "oracle": self.oracle.to_jsonable()}
        if self.closed_form is not None:
            out["closed_form"] = self.closed_form.to_jsonable()
        return out


def verify_boundary_gb(C: FreeComplex, p: int,
                       taylor_gens: Optional[Sequence[Mono]] = None) -> BoundaryGBReport:
    """Compare boundary leading terms with the Buchberger oracle at level p.

    When the complex is a Taylor complex (pass its generator sequence), the
    closed-form components are compared as well.
    """
    if p < 1:
        raise ValueError("boundary Groebner bases are checked for p >= 1")
    rows, degrees = syzygy_rows(C, p)
    boundary = _leading_module(rows, degrees, C.basis(p))
    oracle = _initial_module(rows, degrees, C.basis(p))
    closed = None
    if taylor_gens is not None:
        components = []
        for e in C.basis(p):
            components.append(_taylor_initial_component(taylor_gens, e.label)
                              if e.label else MonomialIdeal._made(C.n, ()))
        closed = InitialModule(C.basis(p), tuple(components))
    return BoundaryGBReport(p, boundary, oracle, closed)


def compose_cone_gb(gbF: GroebnerBasis, gbG: GroebnerBasis, phi: ChainMap,
                    cone: FreeComplex, i: int, oracle: Optional[InitialModule] = None):
    """Groebner basis of Z_i(cone) from bases of Z_i(F) and Z_{i-1}(G).

    Elements of gbF embed into the F part; an element z of gbG becomes the
    cycle z - w, w the lift of phi_{i-1}(z) through d^F_i, all on the
    bases' scalar rows.  The result is checked against the Buchberger
    oracle ini(Z_i(cone)), computed here from the cone's rows unless the
    caller passes it, and returned as (rows, degrees) on the cone's basis
    of C_i: gbF's elements first, then gbG's.  phi, comparison_cone's, is
    not checked, as what is returned is certified whatever phi is; a
    failed lift, cycle test or comparison raises RuntimeError.
    """
    if i < 1:
        raise ValueError("composition applies to syzygy modules Z_i with i >= 1")
    G, F = phi.source, phi.target
    offset = G.rank(i - 1)
    composed = [{r + offset: c for r, c in row.items()} for row in gbF.rows]
    lifter = _Lifter(F, i)
    for z, a in zip(gbG.rows, gbG.degrees):
        w = lifter.lift(_compose(z, phi.rows[i - 1]), a)
        composed.append({**z, **{r + offset: -c for r, c in w.items()}})
    below = cone._level(i)[1]
    if any(_compose(row, below) for row in composed):
        raise RuntimeError("composed element is not a cycle; the cone input "
                           "does not match the chain map")
    degrees = gbF.degrees + gbG.degrees
    claimed = _leading_module(composed, degrees, cone.basis(i))
    if oracle is None:
        oracle = _initial_module(*syzygy_rows(cone, i), cone.basis(i))
    if claimed.components != oracle.components:
        raise RuntimeError("composed set is not a Groebner basis of the cone "
                           f"syzygy module at i={i}")
    return composed, degrees


def lex_refined_initial(C: FreeComplex, p: int):
    """ini(Z_p) under the lex-refined reordering of the basis of F_p.

    Z_p is generated by the columns of the (p+1)-st differential; at p = 0
    these are the columns of d_1, which generate the resolved submodule.
    Returns (initial module, (rows, degrees)): the generators' rows, moved
    to the reordered basis, and their degrees, None for a zero row.
    """
    basis, perm = C.basis(p).sort_lex_refined()
    rows, degrees = syzygy_rows(C, p)
    rows = [{perm[r]: c for r, c in row.items()} for row in rows]
    return _initial_module(rows, degrees, basis), (rows, degrees)


def offending_generator(initial: InitialModule, k: int):
    """A (position, generator) whose generator meets x_1..x_k, or None."""
    for j, ideal in initial.nonzero_components():
        for g in ideal.gens:
            if any(g[i] > 0 for i in range(k)):
                return j, g
    return None


def _avoidance_report(theorem, p, initial: InitialModule, k: int, witness: dict):
    """The report that initial avoids x_1..x_k: the witness gains its
    components, and on a FAIL the first offending generator."""
    witness["components"] = initial.to_jsonable()
    bad = offending_generator(initial, k)
    if bad is None:
        return TheoremReport(theorem, p, "PASS", witness)
    witness["offender"] = {"position": bad[0], "generator": list(bad[1])}
    return TheoremReport(theorem, p, "FAIL", witness)


def verify_theorem_main(C: FreeComplex, p: int) -> TheoremReport:
    """With a lex-refined basis of F_p, the oracle-computed ini(Z_p) must be
    generated away from x_1..x_p.  Z_0 is the resolved module itself, where
    the statement is vacuous."""
    witness: dict = {}
    if p > C.length:
        witness["note"] = "Z_p = 0 beyond the length of the complex"
        return TheoremReport("theorem-main", p, "PASS", witness)
    if p == 0:
        witness["note"] = ("Z_0 is the resolved submodule of F_0; no variables "
                           "are required to vanish at p=0")
    ini, _ = lex_refined_initial(C, p)
    return _avoidance_report("theorem-main", p, ini, min(p, C.n), witness)


def verify_gunnar_step(rows, source_basis: OrderedBasis, target_basis: OrderedBasis,
                       p: int) -> TheoremReport:
    """Kernel counterpart of the image hypothesis: if ini of the image avoids
    x_1..x_{p-1} under a lex-refined target basis, ini of the kernel avoids
    x_1..x_p under a lex-refined source basis.  The map sends e_j to the
    row rows[j], as kernel_generators reads it; freemod.check_rows refuses
    (ValueError) rows that are not such a map before any position is
    moved, and the engines run on the moved rows unchecked."""
    check_rows("the map", rows, source_basis.degrees, target_basis)
    G_basis, G_perm = target_basis.sort_lex_refined()
    F_basis, F_perm = source_basis.sort_lex_refined()
    moved = [None] * len(rows)
    for j, row in enumerate(rows):
        moved[F_perm[j]] = {G_perm[r]: c for r, c in row.items()}
    image_ini = _initial_module(moved, F_basis.degrees, G_basis)
    bad = offending_generator(image_ini, max(p - 1, 0))
    if bad is not None:
        raise ValueError(f"hypothesis fails: ini of the image has generator "
                         f"{bad[1]} at position {bad[0]} meeting x_1..x_{p-1}")
    kernel, degrees = _kernel_generators(moved, F_basis, G_basis)
    witness: dict = {"kernel_size": len(kernel)}
    if not kernel:
        witness["note"] = "injective map; the kernel statement is vacuous"
        return TheoremReport("gunnar-step", p, "PASS", witness)
    kernel_ini = _initial_module(kernel, degrees, F_basis)
    return _avoidance_report("gunnar-step", p, kernel_ini, min(p, source_basis.n), witness)
