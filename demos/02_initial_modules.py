"""Initial modules of syzygy modules under the position-over-lex order.

Shows that the initial module depends only on the ordered basis, that the
differentials of a Taylor complex hand over a Groebner basis of each syzygy
module, and that lex-refined bases push the generators into later variables.
"""

from syzdepth import (
    MonomialIdeal,
    initial_module,
    lex_refined_initial,
    syzygy_generators,
    taylor_complex,
    taylor_initial_component,
    verify_boundary_gb,
    verify_theorem_main,
)


def show(title, ini):
    print(title)
    for j, ideal in enumerate(ini.components):
        label = ini.basis.elements[j].label
        gens = ", ".join(str(g) for g in ideal.gens) or "0"
        print(f"  position {j} (label {set(label) if label else '{}'}" + f"): ({gens})")


gens = [(2, 0), (1, 1), (0, 2)]
C = taylor_complex(gens, 2)
Z1 = syzygy_generators(C, 1)
print("First syzygies of (x1^2, x1x2, x2^2), as Taylor boundaries:")
for v in Z1:
    print("  ", dict(v.items()))
print()

# Under the complex's own (iterated) basis order the boundary leading terms
# already generate the initial module; the closed form agrees.
ini_taylor = initial_module(Z1, C.basis(1))
show("ini(Z_1) under the Taylor basis order:", ini_taylor)
rep = verify_boundary_gb(C, 1, taylor_gens=gens)
print("boundary terms = oracle = closed form:", rep.equal)
closed = taylor_initial_component(gens, frozenset({3}))
print("closed form for the basis element {3}:", closed.gens)
print()

# Re-sorting the basis lex-refined moves every generator off x1.
ini_lex, _ = lex_refined_initial(C, 1)
show("ini(Z_1) under a lex-refined basis:", ini_lex)
print()

# The vanishing of the first p variables holds for every p at once.
I = MonomialIdeal(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
C3 = taylor_complex(list(I.gens), 3)
for p in range(0, 4):
    print(f"variables x1..x{p} absent from ini(Z_{p}):",
          verify_theorem_main(C3, p).status)
