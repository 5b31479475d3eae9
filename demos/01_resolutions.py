"""Build free resolutions of monomial ideals and certify them degreewise.

Walks through the Taylor complex, its minimization, and the iterated
mapping-cone resolution of a stable ideal.
"""

from syzdepth import (
    MonomialIdeal,
    check_complex,
    check_exactness_on_box,
    eliahou_kervaire,
    is_minimal,
    is_stable,
    minimize,
    taylor_complex,
)

# The triangle ideal (x1x2, x2x3, x1x3): three squarefree quadrics whose
# Taylor complex is one step too long.
I = MonomialIdeal(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
C = taylor_complex(list(I.gens), 3)
print("Taylor complex of (x1x2, x2x3, x1x3)")
print("  ranks:", C.ranks)
print("  d o d = 0 and multidegree-preserving:", check_complex(C))

report = check_exactness_on_box(C, I)
print(f"  exact at every multidegree, decided on the lcm closure "
      f"({report.degrees_checked} degrees): {report.ok}")

M = minimize(C)
print("  minimized ranks:", M.ranks, "- the top Taylor generator cancels")
print("  minimized complex is minimal:", is_minimal(M))
print("  minimized complex still resolves I:", check_exactness_on_box(M, I).ok)
print()

# Regular sequences: the Taylor complex IS the Koszul complex and is minimal.
K = taylor_complex([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
print("Koszul complex of the regular sequence (x1, x2, x3)")
print("  ranks:", K.ranks, "(binomial coefficients)")
print("  minimal already:", is_minimal(K))
print()

# Stable ideals resolve minimally through iterated mapping cones.
J = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
print("Iterated mapping cone for the stable ideal (x1^2, x1x2, x2^2)")
print("  stable:", is_stable(J))
EK = eliahou_kervaire(J)
print("  ranks:", EK.ranks, "(compare Taylor:", taylor_complex(list(J.gens), 2).ranks,
      "- the cone is minimal from the start)")
print("  exact:", check_exactness_on_box(EK, J).ok)
