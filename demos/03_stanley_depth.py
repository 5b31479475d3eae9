"""Exact Stanley depth by interval-partition search, and syzygy lower bounds.

Computes the classical anchor values, converts a certificate into an honest
vector-space decomposition, and bounds the Stanley depth of syzygy modules
through the filtration induced by their initial modules.
"""

from syzdepth import (
    MonomialIdeal,
    char_poset,
    exact_sdepth,
    filtration_lower_bound,
    lex_refined_initial,
    partition_to_decomposition,
    taylor_complex,
    verify_decomposition,
)
from syzdepth.monomials import unit


def maximal_ideal(n):
    return MonomialIdeal(n, [tuple(1 if j == i else 0 for j in range(n))
                             for i in range(n)])


print("Stanley depth of the graded maximal ideal (ceil(n/2)):")
for n in range(1, 6):
    result = exact_sdepth(char_poset(maximal_ideal(n)))
    print(f"  n={n}: sdepth = {result.value} with {len(result.partition)} intervals")
print()

P = char_poset(MonomialIdeal(3, [unit(3)]), maximal_ideal(3))
print("sdepth S/m =", exact_sdepth(P).value, "(the single point 0 pins it at 0)")
print()

# A certificate is an interval partition; it translates into a direct-sum
# decomposition into monomial slices, verified degree by degree.
I = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
poset = char_poset(I)
result = exact_sdepth(poset)
print(f"sdepth (x1^2, x1x2, x2^2) = {result.value}")
for iv in result.partition:
    print("  interval", iv.bottom, "..", iv.top)
dec = partition_to_decomposition(poset, result.partition)
ok, _ = verify_decomposition(dec, I)
print(f"decomposition with {len(dec)} summands verifies on the box:", ok)
print()

# Syzygy modules: the initial module filters Z_p with monomial-ideal factors,
# so min over components bounds the Stanley depth from below.
K = taylor_complex([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
ini, _ = lex_refined_initial(K, 1)
bound = filtration_lower_bound(ini)
print("Koszul(x1,x2,x3): sdepth Z_1 >=", bound.value,
      "(component ideals live in the last variables)")
print("exact sdepth of each nonzero component:",
      [(j, c.gens) for j, c in ini.nonzero_components()])
