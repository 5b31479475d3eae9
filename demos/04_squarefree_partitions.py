"""The circular block construction and the square-root depth bound.

Builds block structures, lifts them through padded circles, assembles the
staged interval partition of an order filter, and compares the resulting
lower bound with the exact Stanley depth where that is computable.
"""

from fractions import Fraction

from syzdepth import (
    MonomialIdeal,
    block_structure,
    char_poset,
    exact_sdepth,
    f_delta,
    lifted_f,
    sigma_schedule,
    sqfree_lower_bound,
    squarefree_partition,
)
from syzdepth.blocks import filter_of_supports, mask_elements, subset_to_degree

print("Block structures on the circle [7], density 2, A = {1, 4, 5}:")
s = block_structure(7, {1, 4, 5}, 2)
for block in s.blocks:
    print("  block", block.B, "gap", block.G)
print("f_2(A) = A with the gaps adjoined:", sorted(f_delta(7, {1, 4, 5}, 2)))
print()

print("Padded lift: a singleton of [5] grows by s elements, s = 2:")
for i in range(1, 6):
    print(f"  {{{i}}} ->", sorted(lifted_f(5, {i}, 2)))
print()

print("Density schedule for s = 2:", sigma_schedule(2).values,
      "(later stages get it easier)")
print()

# The staged partition of the full boolean filter on [5]: every interval top
# has at least 2s+1 = 3 elements, matching the exact Stanley depth.
n = 5
family = filter_of_supports(n, [1 << i for i in range(n)])
pairs = squarefree_partition(n, family)
print(f"Partition of all nonempty subsets of [{n}]:")
staged = [(A, B) for A, B in pairs if A != B]
for A, B in staged:
    print("  interval", mask_elements(A), "..", mask_elements(B))
print(f"  plus {len(pairs) - len(staged)} trivial intervals")
value = min(B.bit_count() for _, B in pairs)
I = MonomialIdeal(n, [subset_to_degree(n, 1 << i) for i in range(n)])
exact = exact_sdepth(char_poset(I, g=(1,) * n)).value
print(f"partition value {value} = lower bound {sqfree_lower_bound(n)}"
      f" = exact Stanley depth {exact}")
print()

print("The bound grows like the square root of 2n:")
for n in (5, 14, 27, 44, 65, 90, 1000):
    print(f"  n={n:4d}: sdepth of any squarefree ideal >= {sqfree_lower_bound(n)}")
