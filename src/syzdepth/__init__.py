"""Multigraded resolutions of monomial ideals, syzygy initial modules, and
Stanley depth, computed and certified in exact rational arithmetic."""

from .monomials import MonomialIdeal, divide, is_squarefree, lcm, support
from .freemod import (
    BasisElement,
    ModuleVector,
    OrderedBasis,
    Term,
    leading_term,
    multidegree_of,
)
from .complexes import (
    ChainMap,
    FreeComplex,
    check_complex,
    check_exactness_on_box,
    eliahou_kervaire,
    is_minimal,
    is_stable,
    linear_quotients,
    mapping_cone,
    minimize,
    stable_closure,
    stable_order,
    syzygy_generators,
    taylor_complex,
)
from .groebner import (
    GroebnerBasis,
    InitialModule,
    buchberger,
    hilbert_slice_check,
    initial_module,
    is_squarefree_module,
    kernel_generators,
)
from .syzygy import (
    compose_cone_gb,
    lex_refined_initial,
    taylor_initial_component,
    verify_boundary_gb,
    verify_gunnar_step,
    verify_theorem_main,
)
from .stanley import (
    CharPoset,
    Interval,
    char_poset,
    exact_sdepth,
    filtration_lower_bound,
    ideal_sdepth,
    interval_value,
    partition_to_decomposition,
    validate_partition,
    verify_decomposition,
)
from .blocks import (
    BlockStructure,
    block_structure,
    f_delta,
    lifted_f,
    sigma_schedule,
    sqfree_lower_bound,
    squarefree_partition,
    syzygy_sqfree_bound,
)

__version__ = "0.1.0"
