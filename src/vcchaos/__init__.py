"""Exact computation with base-p Vilenkin-Chrestenson systems.

Building blocks: exact base-p digit arithmetic and the cell cap, a certified
cyclotomic number type, step functions with exact integrals and level sets,
the VC function family with fast radix-p transforms, chaos index sets,
Khinchin-type norm-ratio estimation, and sharpness witnesses for the
uniqueness thresholds.
"""

from .cyclo import CycloArray, cyclotomic_polynomial, root_of_unity
from .indices import (
    IndexKind,
    IndexSpec,
    contains,
    count_below_power,
    digit_pattern,
    enumerate_members,
    exact_weight,
    full_chaos,
    iter_members,
    pattern_multiplicity_check,
    unit_chaos,
)
from .khinchin import (
    KhinchinReport,
    estimate_constant,
    estimate_l1_constant,
    independence_check,
    l1_lower_ratio_with_error,
    moment_even_pow_exact,
    norm_ratio_pow_exact,
    sample_unit_coefficients,
    symmetric_decomposition,
)
from .pary import (
    DEFAULT_CELL_CAP,
    RankCapError,
    digit_count,
    digits_of_integer,
    digitwise_add,
    run_cell_cap,
)
from .stepfn import Distribution, PArySet, StepFn, at_least_two
from .uniqueness import (
    SharpnessReport,
    common_core,
    overlap_bound_check,
    shifted_family,
    witness_full_chaos,
    witness_unit_chaos,
)
from .vc import (
    exponent_table,
    matrix_op_norm,
    rademacher,
    synthesize,
    vc_function,
    vc_transform_exact,
    vc_transform_float,
    verify_inverse_identity,
)

__version__ = "0.1.0"
