"""Exact computation with base-p Vilenkin-Chrestenson systems.

Building blocks: exact base-p digit/interval arithmetic, a certified
cyclotomic number type, step functions with exact integrals and level sets,
the VC function family with fast radix-p transforms, chaos index sets,
Khinchin-type norm-ratio estimation, and sharpness witnesses for the
uniqueness thresholds.
"""

from .cyclo import CycloArray, CycloValue, cyclotomic_polynomial, root_of_unity
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
    coordinate_ascent,
    estimate_constant,
    estimate_l1_constant,
    fourth_moment_exact,
    independence_check,
    l1_lower_ratio,
    l1_lower_ratio_with_error,
    moment_even_pow_exact,
    norm_ratio,
    norm_ratio_pow_exact,
    sample_unit_coefficients,
    symmetric_decomposition,
)
from .pary import (
    DEFAULT_CELL_CAP,
    PAryInterval,
    RankCapError,
    digit_count,
    digits_of_integer,
    digits_of_point,
    digitwise_add,
    digitwise_sub,
    nonzero_digit_count,
    point_from_digits,
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
    CoeffVector,
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
