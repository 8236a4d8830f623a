"""Exact computation with base-p Vilenkin-Chrestenson systems.

Building blocks: exact base-p digit arithmetic and the cell cap, a certified
cyclotomic number type, step functions with exact integrals and level sets,
the VC function family with fast radix-p transforms, chaos index sets,
Khinchin-type norm-ratio estimation, and sharpness witnesses for the
uniqueness thresholds.

Each public name is loaded from its module on first access (PEP 562), so
importing the package, or one command of the CLI, loads no layer it does
not use.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("CycloArray", "cyclotomic_polynomial", "root_of_unity"), "cyclo"),
    **dict.fromkeys(
        (
            "IndexKind",
            "IndexSpec",
            "contains",
            "count_below_power",
            "digit_pattern",
            "enumerate_members",
            "exact_weight",
            "full_chaos",
            "iter_members",
            "pattern_multiplicity_check",
            "unit_chaos",
        ),
        "indices",
    ),
    **dict.fromkeys(
        (
            "KhinchinReport",
            "estimate_constant",
            "estimate_l1_constant",
            "norm_ratio_pow_exact",
            "sample_unit_coefficients",
        ),
        "khinchin",
    ),
    **dict.fromkeys(
        (
            "DEFAULT_CELL_CAP",
            "RankCapError",
            "digit_count",
            "digitwise_add",
            "run_cell_cap",
        ),
        "pary",
    ),
    **dict.fromkeys(
        (
            "Distribution",
            "PArySet",
            "StepFn",
            "at_least_two",
            "independence_check",
            "symmetric_decomposition",
        ),
        "stepfn",
    ),
    **dict.fromkeys(
        (
            "SharpnessReport",
            "overlap_bound_check",
            "witness_full_chaos",
            "witness_unit_chaos",
        ),
        "uniqueness",
    ),
    **dict.fromkeys(
        (
            "exponent_table",
            "matrix_op_norm",
            "rademacher",
            "synthesize",
            "vc_function",
            "vc_transform_exact",
            "vc_transform_float",
            "verify_inverse_identity",
        ),
        "vc",
    ),
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
