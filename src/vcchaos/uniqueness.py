"""Sharpness witnesses for the uniqueness thresholds and set-theoretic helpers.

The two witness polynomials are

    P = prod_{k<d} (1 - R_k)            expansion supported in {0} + unit chaos
    Q = prod_{k<d} (1 + R_k + ... + R_k**(p-1))   supported in {0} + full chaos

P - 1 (a chaos series plus the constant) equals the nonzero constant -1 on
{P = 0}, whose measure is exactly 1 - ((p-1)/p)**d; Q - 1 does the same on a
set of measure 1 - p**-d.  A series over the chaos indices converging to a
nonzero constant on a set of that size is exactly what rules out any larger
uniqueness threshold, so the certification here targets the constant level
set of the shifted polynomial, not its literal zero set (for composite p the
literal zero set of P - 1 has a different measure).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cyclo import CycloArray
from .indices import IndexSpec, contains, full_chaos, unit_chaos
from .pary import check_rank
from .stepfn import PArySet, StepFn, at_least_two
from .vc import rademacher, vc_transform_exact


@dataclass(frozen=True)
class SharpnessReport:
    """Certified data of one witness polynomial.

    Invariants checked on construction: the level-set measure and the
    threshold sum to 1 exactly, the level value is a nonzero constant, and
    the witness expansion (minus its constant term) is supported inside the
    index set.
    """

    p: int
    d: int
    index_set: IndexSpec
    witness: dict[int, CycloArray]
    level_value: CycloArray
    level_set: PArySet
    level_set_measure: Fraction
    threshold: Fraction
    support_ok: bool

    def __post_init__(self):
        if self.level_set_measure + self.threshold != 1:
            raise ValueError("level-set measure and threshold must sum to 1")
        if self.level_value == 0:
            raise ValueError("level value must be a nonzero constant")
        if not self.support_ok:
            raise ValueError("witness expansion escapes the index set")
        if all(n == 0 for n in self.witness):
            raise ValueError("witness must have nonzero-index coefficients")


def _expand(fn: StepFn) -> tuple[CycloArray, dict[int, CycloArray]]:
    """Coefficients of fn against the VC system (fast transform), and the nonzero ones by index."""
    coeffs = vc_transform_exact(fn.values, fn.p, "forward")
    return coeffs, {int(n): coeffs[int(n)] for n in np.flatnonzero(~coeffs.is_zero())}


def witness_unit_chaos(p: int, d: int) -> SharpnessReport:
    """Sharpness witness P = prod(1 - R_k) for the unit-digit chaos system.

    Certifies: constant coefficient 1 (so P - 1 lives on the chaos indices),
    expansion coefficients (-1)**s exactly at the indices with s unit digits,
    and {P - 1 = -1} = {P = 0} of measure exactly 1 - ((p-1)/p)**d.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    check_rank(p, d)
    prod = StepFn.constant(p, 1)
    for k in range(d):
        prod = prod * (1 - rademacher(p, k))
    array, coeffs = _expand(prod)
    digit_sums = (np.arange(p**d)[:, None] // p ** np.arange(d) % p).sum(axis=1)
    signs = CycloArray.from_values((1 - 2 * (digit_sums % 2)).tolist())
    wrong = ~(array - signs).is_zero()
    if wrong[0]:
        raise ValueError("constant coefficient of the witness must be 1")
    # every nonzero coefficient must be (-1)**s, s the digit sum of its index
    n = next((n for n in coeffs if wrong[n]), None)
    if n is not None:
        raise ValueError(f"coefficient at {n} is not (-1)**{digit_sums[n]}")
    spec = unit_chaos(p, d)
    support_ok = all(n == 0 or contains(spec, n) for n in coeffs)
    level_set = (prod - 1).level_set(-1)
    measure = level_set.measure()
    threshold = Fraction(p - 1, p) ** d
    return SharpnessReport(
        p=p,
        d=d,
        index_set=spec,
        witness=coeffs,
        level_value=CycloArray.coerce(-1),
        level_set=level_set,
        level_set_measure=measure,
        threshold=threshold,
        support_ok=support_ok,
    )


def witness_full_chaos(p: int, d: int) -> SharpnessReport:
    """Sharpness witness Q = prod(1 + R_k + ... + R_k**(p-1)) for the full chaos.

    Certifies: Q equals p**d times the indicator of [0, p**-d) cellwise,
    expansion coefficients all 1 below p**d, and {Q - 1 = -1} of measure
    exactly 1 - p**-d.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    cells = check_rank(p, d)
    prod = StepFn.constant(p, 1)
    for k in range(d):
        r_k = rademacher(p, k)
        total = StepFn.constant(p, 1)
        for power in range(1, p):
            total = total + r_k**power
        prod = prod * total
    if prod != PArySet(p, d, 1).indicator().scale(cells):
        raise ValueError("witness is not p**d * indicator of the first cell")
    array, coeffs = _expand(prod)
    if not (array - 1).is_zero().all():
        raise ValueError("witness expansion must be all ones below p**d")
    spec = full_chaos(p, d)
    support_ok = all(n == 0 or contains(spec, n) for n in coeffs)
    level_set = (prod - 1).level_set(-1)
    measure = level_set.measure()
    threshold = Fraction(1, p**d)
    return SharpnessReport(
        p=p,
        d=d,
        index_set=spec,
        witness=coeffs,
        level_value=CycloArray.coerce(-1),
        level_set=level_set,
        level_set_measure=measure,
        threshold=threshold,
        support_ok=support_ok,
    )


# -- set-theoretic ingredients -------------------------------------------------


def shifted_family(base_set: PArySet, k_tilde: int) -> list[PArySet]:
    """The p translates E - m * p**-(k_tilde+1) mod 1, m = 0..p-1."""
    if k_tilde < 0:
        raise ValueError(f"k_tilde must be >= 0, got {k_tilde}")
    p = base_set.p
    step = Fraction(1, p ** (k_tilde + 1))
    return [base_set.translate_mod1(m * step) for m in range(p)]


def common_core(family: Sequence[PArySet]) -> PArySet:
    """Intersection of the whole family."""
    if not family:
        raise ValueError("family must be nonempty")
    core = family[0]
    for member in family[1:]:
        core = core.intersect(member)
    return core


def overlap_bound_check(
    sets: Sequence[PArySet],
) -> tuple[Fraction, Fraction, bool]:
    """Exact audit of the pair-overlap lower bound for p sets in base p.

    With a = min measure, the set H of points covered at least twice
    satisfies mu(H) >= (p*a - 1) / (p - 1).  Returns (mu(H), bound, holds).
    """
    if not sets:
        raise ValueError("need a nonempty family")
    p = sets[0].p
    if len(sets) != p:
        raise ValueError(f"need exactly {p} sets in base {p}, got {len(sets)}")
    if any(s.p != p for s in sets):
        raise ValueError("all sets must share the base")
    a = min(s.measure() for s in sets)
    h_measure = at_least_two(sets).measure()
    bound = (p * a - 1) / Fraction(p - 1)
    return h_measure, bound, h_measure >= bound
