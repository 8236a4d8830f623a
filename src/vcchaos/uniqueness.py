"""Sharpness witnesses for the uniqueness thresholds, and the pair-overlap bound of one family.

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

from fractions import Fraction
from typing import Sequence

import numpy as np

from .cyclo import CycloArray
from .indices import IndexSpec, full_chaos, member_mask, unit_chaos
from .pary import check_rank, digit_array
from .stepfn import PArySet, StepFn, overlap_counts
from .vc import rademacher, vc_function, vc_transform_exact


class SharpnessReport:
    """Certified data of one witness polynomial.

    The witness is its exact expansion (coefficients[n] is that of VC_n) and
    the ascending indices of its nonzero coefficients (support).  The
    certificate holds when the level-set measure and the threshold sum to 1
    exactly, the level value is a nonzero constant, the expansion has a
    nonzero-index coefficient and (minus its constant term) is supported
    inside the index set, and every coefficient is the expected one.  The
    level-set measure is read from the level set, so the two cannot disagree.
    """

    def __init__(
        self,
        index_set: IndexSpec,
        support: np.ndarray,
        coefficients: CycloArray,
        level_value: CycloArray,
        level_set: PArySet,
        threshold: Fraction,
        support_ok: bool,
        coefficients_ok: bool,
    ):
        self.index_set = index_set
        self.support = support
        self.coefficients = coefficients
        self.level_value = level_value
        self.level_set = level_set
        self.threshold = threshold
        self.support_ok = support_ok
        self.coefficients_ok = coefficients_ok

    @property
    def level_set_measure(self) -> Fraction:
        return self.level_set.measure()

    @property
    def holds(self) -> bool:
        return (
            self.level_set_measure + self.threshold == 1
            and self.level_value != 0
            and bool((self.support != 0).any())
            and self.support_ok
            and self.coefficients_ok
        )


def _product(p: int, d: int, factor) -> StepFn:
    """prod_{k<d} factor(k), its depth d checked and its rank-d grid held to the cell cap."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    check_rank(p, d)
    prod = StepFn.constant(p, 1)
    for k in range(d):
        prod = prod * factor(k)
    return prod


def _report(
    p: int,
    spec: IndexSpec,
    prod: StepFn,
    expected,
    threshold: Fraction,
    identity: bool = True,
) -> SharpnessReport:
    """Certify the witness prod: its whole expansion against expected, and {prod - 1 = -1}.

    identity is the witness's own cellwise check, if it has one; the
    coefficients certify only with it.
    """
    coeffs = vc_transform_exact(prod.values, p, "forward")
    support = np.flatnonzero(~coeffs.is_zero())
    return SharpnessReport(
        index_set=spec,
        support=support,
        coefficients=coeffs,
        level_value=CycloArray.coerce(-1),
        level_set=(prod - 1).level_set(-1),
        threshold=threshold,
        support_ok=bool(member_mask(spec, support[support != 0]).all()),
        coefficients_ok=coeffs == expected and identity,
    )


def witness_unit_chaos(p: int, d: int) -> SharpnessReport:
    """Sharpness witness P = prod(1 - R_k) for the unit-digit chaos system.

    Certifies: the expansion coefficient at n is (-1)**s if every digit of n
    is 0 or 1, s of them 1, and 0 otherwise (so the constant coefficient is 1
    and P - 1 lives on the chaos indices), and {P - 1 = -1} = {P = 0} has
    measure exactly 1 - ((p-1)/p)**d.
    """
    prod = _product(p, d, lambda k: 1 - rademacher(p, k))
    digits = digit_array(np.arange(p**d), p, d)
    signs = np.where((digits <= 1).all(axis=1), 1 - 2 * (digits.sum(axis=1) % 2), 0)
    expected = CycloArray(1, signs.astype(object).reshape(-1, 1))
    return _report(p, unit_chaos(p, d), prod, expected, Fraction(p - 1, p) ** d)


def witness_full_chaos(p: int, d: int) -> SharpnessReport:
    """Sharpness witness Q = prod(1 + R_k + ... + R_k**(p-1)) for the full chaos.

    Certifies: Q equals p**d times the indicator of [0, p**-d) cellwise,
    expansion coefficients all 1 below p**d, and {Q - 1 = -1} of measure
    exactly 1 - p**-d.  Paley indexing makes R_k**j = VC_(j * p**k), so each
    factor is a sum of p VC functions.
    """
    prod = _product(p, d, lambda k: sum(vc_function(p, j * p**k) for j in range(p)))
    identity = prod == PArySet.from_cells(p, d, [0]).indicator().scale(p**d)
    return _report(p, full_chaos(p, d), prod, 1, Fraction(1, p**d), identity)


def overlap_bound_check(sets: Sequence[PArySet]) -> tuple[Fraction, Fraction, bool]:
    """Exact audit of the pair-overlap lower bound for p sets in base p.

    With a = min measure, the set H of points covered at least twice
    satisfies mu(H) >= (p*a - 1) / (p - 1).  Returns (mu(H), bound, holds):
    each set's bits are lifted to the family's finest rank (bits_at_rank), and
    verify's kernel, stepfn.overlap_counts, counts the stacked array.
    """
    if not sets:
        raise ValueError("need a nonempty family")
    p = sets[0].p
    if len(sets) != p:
        raise ValueError(f"need exactly {p} sets in base {p}, got {len(sets)}")
    if any(s.p != p for s in sets):
        raise ValueError("all sets must share the base")
    rank = max(s.rank for s in sets)
    bits = np.array([s.bits_at_rank(rank) for s in sets])
    h_measure, a = (Fraction(int(count), p**rank) for count in overlap_counts(bits))
    bound = (p * a - 1) / Fraction(p - 1)
    return h_measure, bound, h_measure >= bound
