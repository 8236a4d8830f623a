"""Sharpness witnesses for the uniqueness thresholds, and the pair-overlap bound of one family.

Each witness is the d-th tensor power of the closed-form cell values of one
rank-1 factor, (p, 0, ..., 0) being the rational rows of VC_0 + ... + VC_(p-1):

    P = (1 - R_0)**(tensor d) = prod_{k<d} (1 - R_k)   expansion in {0} + unit chaos
    Q = (p, 0, ..., 0)**(tensor d)                      expansion in {0} + full chaos

One certifier checks each witness: its exact expansion against the tensor
power of the expected coefficient factor, and its level set, read from the
witness's zero test.  P - 1 (a chaos series plus the constant) equals the
nonzero constant -1 on {P = 0}, whose measure is exactly 1 - ((p-1)/p)**d;
Q - 1 does the same on a set of measure 1 - p**-d.  A series over the chaos
indices converging to a nonzero constant on a set of that size is exactly
what rules out any larger uniqueness threshold, so the certified set is the
constant level set {P - 1 = -1} of the shifted polynomial, not its literal
zero set (for composite p the literal zero set of P - 1 has a different measure).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .cyclo import CycloArray
from .indices import IndexSpec, full_chaos, member_mask, unit_chaos
from .pary import check_rank
from .stepfn import PArySet, overlap_counts
from .vc import rademacher, vc_transform_exact


class SharpnessReport:
    """Certified data of one witness polynomial.

    The witness is its exact expansion (coefficients[n] is that of VC_n) and
    the ascending indices of its nonzero coefficients (support).  The
    certificate holds when the level-set measure and the threshold sum to 1
    exactly, the expansion has a nonzero-index coefficient and (minus its
    constant term) is supported inside the index set, and every coefficient
    is the expected one.  The level-set measure is read from the level set,
    so the two cannot disagree.
    """

    def __init__(
        self,
        index_set: IndexSpec,
        support: np.ndarray,
        coefficients: CycloArray,
        level_set: PArySet,
        threshold: Fraction,
        support_ok: bool,
        coefficients_ok: bool,
    ):
        self.index_set = index_set
        self.support = support
        self.coefficients = coefficients
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
            and bool((self.support != 0).any())
            and self.support_ok
            and self.coefficients_ok
        )


def _tensor_power(p: int, d: int, factor) -> CycloArray:
    """The d-th tensor power of factor()'s p rows: row i*p + x is row i times factor()[x].

    Digit order does not matter; d and the rank-d cell cap are checked before factor() is built.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    check_rank(p, d)
    power = row = factor()
    for _ in range(d - 1):
        power = power.repeat(p) * row[np.arange(p * len(power)) % p]
    return power


def _certify(
    values: CycloArray, expected: CycloArray, spec: IndexSpec, threshold: Fraction
) -> SharpnessReport:
    """Certify the witness with these cell values at rank spec.order.

    Its exact expansion must be expected, its support (minus n = 0) inside
    spec, and its zero set, {P - 1 = -1}, of measure 1 - threshold.
    """
    p, d = spec.p, spec.order
    coeffs = vc_transform_exact(values, p, "forward")
    support = np.flatnonzero(~coeffs.is_zero())
    return SharpnessReport(
        index_set=spec,
        support=support,
        coefficients=coeffs,
        level_set=PArySet(p, d, values.is_zero()),
        threshold=threshold,
        support_ok=bool(member_mask(spec, support[support != 0]).all()),
        coefficients_ok=coeffs == expected,
    )


def witness_unit_chaos(p: int, d: int) -> SharpnessReport:
    """Sharpness witness P = (1 - R_0)**(tensor d) for the unit-digit chaos system.

    Certifies: the expansion is (1, -1, 0, ..., 0)**(tensor d), (-1)**s at n
    if every digit of n is 0 or 1, s of them 1, and 0 otherwise, and
    {P - 1 = -1} = {P = 0} has measure exactly 1 - ((p-1)/p)**d.
    """
    values = _tensor_power(p, d, lambda: (1 - rademacher(p, 0)).values)
    expected = _tensor_power(p, d, lambda: CycloArray.from_values([1, -1] + [0] * (p - 2)))
    return _certify(values, expected, unit_chaos(p, d), Fraction(p - 1, p) ** d)


def witness_full_chaos(p: int, d: int) -> SharpnessReport:
    """Sharpness witness Q = (p, 0, ..., 0)**(tensor d) for the full chaos.

    Certifies: the expansion is all ones below p**d, and {Q - 1 = -1} has
    measure exactly 1 - p**-d.  Paley indexing makes R_0**j = VC_j, so the
    rows are the cell values of the geometric sum 1 + R_0 + ... + R_0**(p-1).
    """
    values = _tensor_power(p, d, lambda: CycloArray.from_values([p] + [0] * (p - 1)))
    expected = _tensor_power(p, d, lambda: CycloArray.from_values([1] * p))
    return _certify(values, expected, full_chaos(p, d), Fraction(1, p**d))


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
