"""Sharpness witnesses for the uniqueness thresholds, and the pair-overlap bound of one family.

Each witness is the d-th tensor power P(x) = prod_{k<d} f(x_k) of the p cell
values f of one rank-1 factor ((p, 0, ..., 0) are those of VC_0 + ... + VC_(p-1)):

    P = (1 - R_0)**(tensor d) = prod_{k<d} (1 - R_k)   expansion in {0} + unit chaos
    Q = (p, 0, ..., 0)**(tensor d)                      expansion in {0} + full chaos

P - 1 (a chaos series plus the constant) equals -1 on {P = 0}, of measure
1 - ((p-1)/p)**d, and Q - 1 on a set of measure 1 - p**-d: a chaos series equal to
a nonzero constant on that much rules out any larger uniqueness threshold, so the
certified set is the level set {P - 1 = -1}, not the zero set of P - 1.

Lemma: in Paley order VC_n(x) = prod_j w**(n_j * x_j): the rank-d table is the
d-fold Kronecker power of the p-point DFT.  So P's coefficient of VC_n, the sum
of P(x) * conj(VC_n(x)) / p**d over the cells, is c_n = prod_j a[n_j], a the
factor's exact expansion, and the certificate is read off the factor:
- c = a**(tensor d) equals e**(tensor d), e != 0, iff a = u*e with u**d = 1 (entry
  (i, ..., i), e_i != 0, gives a_i**d = e_i**d, then entry (t, i, ..., i) gives
  a_t = (a_i/e_i) * e_t): a == e implies it, stricter by exactly the u != 1.
- c_n != 0 iff every digit of n is in supp a: |supp a|**d indices, one nonzero iff a digit
  t != 0 is in supp a, and all (minus 0) in an index set iff each such t is allowed at every
  position k < d and each count of nonzero digits (1..d if 0 is in supp a, else d) is a weight.
- A field has no zero divisors: {P = 0} has measure 1 - (z/p)**d, z the nonzero cells of f.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .cyclo import CycloArray
from .indices import IndexSpec, full_chaos, unit_chaos
from .pary import check_rank
from .vc import vc_transform_exact

if TYPE_CHECKING:
    from .stepfn import PArySet


class SharpnessReport:
    """One witness P = factor**(tensor d), d = index_set.order, certified from its p cell values.

    coefficients (of VC_n at n), support and level_set ({P = 0}) are tensor powers built when read.
    It holds when measure + threshold == 1, support_ok, coefficients_ok and a support index is nonzero.
    """

    def __init__(self, index_set, factor, factor_coefficients, threshold, support_ok, coefficients_ok):
        self.index_set = index_set
        self.factor = factor
        self.factor_coefficients = factor_coefficients
        self.threshold = threshold
        self.support_ok = support_ok
        self.coefficients_ok = coefficients_ok
        self._nonzero_cells, self._nonzero_coefficients = ~factor.is_zero(), ~factor_coefficients.is_zero()

    @property
    def coefficients(self) -> CycloArray:
        return _tensor_power(self.index_set.order, self.factor_coefficients)

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(_tensor_power(self.index_set.order, self._nonzero_coefficients))

    @property
    def level_set(self) -> PArySet:
        from .stepfn import PArySet

        zero_cells = ~_tensor_power(self.index_set.order, self._nonzero_cells)
        return PArySet(self.index_set.p, self.index_set.order, zero_cells)

    @property
    def support_size(self) -> int:
        return int(self._nonzero_coefficients.sum()) ** self.index_set.order

    @property
    def level_set_measure(self) -> Fraction:
        return 1 - Fraction(int(self._nonzero_cells.sum()), self.index_set.p) ** self.index_set.order

    @property
    def holds(self) -> bool:
        parts_ok = self.support_ok and self.coefficients_ok and self._nonzero_coefficients[1:].any()
        return bool(parts_ok) and self.level_set_measure + self.threshold == 1


def _check_order(p: int, d: int) -> None:
    """Refuse d < 1, then a rank-d grid past the cell cap, before any factor or rational is built."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    check_rank(p, d)


def _tensor_power(d: int, row):
    """Row's p entries to the tensor power d, under the cell cap: entry i*p + x is entry i times row[x]."""
    p, power = len(row), row
    check_rank(p, d)
    for _ in range(d - 1):
        power = power.repeat(p) * row[np.arange(p * len(power)) % p]
    return power


def _certify(factor: CycloArray, expected: CycloArray, spec: IndexSpec, threshold: Fraction) -> SharpnessReport:
    """Certify factor**(tensor spec.order) at rank 1: its expansion must be expected, its support in spec."""
    d, coeffs = spec.order, vc_transform_exact(factor, spec.p, "forward")
    held = np.flatnonzero(~coeffs.is_zero()).tolist()
    digits, counts = [t for t in held if t != 0], range(1 if 0 in held else d, d + 1)
    allowed = all(t in spec.digits_at(k) for k in range(d) for t in digits)
    support_ok = allowed and (not digits or all(s in spec.weights() for s in counts))
    return SharpnessReport(spec, factor, coeffs, threshold, support_ok, coeffs == expected)


def witness_unit_chaos(p: int, d: int) -> SharpnessReport:
    """Sharpness witness P = (1 - R_0)**(tensor d) for the unit-digit chaos system.

    Certifies: the expansion is (1, -1, 0, ..., 0)**(tensor d), (-1)**s at n if every digit of n
    is 0 or 1, s of them 1, and 0 otherwise, and {P - 1 = -1} = {P = 0} has measure exactly 1 - ((p-1)/p)**d.
    """
    _check_order(p, d)
    factor, expected = 1 - CycloArray.roots(p, np.arange(p)), CycloArray.from_values([1, -1] + [0] * (p - 2))
    return _certify(factor, expected, unit_chaos(p, d), Fraction(p - 1, p) ** d)


def witness_full_chaos(p: int, d: int) -> SharpnessReport:
    """Sharpness witness Q = (p, 0, ..., 0)**(tensor d) for the full chaos.

    Certifies: the expansion is all ones below p**d, and {Q - 1 = -1} has measure exactly 1 - p**-d.
    Paley indexing makes R_0**j = VC_j, so the rows are the cell values of 1 + R_0 + ... + R_0**(p-1).
    """
    _check_order(p, d)
    factor, expected = CycloArray.from_values([p] + [0] * (p - 1)), CycloArray.from_values([1] * p)
    return _certify(factor, expected, full_chaos(p, d), Fraction(1, p**d))


def overlap_bound_check(sets: Sequence[PArySet]) -> tuple[Fraction, Fraction, bool]:
    """Exact audit of the pair-overlap lower bound for p sets in base p.

    With a = min measure, the set H of points covered at least twice satisfies
    mu(H) >= (p*a - 1) / (p - 1).  Returns (mu(H), bound, holds): each set's bits are lifted to
    the family's finest rank (bits_at_rank), and verify's kernel, stepfn.overlap_counts, counts them.
    """
    from .stepfn import overlap_counts

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
