"""Exact arithmetic with rational combinations of roots of unity.

A value of order r is a vector (a_0, ..., a_{r-1}) of rationals standing for
sum(a_j * w**j) with w = exp(2*pi*i/r).  The representation lives in the
group ring Q[x]/(x**r - 1) and is deliberately not canonical: products of
roots stay single-coefficient vectors and conjugation is an index
permutation.  Equality and zero testing reduce modulo the r-th cyclotomic
polynomial, which is the minimal polynomial of w, so they are exact for
every order, prime or not.

One type implements the ring: a CycloArray holds n values of one order as
an (n, r) array of integer numerators over one denominator, and acts on all
rows at once (the product is a cyclic convolution along the ring axis).  A
single value is a one-row CycloArray.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .pary import over_common_denominator, unit_roots


def _polydiv_exact(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    """Exact division of integer polynomials (low-to-high coefficients).

    The divisor must be monic and must divide evenly; both hold for the
    cyclotomic factor tree used below.
    """
    num_l = list(num)
    deg_n, deg_d = len(num_l) - 1, len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    quot = [0] * (deg_n - deg_d + 1)
    for i in range(deg_n - deg_d, -1, -1):
        c = num_l[i + deg_d]
        quot[i] = c
        if c:
            for j, dj in enumerate(den):
                num_l[i + j] -= c * dj
    if any(num_l):
        raise ValueError("division is not exact")
    return tuple(quot)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients (low-to-high) of the n-th cyclotomic polynomial.

    Computed by exact division of x**n - 1 by the cyclotomic polynomials of
    all proper divisors of n.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n == 1:
        return (-1, 1)
    poly = tuple([-1] + [0] * (n - 1) + [1])  # x**n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_exact(poly, cyclotomic_polynomial(d))
    return poly


@lru_cache(maxsize=None)
def _power_residues(order: int) -> np.ndarray:
    """Read-only (order, deg Phi_order) object array: row t is x**t mod Phi_order."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    rows = []
    row = [0] * deg
    row[0] = 1
    rows.append(row)
    for _ in range(1, order):
        row = [0] + row
        lead = row.pop()
        if lead:
            row = [c - lead * phi[i] for i, c in enumerate(row)]
        rows.append(row)
    table = np.array(rows, dtype=object)
    table.flags.writeable = False
    return table


def _first_seen(items) -> tuple[np.ndarray, np.ndarray]:
    """(labels, first) of hashable items: equal items share a label, numbered
    in order of first appearance, and first[c] is the index of label c's first item."""
    seen: dict = {}
    labels, first = [], []
    for i, item in enumerate(items):
        label = seen.setdefault(item, len(seen))
        if label == len(first):
            first.append(i)
        labels.append(label)
    return np.array(labels, dtype=np.int64), np.array(first, dtype=np.int64)


@lru_cache(maxsize=None)
def _rotations(order: int) -> np.ndarray:
    """Read-only (order, order) gather table: v[_rotations(r)[i]] equals np.roll(v, i)."""
    table = (np.arange(order) - np.arange(order)[:, None]) % order
    table.flags.writeable = False
    return table


class CycloArray:
    """Rows sum(nums[i, j] * w**j) / denom, w a primitive order-th root of unity.

    nums is an (n, order) object array of Python ints and denom a positive
    int, reduced so that no common factor divides both.  Operands of
    different orders are promoted to the least common multiple order, and a
    one-row operand (or a rational) broadcasts against every row.  Instances
    are never mutated, so arrays may share numerators.
    """

    __slots__ = ("order", "nums", "denom")

    def __init__(self, order: int, nums: np.ndarray, denom: int = 1):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if nums.ndim != 2 or nums.shape[1] != order:
            raise ValueError(f"need an (n, {order}) numerator array, got shape {nums.shape}")
        if denom != 1:
            g = math.gcd(denom, *nums.flat)
            if g > 1:
                nums, denom = nums // g, denom // g
        self.order = order
        self.nums = nums
        self.denom = denom

    @classmethod
    def roots(cls, order: int, exponents) -> "CycloArray":
        """Rows w**e for e in exponents; the exponents are reduced mod order."""
        exponents = np.asarray(exponents, dtype=np.int64) % order
        nums = np.zeros((exponents.size, order), dtype=object)
        nums[np.arange(exponents.size), exponents] = 1
        return cls(order, nums)

    @classmethod
    def coerce(cls, value) -> "CycloArray":
        """An array as it is, a rational as a one-row order-1 array."""
        if isinstance(value, CycloArray):
            return value
        return cls.from_values([Fraction(value)])

    @classmethod
    def from_values(cls, values) -> "CycloArray":
        """One row per value (int, float, Fraction, or each row of a CycloArray), in the lcm order."""
        if isinstance(values, CycloArray):
            return values
        values = list(values)
        if not any(isinstance(v, CycloArray) for v in values):
            nums, denom = over_common_denominator(values)
            return cls(1, nums.reshape(len(values), 1), denom)
        rows = [cls.coerce(v) for v in values]
        order = math.lcm(*(a.order for a in rows))
        denom = math.lcm(*(a.denom for a in rows))
        return cls(order, np.concatenate([a._over(order, denom) for a in rows]), denom)

    def __len__(self) -> int:
        return self.nums.shape[0]

    def __getitem__(self, index) -> "CycloArray":
        """The selected rows; an int selects one row, kept as a one-row array."""
        if isinstance(index, (int, np.integer)):
            index = [index]
        return CycloArray(self.order, self.nums[index], self.denom)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def repeat(self, reps: int) -> "CycloArray":
        """Each row repeated reps times in a row, as np.repeat does."""
        return CycloArray(self.order, np.repeat(self.nums, reps, axis=0), self.denom)

    def sum(self) -> "CycloArray":
        """The one-row sum of all rows."""
        return CycloArray(self.order, self.nums.sum(axis=0, keepdims=True), self.denom)

    def promote(self, new_order: int) -> "CycloArray":
        """Re-express the values with a root of unity of a multiple order."""
        if new_order == self.order:
            return self
        if new_order % self.order:
            raise ValueError(f"{new_order} is not a multiple of order {self.order}")
        nums = np.zeros((len(self), new_order), dtype=object)
        nums[:, :: new_order // self.order] = self.nums
        return CycloArray(new_order, nums, self.denom)

    def _over(self, order: int, denom: int) -> np.ndarray:
        """Numerators of the same values in a multiple order over a multiple denominator."""
        nums = self.promote(order).nums
        factor = denom // self.denom
        return nums if factor == 1 else nums * factor

    def __add__(self, other):
        other = CycloArray.coerce(other)
        order = math.lcm(self.order, other.order)
        denom = math.lcm(self.denom, other.denom)
        return CycloArray(order, self._over(order, denom) + other._over(order, denom), denom)

    __radd__ = __add__

    def __neg__(self):
        return CycloArray(self.order, -self.nums, self.denom)

    def __sub__(self, other):
        return self + (-CycloArray.coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = CycloArray.coerce(other)
        r = math.lcm(self.order, other.order)
        a, b = self.promote(r).nums, other.promote(r).nums
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=object)
        for i in range(r):
            # coefficient i of b multiplies w**i, which rotates a by i places; a
            # rational or a root (one nonzero column) costs a single term
            if b[:, i].any():
                out = out + a[:, _rotations(r)[i]] * b[:, i : i + 1]
        return CycloArray(r, out, self.denom * other.denom)

    __rmul__ = __mul__

    def scale(self, q) -> "CycloArray":
        q = Fraction(q)
        return CycloArray(self.order, self.nums * q.numerator, self.denom * q.denominator)

    def rotated(self, j: int) -> "CycloArray":
        """Multiply every row by w**j (an index rotation, no coefficient arithmetic)."""
        return CycloArray(self.order, self.nums[:, _rotations(self.order)[j % self.order]], self.denom)

    def conj(self) -> "CycloArray":
        r = self.order
        return CycloArray(r, self.nums[:, -np.arange(r) % r], self.denom)

    def __pow__(self, exponent: int) -> "CycloArray":
        if exponent < 0:
            raise ValueError("negative powers are not supported")
        result = CycloArray.roots(self.order, np.zeros(len(self), dtype=np.int64))
        for bit in bin(exponent)[2:]:  # square and multiply, leading bit first
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def real_part(self) -> "CycloArray":
        return (self + self.conj()).scale(Fraction(1, 2))

    def imag_part(self) -> "CycloArray":
        """Imaginary parts as exact values of order lcm(order, 4).

        Im z = (z - conj z) * (-i) / 2, and -i = w**(3*order/4) is a root of
        unity once the order is a multiple of 4, so the product is a rotation.
        """
        order = math.lcm(self.order, 4)
        v = self.promote(order)
        return (v - v.conj()).rotated(3 * order // 4).scale(Fraction(1, 2))

    def keys(self) -> np.ndarray:
        """(n, deg Phi_order) integer residues mod Phi_order over denom.

        Rows of one array are equal values exactly when their keys are equal.
        Rows t < deg of the residue table are the unit vectors x**t, so only
        the order - deg numerator columns past them are multiplied out: one
        at a prime order, none at order 1.
        """
        residues = _power_residues(self.order)
        deg = residues.shape[1]
        if deg == self.order:
            return self.nums.copy()
        return self.nums[:, :deg] + self.nums[:, deg:] @ residues[deg:]

    def classes(self) -> tuple[np.ndarray, np.ndarray]:
        """(labels, first): a class label per row and the first row of each class.

        Two rows share a label exactly when they hold equal values; labels are
        numbered in order of first appearance.  Rows with equal numerators are
        equal values, so only the first row of each distinct numerator row is keyed.
        """
        rows, distinct = _first_seen(map(tuple, self.nums.tolist()))
        keys, first = _first_seen(map(tuple, self[distinct].keys().tolist()))
        return keys[rows], distinct[first]

    def is_zero(self) -> np.ndarray:
        """Boolean array: which rows are exactly zero."""
        return ~(self.keys() != 0).any(axis=1)

    def __eq__(self, other):
        """One bool: every row equals other's, a one-row operand broadcasting.

        Arrays whose row counts differ, neither being one, are unequal.
        """
        if not isinstance(other, (CycloArray, int, Fraction)):
            return NotImplemented
        other = CycloArray.coerce(other)
        if len(self) != len(other) and 1 not in (len(self), len(other)):
            return False
        return bool((self - other).is_zero().all())

    __hash__ = None

    def rationals(self) -> list[Fraction]:
        """The rows as rationals; ValueError if some row is not rational."""
        keys = self.keys()
        if (keys[:, 1:] != 0).any():
            raise ValueError("value is not rational")
        return [Fraction(k, self.denom) for k in keys[:, 0]]

    def _evaluate(self) -> tuple[np.ndarray, np.ndarray]:
        """Float real and imaginary parts of the rows.

        Each coefficient n / denom is one correctly rounded integer division,
        and w**j is pary.unit_roots(order)[j].  The terms are summed in ring
        order j = 0, 1, ..., as the scalar sum `total += cf * w**j` would: its
        real part is cf * cos - 0 * sin, which differs from cf * cos at most
        in the sign of a zero, and a sum that starts at +0.0 never becomes
        -0.0, so neither signed zeros nor zero coefficients change a total.
        """
        coeffs = (self.nums / self.denom).astype(np.float64)
        re, im = np.zeros(len(self)), np.zeros(len(self))
        for column, root in zip(coeffs.T, unit_roots(self.order).tolist()):
            re += column * root.real
            im += column * root.imag
        return re, im

    def float_parts(self) -> np.ndarray:
        """Complex float view of the rows, exact where a real or imaginary part is rational.

        A real or imaginary part that is a rational number is the nearest
        float to it (an exactly real value gets imaginary part 0.0); the
        other parts come from _evaluate, run on the rows that have one.  A
        part is rational when its key has no terms beyond the constant one.
        """
        parts = (self.real_part(), self.imag_part())
        keys = [part.keys() for part in parts]
        rational = [~(key[:, 1:] != 0).any(axis=1) for key in keys]
        rows = np.flatnonzero(~(rational[0] & rational[1]))
        approx = self[rows]._evaluate()
        out = np.zeros(len(self), dtype=np.complex128)
        for view, part, key, exact, floats in zip((out.real, out.imag), parts, keys, rational, approx):
            # one correctly rounded integer division per rational part
            view[exact] = key[exact, 0] / part.denom
            view[rows] = np.where(exact[rows], view[rows], floats)
        return out


def root_of_unity(order: int, j: int = 1) -> CycloArray:
    """w**j for w = exp(2*pi*i/order) as a one-row array; the exponent is reduced mod order."""
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    return CycloArray.roots(order, [j])
