"""Exact arithmetic with rational combinations of roots of unity.

A value of order r is a vector (a_0, ..., a_{r-1}) of rationals standing for
sum(a_j * w**j) with w = exp(2*pi*i/r).  The representation lives in the
group ring Q[x]/(x**r - 1) and is deliberately not canonical: products of
roots stay single-coefficient vectors and conjugation is an index
permutation.  Equality and zero testing reduce modulo the r-th cyclotomic
polynomial, which is the minimal polynomial of w, so they are exact for
every order, prime or not.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

_EPS = 2.0**-52


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
def _power_residues(order: int) -> tuple[tuple[int, ...], ...]:
    """x**t mod Phi_order for t in 0..order-1, rows of length deg(Phi_order)."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    rows = []
    row = [0] * deg
    row[0] = 1
    rows.append(tuple(row))
    for _ in range(1, order):
        row = [0] + row
        lead = row.pop()
        if lead:
            row = [c - lead * phi[i] for i, c in enumerate(row)]
        rows.append(tuple(row))
    return tuple(rows)


def integer_numerators(rationals) -> tuple[np.ndarray, int]:
    """Integer numerators (object array) of ints, floats or Fractions over their lcm denominator."""
    ratios = [x.as_integer_ratio() for x in rationals]
    denom = math.lcm(*(d for _, d in ratios))
    return np.array([n * (denom // d) for n, d in ratios], dtype=object), denom


class CycloValue:
    """Exact element sum(coeffs[j] * w**j), w a primitive order-th root of unity.

    Instances are immutable.  Cross-order arithmetic promotes both operands
    into the ring of the least common multiple order, so rationals (order 1)
    mix freely with any root order.  Hashing is disabled; use canonical_key()
    to group equal values of a common order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if len(coeffs) != order:
            raise ValueError(f"need exactly {order} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CycloValue is immutable")

    @classmethod
    def zero(cls, order: int = 1) -> "CycloValue":
        return cls(order, [0] * order)

    @classmethod
    def one(cls, order: int = 1) -> "CycloValue":
        return cls.from_rational(Fraction(1), order)

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CycloValue":
        coeffs = [Fraction(0)] * order
        coeffs[0] = Fraction(value)
        return cls(order, coeffs)

    @classmethod
    def root(cls, order: int, j: int = 1) -> "CycloValue":
        coeffs = [Fraction(0)] * order
        coeffs[j % order] = Fraction(1)
        return cls(order, coeffs)

    # -- coercion ---------------------------------------------------------

    @classmethod
    def coerce(cls, value, order: int = 1) -> "CycloValue":
        if isinstance(value, CycloValue):
            return value if order == 1 else value.promote(math.lcm(value.order, order))
        return cls.from_rational(value, 1).promote(order)

    def promote(self, new_order: int) -> "CycloValue":
        """Re-express the value with a root of unity of a multiple order."""
        if new_order == self.order:
            return self
        if new_order % self.order:
            raise ValueError(f"{new_order} is not a multiple of order {self.order}")
        factor = new_order // self.order
        coeffs = [Fraction(0)] * new_order
        for j, c in enumerate(self.coeffs):
            coeffs[j * factor] = c
        return CycloValue(new_order, coeffs)

    def _pair(self, other) -> tuple["CycloValue", "CycloValue"]:
        other = CycloValue.coerce(other)
        order = math.lcm(self.order, other.order)
        return self.promote(order), other.promote(order)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        return CycloValue(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloValue(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-CycloValue.coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self._pair(other)
        r = a.order
        out = [Fraction(0)] * r
        for i, ci in enumerate(a.coeffs):
            if ci:
                for j, cj in enumerate(b.coeffs):
                    if cj:
                        out[(i + j) % r] += ci * cj
        return CycloValue(r, out)

    __rmul__ = __mul__

    def scale(self, q) -> "CycloValue":
        q = Fraction(q)
        return CycloValue(self.order, [c * q for c in self.coeffs])

    def rotated(self, j: int) -> "CycloValue":
        """Multiply by w**j (an index rotation, no coefficient arithmetic)."""
        r = self.order
        j %= r
        if j == 0:
            return self
        return CycloValue(r, self.coeffs[-j:] + self.coeffs[:-j])

    def conj(self) -> "CycloValue":
        r = self.order
        return CycloValue(r, tuple(self.coeffs[(-t) % r] for t in range(r)))

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers are not supported")
        result = CycloValue.one(self.order)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- certified comparisons -------------------------------------------

    def canonical_key(self) -> tuple[Fraction, ...]:
        """Coefficients of the residue mod Phi_order; equal values share keys."""
        rows = _power_residues(self.order)
        deg = len(rows[0])
        out = [Fraction(0)] * deg
        for t, c in enumerate(self.coeffs):
            if c:
                row = rows[t]
                for i in range(deg):
                    if row[i]:
                        out[i] += c * row[i]
        return tuple(out)

    def is_zero(self) -> bool:
        return not any(self.canonical_key())

    def __eq__(self, other):
        if not isinstance(other, (CycloValue, int, Fraction)):
            return NotImplemented
        a, b = self._pair(other)
        return (a - b).is_zero()

    __hash__ = None

    def is_real(self) -> bool:
        return (self - self.conj()).is_zero()

    def as_rational(self) -> Fraction:
        key = self.canonical_key()
        if any(key[1:]):
            raise ValueError("value is not rational")
        return key[0]

    def real_part(self) -> "CycloValue":
        return (self + self.conj()).scale(Fraction(1, 2))

    def imag_part(self) -> "CycloValue":
        """Imaginary part as an exact value of order lcm(order, 4).

        Im z = (z - conj z) * (-i) / 2, and -i is a root of unity once the
        order is a multiple of 4.
        """
        order = math.lcm(self.order, 4)
        v = self.promote(order)
        minus_i = CycloValue.root(order, 3 * order // 4)
        return ((v - v.conj()) * minus_i).scale(Fraction(1, 2))

    def abs_squared(self) -> "CycloValue":
        return self * self.conj()

    # -- numeric view ------------------------------------------------------

    def eval_complex(self) -> tuple[complex, float]:
        """Float evaluation with a rigorous absolute error bound.

        The bound covers rational-to-float rounding, the root-of-unity
        evaluations, the products, and the length-order summation.
        """
        total = 0j
        mag = 0.0
        r = self.order
        for j, c in enumerate(self.coeffs):
            if c:
                cf = float(c)
                total += cf * cmath.exp(2j * math.pi * j / r)
                mag += abs(cf)
        err = mag * _EPS * (r + 8) + 4 * math.ulp(1.0) * (abs(total) + 1e-300)
        return total, err

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if c:
                if j == 0:
                    terms.append(f"{c}")
                elif c == 1:
                    terms.append(f"w{j}")
                else:
                    terms.append(f"{c}*w{j}")
        body = " + ".join(terms) if terms else "0"
        return f"CycloValue(order={self.order}: {body})"


def float_parts(values) -> list[complex]:
    """Float view of exact values, exact where a real or imaginary part is rational.

    A real or imaginary part that is a rational number prints as the nearest
    float to it (an exactly real value gets imaginary part 0.0); irrational
    parts come from eval_complex.  All values reduce at once: in the order
    r = lcm(4, their orders), conjugation is the index permutation j -> -j
    and -i is w**(3r/4), so 2 Re z and 2 Im z are numerator rows reduced by
    one matrix product with the power residues mod Phi_r.
    """
    order = math.lcm(*(v.order for v in values))
    r = math.lcm(order, 4)
    nums, denom = integer_numerators(c for v in values for c in v.promote(order).coeffs)
    z = np.zeros((len(values), r), dtype=object)
    z[:, :: r // order] = nums.reshape(len(values), order)
    conj = z[:, -np.arange(r) % r]
    residues = np.array(_power_residues(r), dtype=object)
    twice_re = (z + conj) @ residues
    twice_im = np.roll(z - conj, 3 * r // 4, axis=1) @ residues
    re_exact = ~(twice_re[:, 1:] != 0).any(axis=1)
    im_exact = ~(twice_im[:, 1:] != 0).any(axis=1)
    out = []
    for i, v in enumerate(values):
        approx = 0j if re_exact[i] and im_exact[i] else v.eval_complex()[0]
        re = float(Fraction(twice_re[i, 0], 2 * denom)) if re_exact[i] else approx.real
        im = float(Fraction(twice_im[i, 0], 2 * denom)) if im_exact[i] else approx.imag
        out.append(complex(re, im))
    return out


def root_of_unity(order: int, j: int = 1) -> CycloValue:
    """w**j for w = exp(2*pi*i/order); the exponent is reduced mod order."""
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    return CycloValue.root(order, j)
