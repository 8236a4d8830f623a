"""Generalized Rademacher and Vilenkin-Chrestenson functions and transforms.

Paley indexing throughout: the function with index n = sum(n_j * p**j) is the
product over j of the j-th Rademacher function raised to the n_j.  On the
rank-k grid its value table is

    VC[n, m] = w ** sum_j(n_j * x_j(m)),   w = exp(2*pi*i/p),

where x_j(m) is the j-th point digit of cell m's left endpoint, i.e. the
(k-1-j)-th integer digit of m.  That makes VC the k-fold Kronecker power of
the p-point DFT matrix composed with a digit reversal of the index, and the
matrix is symmetric and satisfies VC * conj(VC)^t = p**k * I.

One transform kernel, _radix_p, serves both modes: the length-p**k input
becomes a (p,)*k tensor of ring elements, a p-point kernel is applied along
each digit axis (no twiddle factors exist for this group), and reversing the
digit axes at the end aligns coefficient order with Paley order.  The float
binding uses ring length 1 and the complex p-point DFT; the exact binding
works on the integer numerators of a CycloArray of common order r, whose
ring axis of length r is the one w_p**e acts on as a rotation by e*r/p, so
its kernel is a 0/1 block-circulant and all arithmetic is on integers
(int64 when max|numerator| * p**k fits in it, Python integers otherwise).
Forward = conjugate kernel and 1/p**k scaling, so forward output n is the
coefficient of VC_n; inverse rebuilds cell values.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .cyclo import CycloArray, _power_residues
from .pary import check_rank, digit_count
from .stepfn import StepFn

# power-iteration steps of matrix_op_norm
_POWER_ITERATIONS = 30


def rademacher(p: int, k: int) -> StepFn:
    """R_k: value w**(x_k) on each rank-(k+1) cell, x_k the k-th point digit."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return vc_function(p, p**k)


def vc_function(p: int, n: int) -> StepFn:
    """VC_n as a step function at rank digit_count(n); VC_0 is constant 1."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    rank = digit_count(n, p)
    check_rank(p, rank)
    return StepFn(p, rank, CycloArray.roots(p, _exponent_rows(p, rank, [n])[0]))


def _exponent_rows(p: int, k: int, indices) -> np.ndarray:
    """(len(indices), p**k) exponents E with VC_n(cell m) = w**E[i, m] for n = indices[i].

    E[i, m] = sum_j n_j * x_j(m) mod p, where x_j(m), the j-th point digit
    of cell m, is the (k-1-j)-th integer digit of m.  Callers check p**k
    against the cell cap.
    """
    powers = p ** np.arange(max(k, 1), dtype=np.int64)
    index_digits = np.asarray(indices, dtype=np.int64)[:, None] // powers % p
    point_digits = (np.arange(p**k, dtype=np.int64)[:, None] // powers % p)[:, ::-1]
    return index_digits @ point_digits.T % p


def exponent_table(p: int, k: int) -> np.ndarray:
    """(p**k, p**k) table E with VC[n, m] = w**E[n, m]."""
    cells = check_rank(p, k)
    return _exponent_rows(p, k, np.arange(cells))


def verify_inverse_identity(p: int, k: int) -> bool:
    """Exact check that VC^(k) * conj-transpose(VC^(k)) = p**k * Identity.

    Each Gram entry is a sum of p**k roots of unity; tallying exponent
    multiplicities and reducing the tally against the p-th cyclotomic
    polynomial decides entrywise vanishing in exact integer arithmetic.
    """
    table = exponent_table(p, k)
    cells = len(table)
    residue_rows = np.array(_power_residues(p), dtype=np.int64)
    row_offsets = p * np.arange(cells)[:, None]
    for i in range(cells):
        diff = (table[i][None, :] - table) % p
        counts = np.bincount(
            (diff + row_offsets).ravel(), minlength=p * cells
        ).reshape(cells, p)
        if counts[i, 0] != cells or counts[i, 1:].any():
            return False
        residues = counts @ residue_rows
        residues[i] = 0
        if residues.any():
            return False
    return True


def matrix_op_norm(p: int, k: int) -> float:
    """Power-iteration estimate of the (2,2) operator norm of VC^(k)."""
    a = np.exp(2j * np.pi * exponent_table(p, k) / p)
    cells = len(a)
    x = np.ones(cells) / math.sqrt(cells)
    for _ in range(_POWER_ITERATIONS):
        y = a @ x
        x = a.conj().T @ y
        norm = np.linalg.norm(x)
        if norm == 0:
            return 0.0
        x = x / norm
    return float(np.linalg.norm(a @ x) / np.linalg.norm(x))


# -- fast transform ----------------------------------------------------------


def _length_rank(length: int, p: int) -> int:
    k = 0
    n = length
    while n > 1:
        if n % p:
            raise ValueError(f"length {length} is not a power of the base {p}")
        n //= p
        k += 1
    if length < 1:
        raise ValueError("length must be positive")
    return k


def _radix_p(tensor: np.ndarray, kernel: np.ndarray, k: int) -> np.ndarray:
    """Apply a (p, r, p, r) kernel along each of the k digit axes of a (p,)*k + (r,) tensor.

    out[.., a, .., s] = sum over (b, t) of kernel[a, s, b, t] * tensor[.., b, .., t]
    on every digit axis in turn; the trailing ring axis of length r rides
    along.  Digit axis `axis` is the second axis of the C-order view
    (p**axis, p, rest, r), so each stage is one einsum whose output has that
    same shape: the digit stays in place, no stage transposes, and only the
    final reversal of the digit axes moves them, into Paley order.
    """
    p, r = kernel.shape[:2]
    for axis in range(k):
        tensor = np.einsum("asbt,ibjt->iajs", kernel, tensor.reshape(p**axis, p, -1, r))
    return tensor.reshape((p,) * k + (r,)).transpose(*reversed(range(k)), k)


def vc_transform_float(values, p: int, direction: str = "forward") -> np.ndarray:
    """Radix-p transform in complex floats: ring length 1, kernel the p-point DFT."""
    arr = np.asarray(values, dtype=np.complex128)
    k = _length_rank(arr.size, p)
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    if k == 0:
        return arr.copy()
    sign = -1.0 if direction == "forward" else 1.0
    kernel = np.exp(sign * 2j * np.pi / p * np.outer(np.arange(p), np.arange(p)))
    out = _radix_p(arr.reshape((p,) * k + (1,)), kernel.reshape(p, 1, p, 1), k)
    out = out.reshape(arr.size)
    if direction == "forward":
        out = out / arr.size
    return out


def vc_transform_exact(values, p: int, direction: str = "forward") -> CycloArray:
    """Radix-p transform in exact cyclotomic arithmetic.

    The values (a CycloArray, or anything CycloArray.from_values takes)
    live in the group ring of their common order r, promoted to a multiple
    of p, as integer numerators over one denominator: a (cells, r) array.
    Multiplying by w_p**e rotates the ring axis by e * r / p, so the kernel
    is the 0/1 block-circulant whose block (a, b) is that rotation for
    e = sign * a * b.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    vals = CycloArray.from_values(values)
    order = math.lcm(vals.order, p)
    length = len(vals)
    k = _length_rank(length, p)
    sign = -1 if direction == "forward" else 1
    digit = np.arange(p)
    ring = np.arange(order)
    shift = sign * np.outer(digit, digit) * (order // p)
    # kernel[a, s, b, t] = 1 where t = s - shift[a, b] (mod order)
    hits = (ring[None, :, None, None] - shift[:, None, :, None] - ring) % order == 0
    nums = vals.promote(order).nums
    # a stage sums p rotated entries, so no sum exceeds max|nums| * p**k: when
    # that fits in int64 the kernel runs on machine integers, else on Python ints
    peak = max(map(abs, nums.ravel().tolist()), default=0)
    dtype = np.int64 if peak * length <= np.iinfo(np.int64).max else object
    kernel = hits.astype(np.int64).astype(dtype)
    out = _radix_p(nums.astype(dtype).reshape((p,) * k + (order,)), kernel, k)
    out = out.reshape(length, order).astype(object)
    denom = vals.denom * (length if direction == "forward" else 1)
    return CycloArray(order, out, denom)


# -- synthesis ----------------------------------------------------------------


def synthesize(coeffs: Mapping[int, object], p: int) -> StepFn:
    """Exact sum of coeffs[n] * VC_n, evaluated via the inverse fast transform."""
    if any(n < 0 for n in coeffs):
        raise ValueError("indices must be nonnegative")
    rank = max((digit_count(n, p) for n in coeffs), default=0)
    cells = check_rank(p, rank)
    # cell n takes row 1 + (position of n in coeffs), every other cell row 0
    rows = np.zeros(cells, dtype=np.intp)
    rows[list(coeffs)] = np.arange(1, len(coeffs) + 1)
    vec = CycloArray.from_values([0, *coeffs.values()])[rows]
    return StepFn(p, rank, vc_transform_exact(vec, p, "inverse"))
