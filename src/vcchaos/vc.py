"""Generalized Rademacher and Vilenkin-Chrestenson functions and transforms.

Paley indexing throughout: the function with index n = sum(n_j * p**j) is the
product over j of the j-th Rademacher function raised to the n_j.  On the
rank-k grid its value table is

    VC[n, m] = w ** sum_j(n_j * x_j(m)),   w = exp(2*pi*i/p),

where x_j(m) is the j-th point digit of cell m's left endpoint, i.e. the
(k-1-j)-th integer digit of m.  That makes VC the k-fold Kronecker power of
the p-point DFT matrix composed with a digit reversal of the index, and the
matrix is symmetric and satisfies VC * conj(VC)^t = p**k * I.

One transform driver, _radix_p, serves both modes: the length-p**k input is
read as a (p,)*k tensor of ring elements, a p-point stage is applied along
each digit axis (no twiddle factors exist for this group), and reversing the
digit axes at the end aligns coefficient order with Paley order.  The float
stage is one matrix product with the p-point DFT matrix from pary.unit_roots,
scaled by 1/p forward; the exact stage works on the integer numerators of a
CycloArray of common order r, whose ring axis of length r is the one w_p**e
acts on as a rotation by e*r/p, so it is a sum of p rotated gathers and all
arithmetic is on integers (int64 when max|numerator| * p**k fits in it,
Python integers otherwise).  Forward = conjugate kernel and 1/p**k scaling,
so forward output n is the coefficient of VC_n; inverse rebuilds cell values.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .pary import _exponent_rows, check_cells, check_rank, digit_count, unit_roots

# cyclo and stepfn are imported where used, so the float transform loads neither
if TYPE_CHECKING:
    from .cyclo import CycloArray
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
    from .cyclo import CycloArray
    from .stepfn import StepFn

    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    rank = digit_count(n, p)
    check_rank(p, rank)
    return StepFn(p, rank, CycloArray.roots(p, _exponent_rows(p, rank, [n])[0]))


def exponent_table(p: int, k: int) -> np.ndarray:
    """(p**k, p**k) table E with VC[n, m] = w**E[n, m], its entries held to the cell cap."""
    cells = check_rank(p, k)
    check_cells(cells * cells, f"{p}**{2 * k} exponent table entries")
    return _exponent_rows(p, k, np.arange(cells))


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _gram_modulus(p: int, bound: int) -> tuple[int, int]:
    """The least prime l = 1 (mod p) above bound, and an element z of order p mod l."""
    l = bound // p * p + 1
    while l <= bound or not _is_prime(l):
        l += p
    factors = [q for q in range(2, p + 1) if p % q == 0 and _is_prime(q)]
    # F_l* is cyclic of order l - 1, a multiple of p, so some g**((l-1)/p) has order exactly p
    g, z = 1, 1
    while any(pow(z, p // q, l) == 1 for q in factors):
        g += 1
        z = pow(g, (l - 1) // p, l)
    return l, z


def verify_inverse_identity(p: int, k: int) -> bool:
    """Exact check that VC^(k) * conj-transpose(VC^(k)) = p**k * Identity.

    Gram entry (n, n') is g = sum_m w**d_m with d_m = E[n, m] - E[n', m]
    mod p, E = exponent_table(p, k).  In the power basis 1, w, ..., w**(phi-1)
    of Z[w], phi = deg Phi_p, the coefficients of w**d are the row
    R[d] of R = _power_residues(p), so every coefficient of g - N*delta(n, n')
    lies within N*(rho + 1) of 0, with N = p**k and rho = max|R|.

    Proof that the products below decide g = N*delta exactly.  Let l be a
    prime = 1 (mod p) with l > N*(rho + 1) and z of order p mod l.  Since l
    does not divide p, x**p - 1 has p distinct roots mod l, so Phi_p is the
    product of (x - z**j) over the phi units j mod p, and by the Chinese
    remainder theorem the map Z[w] -> F_l**phi, w -> (z**j)_j, kills exactly
    the elements whose coefficients are all divisible by l.  By the bound, the
    only such element among the g - N*delta is 0.  The image of g at z**j is
    entry (n, n') of V_j V_(-j)^t mod l, where V_j[n, m] = z**(j*E[n, m]) mod
    l, and the image at z**-j is its transpose, so the units j <= p/2 suffice,
    one N x N product each.  The products run in float64 on entries in
    [0, l): every product and every partial sum is an integer of size at most
    N*(l - 1)**2, which is checked against 2**53 before any product, so every
    float operation is exact and the comparison with N*I mod l is a comparison
    of exact integers.
    """
    from .cyclo import _power_residues

    cells = check_rank(p, k)
    rho = max(abs(c) for row in _power_residues(p) for c in row)
    l, z = _gram_modulus(p, cells * (rho + 1))
    if cells * (l - 1) ** 2 >= 2**53:
        raise ValueError(
            f"inverse-identity Gram products at {p}**{k} cells exceed 2**53 (modulus {l}): "
            "float64 would not be exact"
        )
    # exponents are read mod p, so any integer table is judged as the matrix it stands for
    table = exponent_table(p, k) % p
    conjugate = -table % p
    for j in range(1, p // 2 + 1):
        if math.gcd(j, p) != 1:
            continue
        powers = np.array([pow(z, j * e, l) for e in range(p)], dtype=np.float64)
        gram = powers[table] @ powers[conjugate].T % l
        gram.flat[:: cells + 1] -= cells
        if gram.any():
            return False
    return True


def matrix_op_norm(p: int, k: int) -> float:
    """Power-iteration estimate of the (2,2) operator norm of VC^(k)."""
    a = unit_roots(p)[exponent_table(p, k)]
    x = np.ones(len(a)) / math.sqrt(len(a))
    adjoint = a.conj().T  # adjoint @ a = p**k * I, so no iterate is zero
    for _ in range(_POWER_ITERATIONS):
        x = adjoint @ (a @ x)
        x = x / np.linalg.norm(x)
    return float(np.linalg.norm(a @ x) / np.linalg.norm(x))


# -- fast transform ----------------------------------------------------------


def _length_rank(length: int, p: int) -> int:
    if length < 1:
        raise ValueError("length must be positive")
    k = digit_count(length, p) - 1
    if p**k != length:
        raise ValueError(f"length {length} is not a power of the base {p}")
    return k


def _radix_p(values: np.ndarray, p: int, k: int, stage) -> np.ndarray:
    """Apply stage along each of the k digit axes of a (p**k, *ring) array; Paley order out.

    The C-order index of values is the digit tuple (d_0, ..., d_(k-1)), most
    significant first, then the ring axes.  stage maps the (p, M, *ring)
    view, leading digit first, to the (M, p, *ring) array with that digit
    transformed and moved last, so after k stages every digit is back in its
    place, and only the final reversal of the digit axes moves them, into
    Paley order.
    """
    ring = values.shape[1:]
    for _ in range(k):
        values = stage(values.reshape(p, -1, *ring))
    digits = values.reshape((p,) * k + ring)
    return digits.transpose(*reversed(range(k)), *range(k, digits.ndim)).reshape(-1, *ring)


def vc_transform_float(values, p: int, direction: str = "forward") -> np.ndarray:
    """Radix-p transform in complex floats: one (M, p) @ (p, p) product per stage.

    The kernel w**(sign*a*b) is read from pary.unit_roots.  Forward it is divided by p (exactly
    when p is a power of 2), so no stage output exceeds the largest input modulus, up to rounding.
    """
    arr = np.asarray(values, dtype=np.complex128)
    k = _length_rank(arr.size, p)
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    if k == 0:
        return arr.copy()
    sign = -1 if direction == "forward" else 1
    kernel = unit_roots(p)[sign * np.outer(np.arange(p), np.arange(p)) % p]
    if direction == "forward":
        kernel = kernel / p
    # out[j, a] = sum_b t[b, j] * kernel[a, b]
    return _radix_p(arr.reshape(arr.size), p, k, lambda t: t.T @ kernel.T)


def vc_transform_exact(values, p: int, direction: str = "forward") -> CycloArray:
    """Radix-p transform in exact cyclotomic arithmetic, by ring rotations.

    The values (a CycloArray, or anything CycloArray.from_values takes)
    live in the group ring of their common order r, promoted to a multiple
    of p, as integer numerators over one denominator: a (cells, r) array.
    Multiplying by w_p**e rotates the ring axis by e * r / p, so a stage is
    a gather, out[.., a, .., s] = sum_b in[.., b, .., (s - shift[a, b]) mod r]
    with shift[a, b] = sign * a * b * r / p: O(p * cells * r) work, and
    temporaries the size of the array.
    """
    from .cyclo import CycloArray

    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    vals = CycloArray.from_values(values)
    order = math.lcm(vals.order, p)
    length = len(vals)
    k = _length_rank(length, p)
    sign = -1 if direction == "forward" else 1
    digit = np.arange(p)
    shift = sign * np.outer(digit, digit) * (order // p)
    # gather[a, b, s] = (s - shift[a, b]) mod order
    gather = (np.arange(order) - shift[:, :, None]) % order
    # a stage sums p rotated entries, so no sum exceeds max|nums| * p**k: when
    # that fits in int64 the stages run on machine integers, else on Python ints
    peak = max(map(abs, vals.nums.ravel().tolist()), default=0)
    dtype = np.int64 if peak * length <= np.iinfo(np.int64).max else object
    nums = np.zeros((length, order), dtype=dtype)
    nums[:, :: order // vals.order] = vals.nums

    def stage(t):
        # t[b] is (M, order); t[b][:, gather[:, b]] is (M, p, order), every a at once
        out = t[0][:, gather[:, 0]]
        for b in range(1, p):
            out += t[b][:, gather[:, b]]
        return out

    out = _radix_p(nums, p, k, stage).astype(object)
    denom = vals.denom * (length if direction == "forward" else 1)
    return CycloArray(order, out, denom)


# -- synthesis ----------------------------------------------------------------


def synthesize(coeffs: Mapping[int, object], p: int) -> StepFn:
    """Exact sum of coeffs[n] * VC_n, evaluated via the inverse fast transform."""
    from .cyclo import CycloArray
    from .stepfn import StepFn

    if any(n < 0 for n in coeffs):
        raise ValueError("indices must be nonnegative")
    rank = max((digit_count(n, p) for n in coeffs), default=0)
    cells = check_rank(p, rank)
    # cell n takes row 1 + (position of n in coeffs), every other cell row 0
    rows = np.zeros(cells, dtype=np.intp)
    rows[list(coeffs)] = np.arange(1, len(coeffs) + 1)
    vec = CycloArray.from_values([0, *coeffs.values()])[rows]
    return StepFn(p, rank, vc_transform_exact(vec, p, "inverse"))
