"""Exact base-p digits of integers, carry-free digitwise sums, and the cell cap.

One array primitive, digit_array, gives the digits of many integers at once
by integer division (no float flooring anywhere): int64 while p**L < 2**63
for L digits, Python integers beyond.  digitwise_add and every digit rule
elsewhere read it, _exponent_rows among them: the VC exponents from which vc
and khinchin build their value tables.  digit_count is the one digit
counter.  Every grid of base-p cells is guarded by a cell cap so that a bad
rank argument fails loudly instead of exhausting memory.  This module owns
the cap: it is the one a run sets with run_cell_cap (the CLI's --cell-cap),
else the VCCHAOS_CELL_CAP environment variable, else DEFAULT_CELL_CAP, and
every refusal goes through check_cells, so no caller threads a cap through.
over_common_denominator puts exact rationals over one denominator, the
integer form that cyclo's arrays and khinchin's exact certificate share, and
unit_roots is the one float table of roots of unity every float kernel reads.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache

import numpy as np

DEFAULT_CELL_CAP = 10_000_000
CELL_CAP_ENV = "VCCHAOS_CELL_CAP"


class RankCapError(ValueError):
    """An operation would materialize more base-p cells than the active cap."""


# the cap of the running command, resolved once when it starts; run_cell_cap
# resets it when the command returns or raises, so a caller that runs several
# commands in one process never sees one command's cap in the next
_run_cap: ContextVar[int | None] = ContextVar("vcchaos_cell_cap", default=None)


def _environment_cap() -> int:
    raw = os.environ.get(CELL_CAP_ENV)
    return int(raw) if raw else DEFAULT_CELL_CAP


def cell_cap() -> int:
    """The cap of the running command, else $VCCHAOS_CELL_CAP, else DEFAULT_CELL_CAP.

    Outside a run_cell_cap body the environment is read on every call.
    """
    cap = _run_cap.get()
    return _environment_cap() if cap is None else cap


@contextmanager
def run_cell_cap(limit: int | None):
    """Make limit (None: the environment's cap, read once here) the cell cap of the body."""
    token = _run_cap.set(_environment_cap() if limit is None else limit)
    try:
        yield
    finally:
        _run_cap.reset(token)


def check_cells(count: int, what: str) -> None:
    """Refuse work of `count` cells, described by `what`, above the cell cap."""
    limit = cell_cap()
    if count > limit:
        raise RankCapError(f"{what} exceed the cell cap {limit}")


def check_rank(p: int, rank: int) -> int:
    """Validate base and rank against the cell cap; return the cell count p**rank."""
    if p < 2:
        raise ValueError(f"base must be >= 2, got {p}")
    if rank < 0:
        raise ValueError(f"rank must be >= 0, got {rank}")
    # compare in log space first so huge ranks never build the big integer
    check_cells(p ** min(rank, 64), f"{p}**{rank} cells")
    cells = p**rank
    if rank > 64:
        check_cells(cells, f"{p}**{rank} cells")
    return cells


def digit_count(n: int, p: int) -> int:
    """Number of base-p digits of n >= 0 (0 for n = 0)."""
    if p < 2:
        raise ValueError(f"base must be >= 2, got {p}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    count, power = 0, 1
    while power <= n:
        count, power = count + 1, power * p
    return count


def integer_array(values) -> np.ndarray:
    """values as an array; a list of Python ints as object (numpy reads [5, 2**63] as floats)."""
    return values if isinstance(values, np.ndarray) else np.array(values, dtype=object)


def over_common_denominator(values) -> tuple[np.ndarray, int]:
    """(numerators, D): exact rationals (ints, floats, Fractions) as Python ints over their lcm D.

    A float is its exact binary ratio (float.as_integer_ratio); the
    numerators come as an object array, in the order of values.
    """
    ratios = [x.as_integer_ratio() for x in values]
    denom = math.lcm(*(d for _, d in ratios))
    return np.array([n * (denom // d) for n, d in ratios], dtype=object), denom


def digit_array(values, p: int, length: int | None = None) -> np.ndarray:
    """Base-p digits of integers >= 0, least significant first: shape values.shape + (length,).

    length defaults to the digit count of the largest value.  The digits are
    int64 while p**length < 2**63 and Python integers beyond, so no value,
    and no sum of `length` digits at their place values, overflows.  Each
    position divides every value by p, so a value of L digits costs
    O(L**2) work and O(L) memory, as a scalar divmod loop does.
    """
    if p < 2:
        raise ValueError(f"base must be >= 2, got {p}")
    values = integer_array(values)
    if values.size and values.min() < 0:
        raise ValueError(f"n must be >= 0, got {values.min()}")
    if length is None:
        length = digit_count(int(values.max(initial=0)), p)
    values = values.astype(np.int64 if p**length < 2**63 else object)
    digits = np.empty(values.shape + (length,), dtype=values.dtype)
    for k in range(length):
        digits[..., k] = values % p
        values = values // p
    return digits


def digits_of_integer(n: int, p: int) -> tuple[int, ...]:
    """Base-p digits of n >= 0, least significant first; n = 0 gives ()."""
    return tuple(digit_array(n, p).tolist())


def digitwise_add(a, b, p: int):
    """Carry-free digitwise sum mod p of integers >= 0, broadcast; a scalar call gives an int."""
    a, b = integer_array(a), integer_array(b)
    if (a.size and a.min() < 0) or (b.size and b.min() < 0):
        raise ValueError("operands must be nonnegative")
    length = digit_count(max(int(a.max(initial=0)), int(b.max(initial=0))), p)
    digits = (digit_array(a, p, length) + digit_array(b, p, length)) % p
    total = np.zeros(digits.shape[:-1], dtype=digits.dtype)
    for k in reversed(range(length)):
        total = total * p + digits[..., k]
    total = np.asarray(total)
    return total.item() if total.ndim == 0 else total


def _exponent_rows(p: int, k: int, indices) -> np.ndarray:
    """(len(indices), p**k) exponents E with VC_n(cell m) = w**E[i, m] for n = indices[i].

    E[i, m] = sum_j n_j * x_j(m) mod p, where x_j(m), the j-th point digit
    of cell m, is the (k-1-j)-th integer digit of m.  Callers check p**k
    against the cell cap.
    """
    point_digits = digit_array(np.arange(p**k), p, k)[:, ::-1]
    return digit_array(indices, p, k) @ point_digits.T % p


_ROOT_ERR = 2.0**-47  # bound on |unit_roots(r)[j] - w**j| for every r and j, proven there


@lru_cache(maxsize=None)
def unit_roots(order: int) -> np.ndarray:
    """Read-only complex128 table of w**j, j < order, w = exp(2*pi*i/order); cached per order.

    Whole quarter turns (1, 1j, -1, -1j) are exact; any other entry is exp(i*t) at the
    real angle t = fl(fl(2*pi*j) / order), as cmath.exp(2j*math.pi*j/order) takes it.
    With u = 2**-53 and libm's cos and sin within 4 ulps (relative error 8u), the one
    libm assumption of the package: t is rounded three times (pi, the product, as 2*pi
    is exact, and the quotient), so |t - 2*pi*j/order| < 3.01u * 2*pi < 19u, and every
    entry lies within 19u + sqrt(2)*8u < 64u = _ROOT_ERR of w**j.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    j = np.arange(order)
    roots = np.exp(1j * (2 * np.pi * j / order))
    quarter = 4 * j % order == 0
    roots[quarter] = np.array([1, 1j, -1, -1j])[4 * j[quarter] // order]
    roots.flags.writeable = False
    return roots
