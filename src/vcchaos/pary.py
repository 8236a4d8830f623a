"""Exact base-p positional arithmetic on [0, 1): digits, cells, intervals.

Points are Fractions, digits are exact (no float flooring anywhere), and
every grid allocation is guarded by a cell cap so that a bad rank argument
fails loudly instead of exhausting memory.  This module owns the cap: it is
the one a run sets with run_cell_cap (the CLI's --cell-cap), else the
VCCHAOS_CELL_CAP environment variable, else DEFAULT_CELL_CAP, and every
refusal goes through check_cells, so no caller threads a cap through.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_CELL_CAP = 10_000_000
CELL_CAP_ENV = "VCCHAOS_CELL_CAP"


class RankCapError(ValueError):
    """An operation would materialize more base-p cells than the active cap."""


# the cap of the running command; run_cell_cap resets it when the command
# returns or raises, so a caller that runs several commands in one process
# never sees one command's cap in the next
_run_cap: ContextVar[int | None] = ContextVar("vcchaos_cell_cap", default=None)


def cell_cap() -> int:
    """The cap set by run_cell_cap, else $VCCHAOS_CELL_CAP, else DEFAULT_CELL_CAP."""
    cap = _run_cap.get()
    if cap is not None:
        return cap
    raw = os.environ.get(CELL_CAP_ENV)
    return int(raw) if raw else DEFAULT_CELL_CAP


@contextmanager
def run_cell_cap(limit: int | None):
    """Make limit the cell cap of everything run in the body (None: the environment's)."""
    token = _run_cap.set(limit)
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


def digits_of_point(x: Fraction | int, p: int, count: int) -> tuple[int, ...]:
    """First `count` base-p digits of x in [0, 1), terminating expansion.

    Digit j equals floor(x * p**(j+1)) mod p; computed by exact rational
    long division, so base-p rationals always get the expansion that ends
    in zeros rather than the one ending in (p-1)s.
    """
    if p < 2:
        raise ValueError(f"base must be >= 2, got {p}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError(f"point must lie in [0, 1), got {x}")
    digits = []
    for _ in range(count):
        x *= p
        d = int(x)
        digits.append(d)
        x -= d
    return tuple(digits)


def digits_of_integer(n: int, p: int) -> tuple[int, ...]:
    """Base-p digits of n >= 0, least significant first; n = 0 gives ()."""
    if p < 2:
        raise ValueError(f"base must be >= 2, got {p}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    digits = []
    while n:
        n, r = divmod(n, p)
        digits.append(r)
    return tuple(digits)


def digit_count(n: int, p: int) -> int:
    """Number of base-p digits of n (0 for n = 0)."""
    return len(digits_of_integer(n, p))


def nonzero_digit_count(n: int, p: int) -> int:
    return sum(1 for d in digits_of_integer(n, p) if d)


def point_from_digits(digits, p: int) -> Fraction:
    """Exact value of sum(digits[j] * p**-(j+1))."""
    acc = Fraction(0)
    scale = Fraction(1, p)
    for d in digits:
        if not 0 <= d < p:
            raise ValueError(f"digit {d} out of range for base {p}")
        acc += d * scale
        scale /= p
    return acc


def digitwise_add(a: int, b: int, p: int) -> int:
    """Carry-free digitwise sum mod p of two nonnegative integers."""
    if a < 0 or b < 0:
        raise ValueError("operands must be nonnegative")
    result = 0
    scale = 1
    while a or b:
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        result += ((da + db) % p) * scale
        scale *= p
    return result


def digitwise_neg(a: int, p: int) -> int:
    """Digitwise negation mod p: digitwise_add(a, digitwise_neg(a, p), p) == 0."""
    result = 0
    scale = 1
    while a:
        a, da = divmod(a, p)
        result += ((-da) % p) * scale
        scale *= p
    return result


def digitwise_sub(a: int, b: int, p: int) -> int:
    return digitwise_add(a, digitwise_neg(b, p), p)


@dataclass(frozen=True)
class PAryInterval:
    """Half-open interval [m * p**-k, (m+1) * p**-k) of rank k in base p."""

    p: int
    rank: int
    position: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"base must be >= 2, got {self.p}")
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if not 0 <= self.position < self.p**self.rank:
            raise ValueError(
                f"position {self.position} out of range for rank {self.rank}"
            )

    def endpoints(self) -> tuple[Fraction, Fraction]:
        scale = Fraction(1, self.p**self.rank)
        return self.position * scale, (self.position + 1) * scale

    def measure(self) -> Fraction:
        return Fraction(1, self.p**self.rank)

    def contains(self, x) -> bool:
        lo, hi = self.endpoints()
        return lo <= Fraction(x) < hi
