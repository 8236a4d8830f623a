"""Exact base-p digits of integers, carry-free digitwise sums, and the cell cap.

Digits come from integer division (no float flooring anywhere), and every
grid of base-p cells is guarded by a cell cap so that a bad rank argument
fails loudly instead of exhausting memory.  This module owns the cap: it is
the one a run sets with run_cell_cap (the CLI's --cell-cap), else the
VCCHAOS_CELL_CAP environment variable, else DEFAULT_CELL_CAP, and every
refusal goes through check_cells, so no caller threads a cap through.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar

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
