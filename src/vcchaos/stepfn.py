"""Exact algebra of base-p step functions on [0, 1) and unions of base-p cells.

A StepFn keeps its cell values in one CycloArray, one row per cell with a
common order and denominator (rationals are order-1 values), so pointwise
operations, integrals, even-q norms, level sets and distributions are
whole-array integer operations and exact.  PArySet stores a union of rank-k
cells as an integer bitmask (cell m at bit m) and always keeps the canonical
minimal-rank form, which makes set equality structural.  Every view of a mask
(its cells, its mask at a finer rank, its indicator) unpacks the bits once
into a numpy array, so each view is linear in the cell count; overlap_counts
counts twice-covered cells of whole families of sets as one 0/1 array.  Two
lemmas that verify checks are built from these types: symmetric_decomposition
splits Re(R_k**j) into symmetric step functions, and independence_check
tests the product rule for functions of distinct digits.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .cyclo import CycloArray, root_of_unity
from .pary import check_rank


def _mask_bits(mask: int, cells: int) -> np.ndarray:
    """The low `cells` bits of a cell mask as a 0/1 array, cell 0 first."""
    raw = np.frombuffer(mask.to_bytes(cells // 8 + 1, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=cells, bitorder="little")


def _bits_mask(bits: np.ndarray) -> int:
    """The cell mask of a 0/1 (or bool) array, cell 0 first."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


class StepFn:
    """Function on [0, 1) constant on each base-p cell of a fixed rank."""

    __slots__ = ("p", "rank", "values")

    def __init__(self, p: int, rank: int, values):
        cells = check_rank(p, rank)
        values = CycloArray.from_values(values)
        if len(values) != cells:
            raise ValueError(f"need {cells} cell values, got {len(values)}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("StepFn is immutable")

    @classmethod
    def constant(cls, p: int, value, rank: int = 0) -> "StepFn":
        return cls(p, rank, CycloArray.from_values([value]).repeat(check_rank(p, rank)))

    # -- structure ---------------------------------------------------------

    def _aligned(self, other) -> tuple[int, CycloArray, object]:
        """Values on the finer operand's existing grid; a number or one-row CycloArray passes through."""
        if not isinstance(other, StepFn):
            return self.rank, self.values, other
        if self.p != other.p:
            raise ValueError(f"base mismatch: {self.p} vs {other.p}")
        rank = max(self.rank, other.rank)
        a, b = (f.values.repeat(self.p ** (rank - f.rank)) for f in (self, other))
        return rank, a, b

    # -- pointwise ring ----------------------------------------------------

    def __add__(self, other):
        rank, a, b = self._aligned(other)
        return StepFn(self.p, rank, a + b)

    __radd__ = __add__

    def __neg__(self):
        return StepFn(self.p, self.rank, -self.values)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        rank, a, b = self._aligned(other)
        return StepFn(self.p, rank, a * b)

    __rmul__ = __mul__

    def scale(self, q) -> "StepFn":
        return StepFn(self.p, self.rank, self.values.scale(q))

    def conj(self) -> "StepFn":
        return StepFn(self.p, self.rank, self.values.conj())

    def __pow__(self, exponent: int) -> "StepFn":
        return StepFn(self.p, self.rank, self.values**exponent)

    def __eq__(self, other):
        if not isinstance(other, StepFn):
            return NotImplemented
        if self.p != other.p:
            return False
        _, a, b = self._aligned(other)
        return a == b

    __hash__ = None

    # -- integrals and norms -------------------------------------------------

    def integral(self) -> CycloArray:
        return self.values.sum().scale(Fraction(1, self.p**self.rank))

    def lq_norm_even_pow(self, q: int) -> Fraction:
        """Exact integral of |f|**q for even q, as a rational.

        Raises if the exact value is irrational (possible for exotic cell
        values; never for expansions with rational coefficients).
        """
        if q < 2 or q % 2:
            raise ValueError(f"q must be a positive even integer, got {q}")
        return ((self * self.conj()) ** (q // 2)).integral().rationals()[0]

    # -- level sets and distribution ----------------------------------------

    def level_set(self, target) -> "PArySet":
        hits = (self.values - target).is_zero()
        return PArySet(self.p, self.rank, _bits_mask(hits))

    def distribution(self) -> "Distribution":
        groups: dict[tuple, list] = {}
        for i, key in enumerate(map(tuple, self.values.keys().tolist())):
            groups.setdefault(key, [i, 0])[1] += 1
        cells = len(self.values)
        entries = [
            (self.values[i], Fraction(count, cells))
            for i, count in (groups[k] for k in sorted(groups))
        ]
        return Distribution(tuple(entries))

    def __repr__(self):
        return f"StepFn(p={self.p}, rank={self.rank}, cells={len(self.values)})"


class Distribution:
    """Law of a step function: exact value -> exact measure, measures sum to 1."""

    def __init__(self, entries: tuple[tuple[CycloArray, Fraction], ...]):
        total = sum((m for _, m in entries), Fraction(0))
        if total != 1:
            raise ValueError(f"measures must sum to 1, got {total}")
        if any(m <= 0 for _, m in entries):
            raise ValueError("measures must be positive")
        self.entries = entries

    def measure_of(self, value) -> Fraction:
        values = CycloArray.from_values([v for v, _ in self.entries] + [value])
        *keys, key = map(tuple, values.keys().tolist())
        return dict(zip(keys, (m for _, m in self.entries))).get(key, Fraction(0))

    def is_symmetric(self) -> bool:
        """True iff the law is invariant under negation.  Values must be real."""
        values = CycloArray.from_values(v for v, _ in self.entries)
        if values != values.conj():
            raise ValueError("symmetry is defined for real-valued laws only")
        keys = values.keys()
        measures = [m for _, m in self.entries]
        table = dict(zip(map(tuple, keys.tolist()), measures))
        return all(table.get(k) == m for k, m in zip(map(tuple, (-keys).tolist()), measures))


class PArySet:
    """Finite union of base-p cells, kept in canonical minimal-rank form."""

    __slots__ = ("p", "rank", "mask")

    def __init__(self, p: int, rank: int, mask: int):
        cells = check_rank(p, rank)
        if mask < 0 or mask >> cells:
            raise ValueError("mask has bits outside the rank-k grid")
        rank, mask = self._reduce(p, rank, mask)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("PArySet is immutable")

    @staticmethod
    def _reduce(p: int, rank: int, mask: int) -> tuple[int, int]:
        """The coarsest (rank, mask) of the same set.

        Cells merge into their parent while every parent's p children agree,
        i.e. while the mask equals its parents' first bits each copied p times.
        Each rank merged costs a few passes over the mask, so this is linear
        in the cells.
        """
        ones = (1 << p) - 1
        while rank > 0:
            cells = p**rank
            firsts = mask & (((1 << cells) - 1) // ones)  # bit j * p of each parent j
            if firsts * ones != mask:
                break
            mask, rank = _bits_mask(_mask_bits(firsts, cells)[::p]), rank - 1
        return rank, mask

    # -- constructors --------------------------------------------------------

    @classmethod
    def full(cls, p: int) -> "PArySet":
        return cls(p, 0, 1)

    @classmethod
    def from_cells(cls, p: int, rank: int, cells: Iterable[int]) -> "PArySet":
        mask = 0
        for m in cells:
            mask |= 1 << m
        return cls(p, rank, mask)

    # -- views ----------------------------------------------------------------

    def mask_at_rank(self, rank: int) -> int:
        if rank < self.rank:
            raise ValueError(f"cannot view rank {self.rank} set at coarser rank {rank}")
        if rank == self.rank:
            return self.mask
        check_rank(self.p, rank)
        bits = _mask_bits(self.mask, self.p**self.rank)
        return _bits_mask(np.repeat(bits, self.p ** (rank - self.rank)))

    def cells(self) -> list[int]:
        return np.flatnonzero(_mask_bits(self.mask, self.p**self.rank)).tolist()

    def measure(self) -> Fraction:
        return Fraction(self.mask.bit_count(), self.p**self.rank)

    def indicator(self) -> StepFn:
        bits = _mask_bits(self.mask, self.p**self.rank)
        return StepFn(self.p, self.rank, CycloArray.from_values([0, 1])[bits])

    def __eq__(self, other):
        if not isinstance(other, PArySet):
            return NotImplemented
        return (self.p, self.rank, self.mask) == (other.p, other.rank, other.mask)

    def __hash__(self):
        return hash((self.p, self.rank, self.mask))

    def __repr__(self):
        return f"PArySet(p={self.p}, rank={self.rank}, cells={self.cells()})"


def overlap_counts(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|H|, a) per family of a (..., sets, cells) 0/1 array, as int64 arrays of shape `...`.

    |H| counts the cells in two or more sets and a the smallest set's cells:
    the two counts of the pair-overlap bound (p - 1) |H| >= p a - N.
    """
    covered = bits.sum(axis=-2, dtype=np.min_scalar_type(bits.shape[-2]))
    return (covered >= 2).sum(axis=-1), bits.sum(axis=-1, dtype=np.int64).min(axis=-1)


# -- symmetric decomposition and independence ---------------------------------


def symmetric_decomposition(p: int, k: int, j: int) -> list[StepFn]:
    """The p-1 symmetric pieces whose sum is Re(R_k**j), exactly.

    Piece m (m = 1..p-1) takes the value cos(2*pi*m*j/p) on cells with k-th
    digit m, minus the same value on cells with k-th digit 0, and 0 elsewhere;
    cosines are stored exactly as (w**(mj) + w**(-mj)) / 2.
    """
    if not 1 <= j <= p - 1:
        raise ValueError(f"power must lie in 1..{p - 1}, got {j}")
    digits = np.arange(check_rank(p, k + 1)) % p
    pieces = []
    for m in range(1, p):
        cos_m = root_of_unity(p, m * j).real_part()
        # row 1 (cos_m) where the digit is m, row 2 (-cos_m) where it is 0, else row 0
        rows = np.select([digits == m, digits == 0], [1, 2])
        values = CycloArray.from_values([0, cos_m, -cos_m])[rows]
        pieces.append(StepFn(p, k + 1, values))
    return pieces


def independence_check(p: int, tables: Sequence[Sequence[object]]) -> bool:
    """Exhaustively verify the product rule for digit-functions f_k(x) = g_k(x_k).

    For every combination of attainable values (e_0, ..., e_n) the joint
    measure mu{f_k = e_k for all k} must equal the product of the marginal
    measures.  Over the p**(n+1) rank-(n+1) cells both are integer counts
    times p**-(n+1): the joint count of cells against the product of the
    digit preimage counts, compared exactly.
    """
    tables = [list(t) for t in tables]
    if any(len(t) != p for t in tables):
        raise ValueError(f"each value table must have exactly {p} entries")
    check_rank(p, len(tables))
    # label each digit by its value's residue key, so equal values share a label
    labels = []
    for table in tables:
        seen: dict[tuple, int] = {}
        keys = map(tuple, CycloArray.from_values(table).keys().tolist())
        labels.append([seen.setdefault(key, len(seen)) for key in keys])
    dims = [max(row) + 1 for row in labels]
    # the joint label of every cell's digits, counted over the whole p**(n+1) grid
    joint = np.bincount(
        np.ravel_multi_index(np.ix_(*labels), dims).ravel(), minlength=math.prod(dims)
    ).reshape(dims)
    marginals = [np.bincount(row) for row in labels]
    return bool((joint == functools.reduce(np.multiply.outer, marginals, 1)).all())
