"""Exact algebra of base-p step functions on [0, 1) and unions of base-p cells.

A StepFn keeps its cell values in one CycloArray, one row per cell with a
common order and denominator (rationals are order-1 values), so pointwise
operations, integrals, even-q norms, level sets and distributions are
whole-array integer operations and exact.  PArySet stores a union of rank-k
cells as one read-only 0/1 array over the cells (cell m at index m) and always
keeps the canonical minimal-rank form, which makes set equality structural.
Every view of a set (its cells, its bits at a finer rank, its measure) reads
that array, so each view is linear in the cell count; overlap_counts counts
twice-covered cells of whole families of sets as one 0/1 array.  Two
lemmas that verify checks are built from these types: symmetric_decomposition
splits Re(R_k**j) into symmetric step functions, all cut from one table of
cosines, and independence_check tests the product rule for functions of
distinct digits.  Every grouping of equal exact values (a law, its symmetry
test, a digit table's labels) reads CycloArray.classes().
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .cyclo import CycloArray
from .pary import check_rank


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
        return PArySet(self.p, self.rank, (self.values - target).is_zero())

    def distribution(self) -> "Distribution":
        """The law, one entry per distinct value in the order of the value's first cell."""
        labels, first = self.values.classes()
        cells = len(self.values)
        counts = np.bincount(labels).tolist()
        return Distribution(
            tuple((self.values[i], Fraction(n, cells)) for i, n in zip(first.tolist(), counts))
        )

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
        labels, _ = CycloArray.from_values([v for v, _ in self.entries] + [value]).classes()
        *known, label = labels.tolist()
        return dict(zip(known, (m for _, m in self.entries))).get(label, Fraction(0))

    def is_symmetric(self) -> bool:
        """True iff the law is invariant under negation.  Values must be real."""
        values = CycloArray.from_values(v for v, _ in self.entries)
        if values != values.conj():
            raise ValueError("symmetry is defined for real-valued laws only")
        # the first len(values) labels are the values', the rest their negations'
        labels = CycloArray.from_values([values, -values]).classes()[0].tolist()
        measures = [m for _, m in self.entries]
        table = dict(zip(labels, measures))
        return all(table.get(k) == m for k, m in zip(labels[len(values) :], measures))


class PArySet:
    """Finite union of base-p cells in canonical minimal-rank form, as read-only uint8 bits."""

    __slots__ = ("p", "rank", "bits")

    def __init__(self, p: int, rank: int, bits):
        cells = check_rank(p, rank)
        bits = np.asarray(bits)
        if bits.shape != (cells,):
            raise ValueError(f"need {cells} cell bits, got shape {bits.shape}")
        if not ((bits == 0) | (bits == 1)).all():
            raise ValueError("cell bits must be 0 or 1")
        bits = bits.astype(np.uint8)
        # cells merge into their parent while all p children agree; each rank merged
        # is one pass over a p-times smaller array, so this is linear in the cells
        while rank > 0 and (bits.reshape(-1, p) == bits[::p, None]).all():
            bits, rank = bits[::p].copy(), rank - 1
        bits.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("PArySet is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_cells(cls, p: int, rank: int, cells: Iterable[int]) -> "PArySet":
        size = check_rank(p, rank)
        cells = list(cells)
        if not all(0 <= m < size for m in cells):
            raise ValueError(f"cells must lie in 0..{size - 1}")
        bits = np.zeros(size, np.uint8)
        bits[cells] = 1
        return cls(p, rank, bits)

    # -- views ----------------------------------------------------------------

    def bits_at_rank(self, rank: int) -> np.ndarray:
        if rank < self.rank:
            raise ValueError(f"cannot view rank {self.rank} set at coarser rank {rank}")
        check_rank(self.p, rank)
        return np.repeat(self.bits, self.p ** (rank - self.rank))

    def cells(self) -> list[int]:
        return np.flatnonzero(self.bits).tolist()

    def measure(self) -> Fraction:
        return Fraction(np.count_nonzero(self.bits), len(self.bits))

    def __eq__(self, other):
        if not isinstance(other, PArySet):
            return NotImplemented
        return (self.p, self.rank) == (other.p, other.rank) and np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash((self.p, self.rank, self.bits.tobytes()))

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
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if not 1 <= j <= p - 1:
        raise ValueError(f"power must lie in 1..{p - 1}, got {j}")
    digits = np.arange(check_rank(p, k + 1)) % p
    cosines = CycloArray.roots(p, j * np.arange(1, p)).real_part()
    # row 0 holds 0, row m the cosine of piece m and row p - 1 + m its negation
    table = CycloArray.from_values([0, cosines, -cosines])
    return [
        StepFn(p, k + 1, table[np.select([digits == m, digits == 0], [m, p - 1 + m])])
        for m in range(1, p)
    ]


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
    # label each digit by its value's class, so equal values share a label
    labels = [CycloArray.from_values(table).classes()[0] for table in tables]
    dims = [int(row.max()) + 1 for row in labels]
    # the joint label of every cell's digits, counted over the whole p**(n+1) grid
    joint = np.bincount(
        np.ravel_multi_index(np.ix_(*labels), dims).ravel(), minlength=math.prod(dims)
    ).reshape(dims)
    marginals = [np.bincount(row) for row in labels]
    return bool((joint == functools.reduce(np.multiply.outer, marginals, 1)).all())
