"""Exact algebra of base-p step functions on [0, 1) and unions of base-p cells.

A StepFn keeps its cell values in one CycloArray, one row per cell with a
common order and denominator (rationals are order-1 values), so pointwise
operations, integrals, even-q norms, level sets and distributions are
whole-array integer operations and exact.  PArySet stores a union of rank-k
cells as a bitmask and always keeps the canonical minimal-rank form, which
makes set equality structural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .cyclo import CycloArray
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

    def refine(self, new_rank: int) -> "StepFn":
        """Same function on the finer rank-new_rank grid (values replicated)."""
        if new_rank < self.rank:
            raise ValueError(f"cannot refine rank {self.rank} down to {new_rank}")
        if new_rank == self.rank:
            return self
        check_rank(self.p, new_rank)
        return StepFn(self.p, new_rank, self.values.repeat(self.p ** (new_rank - self.rank)))

    def _aligned(self, other) -> tuple[int, CycloArray, object]:
        """Values on the finer operand's existing grid; a number or one-row CycloArray passes through."""
        if not isinstance(other, StepFn):
            return self.rank, self.values, other
        if self.p != other.p:
            raise ValueError(f"base mismatch: {self.p} vs {other.p}")
        rank = max(self.rank, other.rank)
        a, b = (f.values.repeat(self.p ** (rank - f.rank)) for f in (self, other))
        return rank, a, b

    def eval_at(self, x) -> CycloArray:
        x = Fraction(x)
        if not 0 <= x < 1:
            raise ValueError(f"point must lie in [0, 1), got {x}")
        return self.values[int(x * self.p**self.rank)]

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


@dataclass(frozen=True)
class Distribution:
    """Law of a step function: exact value -> exact measure, measures sum to 1."""

    entries: tuple[tuple[CycloArray, Fraction], ...]

    def __post_init__(self):
        total = sum((m for _, m in self.entries), Fraction(0))
        if total != 1:
            raise ValueError(f"measures must sum to 1, got {total}")
        if any(m <= 0 for _, m in self.entries):
            raise ValueError("measures must be positive")

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
    def empty(cls, p: int) -> "PArySet":
        return cls(p, 0, 0)

    @classmethod
    def full(cls, p: int) -> "PArySet":
        return cls(p, 0, 1)

    @classmethod
    def from_cells(cls, p: int, rank: int, cells: Iterable[int]) -> "PArySet":
        mask = 0
        for m in cells:
            mask |= 1 << m
        return cls(p, rank, mask)

    @classmethod
    def from_interval(cls, p: int, lo, hi) -> "PArySet":
        """[lo, hi) for base-p rational endpoints in [0, 1]."""
        lo, hi = Fraction(lo), Fraction(hi)
        if not 0 <= lo <= hi <= 1:
            raise ValueError("need 0 <= lo <= hi <= 1")
        rank = max(_pary_exponent(lo.denominator, p), _pary_exponent(hi.denominator, p))
        scale = check_rank(p, rank)
        a, b = int(lo * scale), int(hi * scale)
        return cls(p, rank, ((1 << (b - a)) - 1) << a)

    # -- views ----------------------------------------------------------------

    def mask_at_rank(self, rank: int) -> int:
        if rank < self.rank:
            raise ValueError(f"cannot view rank {self.rank} set at coarser rank {rank}")
        if rank == self.rank:
            return self.mask
        check_rank(self.p, rank)
        reps = self.p ** (rank - self.rank)
        block = (1 << reps) - 1
        out = 0
        mask = self.mask
        while mask:
            low = mask & -mask
            m = low.bit_length() - 1
            out |= block << (m * reps)
            mask ^= low
        return out

    def cells(self) -> list[int]:
        out = []
        mask = self.mask
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def measure(self) -> Fraction:
        return Fraction(self.mask.bit_count(), self.p**self.rank)

    def contains_point(self, x) -> bool:
        x = Fraction(x)
        if not 0 <= x < 1:
            raise ValueError(f"point must lie in [0, 1), got {x}")
        return bool((self.mask >> int(x * self.p**self.rank)) & 1)

    def to_intervals(self) -> list[tuple[Fraction, Fraction]]:
        scale = Fraction(1, self.p**self.rank)
        out: list[tuple[Fraction, Fraction]] = []
        for m in self.cells():
            lo, hi = m * scale, (m + 1) * scale
            if out and out[-1][1] == lo:
                out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
        return out

    def indicator(self) -> StepFn:
        bits = _mask_bits(self.mask, self.p**self.rank)
        return StepFn(self.p, self.rank, CycloArray.from_values([0, 1])[bits])

    # -- boolean algebra -------------------------------------------------------

    def _aligned(self, other: "PArySet") -> tuple[int, int, int]:
        if self.p != other.p:
            raise ValueError(f"base mismatch: {self.p} vs {other.p}")
        rank = max(self.rank, other.rank)
        return rank, self.mask_at_rank(rank), other.mask_at_rank(rank)

    def union(self, other: "PArySet") -> "PArySet":
        rank, a, b = self._aligned(other)
        return PArySet(self.p, rank, a | b)

    def intersect(self, other: "PArySet") -> "PArySet":
        rank, a, b = self._aligned(other)
        return PArySet(self.p, rank, a & b)

    def difference(self, other: "PArySet") -> "PArySet":
        rank, a, b = self._aligned(other)
        return PArySet(self.p, rank, a & ~b)

    def complement(self) -> "PArySet":
        full = (1 << self.p**self.rank) - 1
        return PArySet(self.p, self.rank, full & ~self.mask)

    __or__ = union
    __and__ = intersect
    __sub__ = difference
    __invert__ = complement

    def translate_mod1(self, shift) -> "PArySet":
        """The set {x - shift mod 1}; shift must be a base-p rational."""
        shift = Fraction(shift) % 1
        j = _pary_exponent(shift.denominator, self.p)
        rank = max(self.rank, j)
        cells = check_rank(self.p, rank)
        t = int(shift * cells)
        mask = self.mask_at_rank(rank)
        if t:
            mask = ((mask >> t) | (mask << (cells - t))) & ((1 << cells) - 1)
        return PArySet(self.p, rank, mask)

    def __eq__(self, other):
        if not isinstance(other, PArySet):
            return NotImplemented
        return (self.p, self.rank, self.mask) == (other.p, other.rank, other.mask)

    def __hash__(self):
        return hash((self.p, self.rank, self.mask))

    def __repr__(self):
        spans = ", ".join(f"[{lo}, {hi})" for lo, hi in self.to_intervals())
        return f"PArySet(p={self.p}: {spans or 'empty'})"


def _pary_exponent(denominator: int, p: int) -> int:
    """Minimal k with denominator dividing p**k (base-p rationals only).

    Reduced fractions can have denominators that divide a power of a
    composite base without being one (3/5 in base 10), so peel gcd factors.
    """
    k = 0
    d = denominator
    while d > 1:
        g = math.gcd(d, p)
        if g == 1:
            raise ValueError(f"1/{denominator} is not a base-{p} rational")
        d //= g
        k += 1
    return k


def at_least_two(sets: Sequence[PArySet]) -> PArySet:
    """Points belonging to at least two of the given sets."""
    if len(sets) < 2:
        raise ValueError("need at least two sets")
    p = sets[0].p
    if any(s.p != p for s in sets):
        raise ValueError("all sets must share the base")
    rank = max(s.rank for s in sets)
    once = 0
    twice = 0
    for s in sets:
        m = s.mask_at_rank(rank)
        twice |= once & m
        once |= m
    return PArySet(p, rank, twice)
