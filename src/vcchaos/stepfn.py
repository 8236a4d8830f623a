"""Exact algebra of base-p step functions on [0, 1) and unions of base-p cells.

StepFn values are CycloValue elements (rationals are order-1 values), so all
pointwise operations, integrals and even-q norms are exact.  PArySet stores a
union of rank-k cells as a bitmask and always keeps the canonical minimal-rank
form, which makes set equality structural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .cyclo import CycloValue
from .pary import check_rank


def _common_order(values) -> int:
    order = 1
    for v in values:
        order = math.lcm(order, v.order)
    return order


class StepFn:
    """Function on [0, 1) constant on each base-p cell of a fixed rank."""

    __slots__ = ("p", "rank", "values")

    def __init__(self, p: int, rank: int, values, cap: int | None = None):
        cells = check_rank(p, rank, cap)
        vals = [CycloValue.coerce(v) for v in values]
        if len(vals) != cells:
            raise ValueError(f"need {cells} cell values, got {len(vals)}")
        order = _common_order(vals)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "values", tuple(v.promote(order) for v in vals))

    def __setattr__(self, name, value):
        raise AttributeError("StepFn is immutable")

    @classmethod
    def constant(cls, p: int, value, rank: int = 0) -> "StepFn":
        return cls(p, rank, [value] * p**rank)

    @property
    def value_order(self) -> int:
        return self.values[0].order if self.values else 1

    # -- structure ---------------------------------------------------------

    def refine(self, new_rank: int, cap: int | None = None) -> "StepFn":
        """Same function on the finer rank-new_rank grid (values replicated)."""
        if new_rank < self.rank:
            raise ValueError(f"cannot refine rank {self.rank} down to {new_rank}")
        if new_rank == self.rank:
            return self
        check_rank(self.p, new_rank, cap)
        reps = self.p ** (new_rank - self.rank)
        values = [self.values[m // reps] for m in range(len(self.values) * reps)]
        return StepFn(self.p, new_rank, values, cap)

    def _aligned(self, other: "StepFn") -> tuple["StepFn", "StepFn"]:
        if self.p != other.p:
            raise ValueError(f"base mismatch: {self.p} vs {other.p}")
        rank = max(self.rank, other.rank)
        return self.refine(rank), other.refine(rank)

    def eval_at(self, x) -> CycloValue:
        x = Fraction(x)
        if not 0 <= x < 1:
            raise ValueError(f"point must lie in [0, 1), got {x}")
        return self.values[int(x * self.p**self.rank)]

    # -- pointwise ring ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, StepFn):
            a, b = self._aligned(other)
            return StepFn(a.p, a.rank, [x + y for x, y in zip(a.values, b.values)])
        return StepFn(self.p, self.rank, [v + other for v in self.values])

    __radd__ = __add__

    def __neg__(self):
        return StepFn(self.p, self.rank, [-v for v in self.values])

    def __sub__(self, other):
        if isinstance(other, StepFn):
            return self + (-other)
        return StepFn(self.p, self.rank, [v - other for v in self.values])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, StepFn):
            a, b = self._aligned(other)
            return StepFn(a.p, a.rank, [x * y for x, y in zip(a.values, b.values)])
        return StepFn(self.p, self.rank, [v * other for v in self.values])

    __rmul__ = __mul__

    def scale(self, q) -> "StepFn":
        return StepFn(self.p, self.rank, [v.scale(q) for v in self.values])

    def conj(self) -> "StepFn":
        return StepFn(self.p, self.rank, [v.conj() for v in self.values])

    def __pow__(self, exponent: int) -> "StepFn":
        return StepFn(self.p, self.rank, [v**exponent for v in self.values])

    def __eq__(self, other):
        if not isinstance(other, StepFn):
            return NotImplemented
        if self.p != other.p:
            return False
        a, b = self._aligned(other)
        return all((x - y).is_zero() for x, y in zip(a.values, b.values))

    __hash__ = None

    # -- integrals and norms -------------------------------------------------

    def integral(self) -> CycloValue:
        total = CycloValue.zero(self.value_order)
        for v in self.values:
            total = total + v
        return total.scale(Fraction(1, self.p**self.rank))

    def lq_norm_even_pow(self, q: int) -> Fraction:
        """Exact integral of |f|**q for even q, as a rational.

        Raises if the exact value is irrational (possible for exotic cell
        values; never for expansions with rational coefficients).
        """
        if q < 2 or q % 2:
            raise ValueError(f"q must be a positive even integer, got {q}")
        h = q // 2
        total = CycloValue.zero(self.value_order)
        for v in self.values:
            total = total + v.abs_squared() ** h
        return total.scale(Fraction(1, self.p**self.rank)).as_rational()

    def lq_norm_float(self, q: float) -> tuple[float, float]:
        """(norm, error bound) for general q >= 1 via float evaluation."""
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        cells = self.p**self.rank
        total = 0.0
        err = 0.0
        for v in self.values:
            z, e = v.eval_complex()
            a = abs(z)
            total += a**q
            # |(a+e)^q - a^q| <= q * (a+e)^(q-1) * e, plus summation slop
            err += q * (a + e) ** max(q - 1, 0.0) * e
        err += cells * 2.0**-50 * (total + 1e-300)
        mean = total / cells
        mean_err = err / cells
        norm = mean ** (1.0 / q)
        if mean > 0:
            norm_err = norm * ((1 + mean_err / mean) ** (1.0 / q) - 1) + math.ulp(norm) * 4
        else:
            norm_err = mean_err ** (1.0 / q)
        return norm, norm_err

    def lq_norm(self, q):
        """Exact rational |f|**q integral for even integer q, float norm otherwise."""
        if isinstance(q, int) and q >= 2 and q % 2 == 0:
            return self.lq_norm_even_pow(q)
        return self.lq_norm_float(q)[0]

    # -- level sets and distribution ----------------------------------------

    def level_set(self, target) -> "PArySet":
        target = CycloValue.coerce(target)
        mask = 0
        for m, v in enumerate(self.values):
            if (v - target).is_zero():
                mask |= 1 << m
        return PArySet(self.p, self.rank, mask)

    def zero_set(self) -> "PArySet":
        return self.level_set(0)

    def distribution(self) -> "Distribution":
        groups: dict[tuple, list] = {}
        for v in self.values:
            groups.setdefault(v.canonical_key(), [v, 0])[1] += 1
        cells = self.p**self.rank
        entries = [
            (rep, Fraction(count, cells))
            for rep, count in (groups[k] for k in sorted(groups))
        ]
        return Distribution(tuple(entries))

    def __repr__(self):
        return f"StepFn(p={self.p}, rank={self.rank}, cells={len(self.values)})"


@dataclass(frozen=True)
class Distribution:
    """Law of a step function: exact value -> exact measure, measures sum to 1."""

    entries: tuple[tuple[CycloValue, Fraction], ...]

    def __post_init__(self):
        total = sum((m for _, m in self.entries), Fraction(0))
        if total != 1:
            raise ValueError(f"measures must sum to 1, got {total}")
        if any(m <= 0 for _, m in self.entries):
            raise ValueError("measures must be positive")

    def _keyed(self) -> dict[tuple, Fraction]:
        order = _common_order([v for v, _ in self.entries])
        return {v.promote(order).canonical_key(): m for v, m in self.entries}

    def measure_of(self, value) -> Fraction:
        value = CycloValue.coerce(value)
        order = _common_order([v for v, _ in self.entries] + [value])
        table = {v.promote(order).canonical_key(): m for v, m in self.entries}
        return table.get(value.promote(order).canonical_key(), Fraction(0))

    def is_symmetric(self) -> bool:
        """True iff the law is invariant under negation.  Values must be real."""
        for v, _ in self.entries:
            if not v.is_real():
                raise ValueError("symmetry is defined for real-valued laws only")
        table = self._keyed()
        order = _common_order([v for v, _ in self.entries])
        for v, m in self.entries:
            if table.get((-v.promote(order)).canonical_key()) != m:
                return False
        return True

    def mean(self) -> CycloValue:
        total = CycloValue.zero()
        for v, m in self.entries:
            total = total + v.scale(m)
        return total

    def support_size(self) -> int:
        return len(self.entries)


class PArySet:
    """Finite union of base-p cells, kept in canonical minimal-rank form."""

    __slots__ = ("p", "rank", "mask")

    def __init__(self, p: int, rank: int, mask: int, cap: int | None = None):
        cells = check_rank(p, rank, cap)
        if mask < 0 or mask >> cells:
            raise ValueError("mask has bits outside the rank-k grid")
        while rank > 0:
            reduced = self._try_reduce(p, rank, mask)
            if reduced is None:
                break
            rank, mask = rank - 1, reduced
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("PArySet is immutable")

    @staticmethod
    def _try_reduce(p: int, rank: int, mask: int) -> int | None:
        block = (1 << p) - 1
        parents = p ** (rank - 1)
        out = 0
        for j in range(parents):
            bits = (mask >> (j * p)) & block
            if bits == block:
                out |= 1 << j
            elif bits:
                return None
        return out

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, p: int) -> "PArySet":
        return cls(p, 0, 0)

    @classmethod
    def full(cls, p: int) -> "PArySet":
        return cls(p, 0, 1)

    @classmethod
    def from_cells(
        cls, p: int, rank: int, cells: Iterable[int], cap: int | None = None
    ) -> "PArySet":
        mask = 0
        for m in cells:
            mask |= 1 << m
        return cls(p, rank, mask, cap)

    @classmethod
    def from_interval(cls, p: int, lo, hi) -> "PArySet":
        """[lo, hi) for base-p rational endpoints in [0, 1]."""
        lo, hi = Fraction(lo), Fraction(hi)
        if not 0 <= lo <= hi <= 1:
            raise ValueError("need 0 <= lo <= hi <= 1")
        rank = max(_pary_exponent(lo.denominator, p), _pary_exponent(hi.denominator, p))
        scale = p**rank
        mask = 0
        for m in range(int(lo * scale), int(hi * scale)):
            mask |= 1 << m
        return cls(p, rank, mask)

    # -- views ----------------------------------------------------------------

    def mask_at_rank(self, rank: int) -> int:
        if rank < self.rank:
            raise ValueError(f"cannot view rank {self.rank} set at coarser rank {rank}")
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
        mask = self.mask
        return StepFn(
            self.p, self.rank, [(mask >> m) & 1 for m in range(self.p**self.rank)]
        )

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
        cells = self.p**rank
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
