"""Index sets of the base-p chaos systems.

Four families over the base-p digits of n (all exclude n = 0):

  unit chaos      at most d nonzero digits, every nonzero digit equal to 1
  full chaos      at most d nonzero digits, values free in 1..p-1
  exact weight    exactly s nonzero digits, values free in 1..p-1
  digit pattern   exactly s nonzero digits, the digit at each nonzero
                  position k forced to pattern[k]

Members are generated combinatorially (choose positions, then values), so
enumeration cost scales with the member count rather than with the range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, product
from typing import Iterator

import numpy as np

from .pary import check_cells, digit_count, digits_of_integer

# pattern_multiplicity_check compares blocks of about this many (pattern, member, digit) entries
_MATCH_ENTRIES = 2**20


class IndexKind(Enum):
    UNIT_CHAOS = "v"
    FULL_CHAOS = "vtilde"
    EXACT_WEIGHT = "wtilde"
    DIGIT_PATTERN = "aset"


@dataclass(frozen=True)
class IndexSpec:
    kind: IndexKind
    p: int
    order: int = 0  # d for the chaos kinds, s for exact weight / pattern
    pattern: tuple[int, ...] = ()

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"base must be >= 2, got {self.p}")
        if self.kind is IndexKind.DIGIT_PATTERN:
            if not self.pattern:
                raise ValueError("digit pattern spec needs a pattern")
            if any(not 1 <= j <= self.p - 1 for j in self.pattern):
                raise ValueError("pattern digits must lie in 1..p-1")
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")

    def describe(self) -> str:
        if self.kind is IndexKind.DIGIT_PATTERN:
            return f"{self.kind.value}(p={self.p}, s={self.order}, pattern={self.pattern})"
        return f"{self.kind.value}(p={self.p}, {self.order})"


def unit_chaos(p: int, d: int) -> IndexSpec:
    return IndexSpec(IndexKind.UNIT_CHAOS, p, d)


def full_chaos(p: int, d: int) -> IndexSpec:
    return IndexSpec(IndexKind.FULL_CHAOS, p, d)


def exact_weight(p: int, s: int) -> IndexSpec:
    return IndexSpec(IndexKind.EXACT_WEIGHT, p, s)


def digit_pattern(p: int, s: int, pattern) -> IndexSpec:
    return IndexSpec(IndexKind.DIGIT_PATTERN, p, s, tuple(pattern))


def contains(spec: IndexSpec, n: int) -> bool:
    if n < 1:
        raise ValueError(f"index sets contain positive integers only, got {n}")
    digits = digits_of_integer(n, spec.p)
    support = [(k, d) for k, d in enumerate(digits) if d]
    weight = len(support)
    if spec.kind is IndexKind.UNIT_CHAOS:
        return weight <= spec.order and all(d == 1 for _, d in support)
    if spec.kind is IndexKind.FULL_CHAOS:
        return weight <= spec.order
    if spec.kind is IndexKind.EXACT_WEIGHT:
        return weight == spec.order
    if weight != spec.order:
        return False
    return all(k < len(spec.pattern) and d == spec.pattern[k] for k, d in support)


def iter_members(spec: IndexSpec, upper: int) -> Iterator[int]:
    """Members of spec in [1, upper], combinatorially generated, unordered."""
    if upper < 1:
        return
    p = spec.p
    top = 0
    while p ** (top + 1) <= upper:
        top += 1
    positions = range(top + 1)
    # no member has more nonzero digits than there are positions
    lowest = spec.order if spec.kind is IndexKind.EXACT_WEIGHT else 1
    weights = range(lowest, min(spec.order, top + 1) + 1)
    if spec.kind is IndexKind.UNIT_CHAOS:
        for s in weights:
            for combo in combinations(positions, s):
                n = sum(p**k for k in combo)
                if n <= upper:
                    yield n
        return
    if spec.kind in (IndexKind.FULL_CHAOS, IndexKind.EXACT_WEIGHT):
        for s in weights:
            for combo in combinations(positions, s):
                for values in product(range(1, p), repeat=s):
                    n = sum(v * p**k for k, v in zip(combo, values))
                    if n <= upper:
                        yield n
        return
    allowed = [k for k in positions if k < len(spec.pattern)]
    # a weight above len(allowed) has no combinations (capped: a huge one overflows)
    for combo in combinations(allowed, min(spec.order, len(allowed) + 1)):
        n = sum(spec.pattern[k] * p**k for k in combo)
        if n <= upper:
            yield n


def enumerate_members(spec: IndexSpec, upper: int) -> list[int]:
    """Ascending duplicate-free members of spec in [1, upper]."""
    return sorted(iter_members(spec, upper))


def check_candidates(spec: IndexSpec, upper: int) -> None:
    """Refuse enumerate_members(spec, upper) if the candidates it generates exceed the cell cap.

    iter_members generates every member of at most digit_count(upper) digits,
    then drops those above upper, so a huge upper costs that many candidates
    even when few members survive.
    """
    candidates = count_below_power(spec, digit_count(max(upper, 1), spec.p))
    check_cells(candidates, f"{candidates} candidate members")


def count_below_power(spec: IndexSpec, levels: int) -> int:
    """Closed-form member count below p**levels (digit positions 0..levels-1)."""
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    p = spec.p
    # comb(levels, s) is 0 for s > levels: skipping those weights, a huge order
    # costs at most `levels` terms and never builds (p - 1)**order
    weights = range(1, min(spec.order, levels) + 1)
    if spec.kind is IndexKind.UNIT_CHAOS:
        return sum(math.comb(levels, s) for s in weights)
    if spec.kind is IndexKind.FULL_CHAOS:
        return sum(math.comb(levels, s) * (p - 1) ** s for s in weights)
    if spec.kind is IndexKind.EXACT_WEIGHT:
        return math.comb(levels, spec.order) * (p - 1) ** spec.order if spec.order <= levels else 0
    available = min(levels, len(spec.pattern))
    return math.comb(available, spec.order)


def pattern_multiplicity_check(p: int, s: int, top: int, upper: int) -> bool:
    """Exhaustive check of how exact-weight members spread over digit patterns.

    For p**top <= upper < p**(top+1): every exact-weight-s member n <= upper
    must lie in exactly (p-1)**(top+1-s) of the (p-1)**(top+1) digit-pattern
    sets with pattern length top+1, and the full-chaos set of order d must be
    the disjoint union of the exact-weight sets with s = 1..d.  A member
    (exactly s nonzero digits, all at positions <= top) lies in a pattern's
    set iff each of its nonzero digits equals the pattern's at that position.
    Pattern i has the base-(p-1) digits of i, plus 1, and the members' digits
    are compared with a block of consecutive patterns at a time.
    """
    if not p ** top <= upper < p ** (top + 1):
        raise ValueError(f"need p**top <= upper < p**(top+1), got {upper}")
    members = enumerate_members(exact_weight(p, s), upper)
    digits = np.array([n // p**k % p for n in members for k in range(top + 1)], dtype=np.int64)
    digits = digits.reshape(len(members), top + 1)
    free = digits == 0
    patterns, radix = (p - 1) ** (top + 1), (p - 1) ** np.arange(top + 1, dtype=np.int64)
    hits = np.zeros(len(members), dtype=np.int64)
    block = max(1, _MATCH_ENTRIES // max(digits.size, 1))
    for start in range(0, patterns, block):
        index = np.arange(start, min(start + block, patterns), dtype=np.int64)
        pats = 1 + index[:, None, None] // radix % (p - 1)
        hits += np.all(free | (digits == pats), axis=2).sum(axis=0)
    if (hits != (p - 1) ** (top + 1 - s)).any():
        return False
    # partition: full chaos of every order d <= top+1 splits by exact weight
    for d in range(1, top + 2):
        full = enumerate_members(full_chaos(p, d), upper)
        pieces = [enumerate_members(exact_weight(p, t), upper) for t in range(1, d + 1)]
        merged = sorted(n for piece in pieces for n in piece)
        if merged != full or len(set(merged)) != len(merged):
            return False
    return True
