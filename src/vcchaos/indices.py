"""Index sets of the base-p chaos systems.

Four families over the base-p digits of n (all exclude n = 0):

  unit chaos      at most d nonzero digits, every nonzero digit equal to 1
  full chaos      at most d nonzero digits, values free in 1..p-1
  exact weight    exactly s nonzero digits, values free in 1..p-1
  digit pattern   exactly s nonzero digits, the digit at each nonzero
                  position k forced to pattern[k]

Each family is one rule, IndexSpec.digits_at (the nonzero digits position k
may hold) and IndexSpec.weights (the allowed counts of nonzero digits), that
membership, enumeration and the multiplicity check read.  Members are
generated combinatorially (positions, then values), so enumeration cost
scales with the member count rather than with the range.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, product
from typing import Iterator, Sequence

import numpy as np

from .pary import check_cells, digit_array, digit_count, integer_array


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

    def digits_at(self, k: int) -> Sequence[int]:
        """The nonzero digits a member may hold at base-p position k."""
        if self.kind is IndexKind.UNIT_CHAOS:
            return (1,)
        if self.kind is IndexKind.DIGIT_PATTERN:
            return self.pattern[k : k + 1]
        return range(1, self.p)

    def weights(self) -> range:
        """The allowed counts of nonzero digits."""
        chaos = self.kind in (IndexKind.UNIT_CHAOS, IndexKind.FULL_CHAOS)
        return range(1 if chaos else self.order, self.order + 1)


def unit_chaos(p: int, d: int) -> IndexSpec:
    return IndexSpec(IndexKind.UNIT_CHAOS, p, d)


def full_chaos(p: int, d: int) -> IndexSpec:
    return IndexSpec(IndexKind.FULL_CHAOS, p, d)


def exact_weight(p: int, s: int) -> IndexSpec:
    return IndexSpec(IndexKind.EXACT_WEIGHT, p, s)


def digit_pattern(p: int, s: int, pattern) -> IndexSpec:
    return IndexSpec(IndexKind.DIGIT_PATTERN, p, s, tuple(pattern))


def member_mask(spec: IndexSpec, values) -> np.ndarray:
    """Which of the integers `values` are members of spec, as a bool array of their shape.

    Each rule is asked once per digit count (spec.weights()) and once per
    (position k, digit value present) (spec.digits_at(k)), then looked up.
    """
    values = integer_array(values)
    positive = values >= 1
    digits = digit_array(np.where(positive, values, 0), spec.p)
    length = digits.shape[-1]
    # the distinct digits, sorted; np.unique would load numpy.ma, about 10 ms a process
    ordered = np.sort(digits, axis=None)
    present = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
    held = [spec.digits_at(k) for k in range(length)]
    allowed = np.array([[v == 0 or v in row for v in present.tolist()] for row in held], dtype=bool)
    allowed = allowed.reshape(length, len(present))
    digits_ok = allowed[np.arange(length), np.searchsorted(present, digits)].all(axis=-1)
    weights = spec.weights()
    by_weight = np.array([s in weights for s in range(length + 1)])
    return positive & digits_ok & by_weight[(digits != 0).sum(axis=-1)]


def contains(spec: IndexSpec, n: int) -> bool:
    """Whether n >= 1 is a member of spec: member_mask applied to one element.

    That runs the whole array kernel for one value: 55-70 us a call on
    vtilde (3, 2) on a 2-core Xeon, against about 3 us for a per-digit loop.
    A caller with many indices should pass them to member_mask as one array.
    """
    if n < 1:
        raise ValueError(f"index sets contain positive integers only, got {n}")
    return bool(member_mask(spec, n))


def iter_members(spec: IndexSpec, upper: int) -> Iterator[int]:
    """Members of spec in [1, upper], combinatorially generated, unordered."""
    if upper < 1:
        return
    p = spec.p
    top = digit_count(upper, p) - 1
    # each position's place values v * p**k, one per digit it may hold
    terms = [[v * p**k for v in spec.digits_at(k)] for k in range(top + 1)]
    terms = [values for values in terms if values]
    weights = spec.weights()
    # no member has more nonzero digits than there are positions (capped: a huge order overflows)
    for s in range(weights.start, min(weights.stop, len(terms) + 1)):
        for combo in combinations(terms, s):
            for parts in product(*combo):
                n = sum(parts)
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
    the disjoint union of the exact-weight sets with s = 1..d.  Every
    pattern set's members are counted, so a member outside the exact-weight
    set fails the check too.
    """
    if not p ** top <= upper < p ** (top + 1):
        raise ValueError(f"need p**top <= upper < p**(top+1), got {upper}")
    hits = Counter()
    for pattern in product(range(1, p), repeat=top + 1):
        hits.update(iter_members(digit_pattern(p, s, pattern), upper))
    members = enumerate_members(exact_weight(p, s), upper)
    if hits != dict.fromkeys(members, (p - 1) ** (top + 1 - s)):
        return False
    # partition: full chaos of every order d <= top+1 splits by exact weight
    for d in range(1, top + 2):
        full = enumerate_members(full_chaos(p, d), upper)
        pieces = [enumerate_members(exact_weight(p, t), upper) for t in range(1, d + 1)]
        merged = sorted(n for piece in pieces for n in piece)
        if merged != full or len(set(merged)) != len(merged):
            return False
    return True
