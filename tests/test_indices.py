import random

import numpy as np
import pytest

from vcchaos.indices import (
    contains,
    count_below_power,
    digit_pattern,
    enumerate_members,
    exact_weight,
    full_chaos,
    iter_members,
    member_mask,
    pattern_multiplicity_check,
    unit_chaos,
)
from vcchaos.pary import digits_of_integer, digitwise_add


def contains_loop(spec, n):
    """The per-index membership test member_mask replaced, kept as its oracle."""
    support = [(k, d) for k, d in enumerate(digits_of_integer(n, spec.p)) if d]
    return len(support) in spec.weights() and all(d in spec.digits_at(k) for k, d in support)


def brute_force_members(spec, upper):
    """Oracle: filter 1..upper by the digit definition directly."""
    out = []
    for n in range(1, upper + 1):
        digits = digits_of_integer(n, spec.p)
        support = [(k, d) for k, d in enumerate(digits) if d]
        s = len(support)
        if spec.kind.value == "v":
            ok = s <= spec.order and all(d == 1 for _, d in support)
        elif spec.kind.value == "vtilde":
            ok = s <= spec.order
        elif spec.kind.value == "wtilde":
            ok = s == spec.order
        else:
            ok = s == spec.order and all(
                k < len(spec.pattern) and d == spec.pattern[k] for k, d in support
            )
        if ok:
            out.append(n)
    return out


def test_contains_examples():
    assert contains(unit_chaos(3, 2), 4)
    assert not contains(unit_chaos(3, 2), 5)
    assert contains(full_chaos(3, 2), 5)
    # for p = 2 the unit and full chaos coincide
    for d in (1, 2, 3):
        for n in range(1, 64):
            assert contains(unit_chaos(2, d), n) == contains(full_chaos(2, d), n)


def test_contains_rejects_zero():
    with pytest.raises(ValueError):
        contains(unit_chaos(2, 1), 0)


def test_enumerate_examples():
    assert enumerate_members(unit_chaos(3, 2), 26) == [1, 3, 4, 9, 10, 12]
    assert len(enumerate_members(full_chaos(3, 2), 26)) == 18
    assert enumerate_members(digit_pattern(3, 1, (1, 2)), 26) == [1, 6]


def test_count_examples():
    assert count_below_power(unit_chaos(3, 2), 3) == 6
    assert count_below_power(full_chaos(3, 2), 3) == 18
    for levels in (1, 2, 3, 4):
        assert count_below_power(unit_chaos(2, levels + 1), levels) == 2**levels - 1


def test_counts_match_enumeration():
    for p in (2, 3, 4, 5):
        for d in (1, 2, 3, 4):
            for levels in range(1, 7):
                if p**levels > 20000:
                    continue
                for spec in (unit_chaos(p, d), full_chaos(p, d)):
                    members = enumerate_members(spec, p**levels - 1)
                    assert len(members) == count_below_power(spec, levels)
                spec = exact_weight(p, d)
                members = enumerate_members(spec, p**levels - 1)
                assert len(members) == count_below_power(spec, levels)


def test_enumeration_matches_brute_force():
    rng = random.Random(5)
    for _ in range(30):
        p = rng.choice([2, 3, 4, 5])
        upper = rng.randint(1, 700)
        d = rng.randint(1, 4)
        pattern = tuple(rng.randint(1, p - 1) for _ in range(rng.randint(1, 4)))
        specs = (
            unit_chaos(p, d),
            full_chaos(p, d),
            exact_weight(p, d),
            digit_pattern(p, min(d, len(pattern)), pattern),
        )
        for spec in specs:
            expected = brute_force_members(spec, upper)
            assert enumerate_members(spec, upper) == expected
            # contains holds on every member and on nothing else
            assert [n for n in range(1, upper + 1) if contains(spec, n)] == expected
            assert [n for n in range(1, upper + 1) if contains_loop(spec, n)] == expected
            mask = member_mask(spec, np.arange(1, upper + 1))
            assert np.flatnonzero(mask).tolist() == [n - 1 for n in expected]


def test_huge_order_counts_and_enumerates_at_once():
    # an order above the digit count behaves like the digit count (or empties
    # the set), without a loop or a power of that size
    huge = 10**30
    for kind in (unit_chaos, full_chaos):
        spec, capped = kind(3, huge), kind(3, 4)
        assert count_below_power(spec, 4) == count_below_power(capped, 4)
        assert enumerate_members(spec, 80) == brute_force_members(capped, 80)
        assert [n for n in range(1, 81) if contains(spec, n)] == brute_force_members(spec, 80)
    for spec in (exact_weight(3, huge), digit_pattern(3, huge, (1, 2))):
        assert count_below_power(spec, 4) == 0
        assert enumerate_members(spec, 80) == []
        assert brute_force_members(spec, 80) == []
        assert not any(contains(spec, n) for n in range(1, 81))


def test_each_kind_is_one_rule_of_digits_and_weights():
    assert unit_chaos(5, 3).digits_at(7) == (1,)
    for spec in (full_chaos(5, 3), exact_weight(5, 3)):
        assert list(spec.digits_at(0)) == list(spec.digits_at(7)) == [1, 2, 3, 4]
    pattern = digit_pattern(5, 2, (3, 1, 4))
    assert [tuple(pattern.digits_at(k)) for k in range(5)] == [(3,), (1,), (4,), (), ()]
    assert list(unit_chaos(5, 3).weights()) == list(full_chaos(5, 3).weights()) == [1, 2, 3]
    assert list(exact_weight(5, 3).weights()) == [3]
    assert list(pattern.weights()) == [2]


def test_enumeration_sorted_and_consistent():
    for spec in (unit_chaos(3, 3), full_chaos(5, 2), exact_weight(4, 2)):
        members = enumerate_members(spec, 2000)
        assert members == sorted(set(members))
        assert all(contains(spec, n) for n in members)


def test_nesting():
    for p in (2, 3, 5):
        for d in (1, 2, 3):
            unit = set(enumerate_members(unit_chaos(p, d), 500))
            full = set(enumerate_members(full_chaos(p, d), 500))
            assert unit <= full
            bigger = set(enumerate_members(unit_chaos(p, d + 1), 500))
            assert unit <= bigger


def test_weight_additivity_under_digitwise_sum():
    # disjoint digit supports: weights add under the digitwise sum
    rng = random.Random(11)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        pos = rng.sample(range(8), 4)
        n = sum(rng.randint(1, p - 1) * p ** k for k in pos[:2])
        m = sum(rng.randint(1, p - 1) * p ** k for k in pos[2:])
        total = digitwise_add(n, m, p)
        assert sum(1 for d in digits_of_integer(total, p) if d) == 4
        assert contains(exact_weight(p, 4), total)


def test_multiplicity_examples():
    assert pattern_multiplicity_check(3, 1, 1, 8)
    assert pattern_multiplicity_check(2, 1, 2, 7)  # multiplicity is 1 for p = 2
    assert pattern_multiplicity_check(3, 2, 1, 8)


def test_multiplicity_range_validation():
    with pytest.raises(ValueError):
        pattern_multiplicity_check(3, 1, 2, 8)


def test_lazy_iteration():
    it = iter_members(full_chaos(3, 2), 10**9)
    first = next(it)
    assert contains(full_chaos(3, 2), first)


def test_spec_validation():
    with pytest.raises(ValueError):
        unit_chaos(1, 1)
    with pytest.raises(ValueError):
        unit_chaos(3, 0)
    with pytest.raises(ValueError):
        digit_pattern(3, 1, (0, 1))


def test_array_membership_matches_the_loop_past_the_pattern_and_past_int64():
    rng = random.Random(23)
    for p in (2, 3, 5, 6):
        big = [2**63 - 1, 2**63, 2**63 + 1, 2**64, p**40, p**40 + p**3, 2 * p**45 + 1]
        big += [p**k * rng.randint(1, p - 1) + p**j for k in range(30, 50) for j in (0, 7, 29)]
        small = list(range(1, min(p**5, 600)))
        specs = [
            unit_chaos(p, 2), full_chaos(p, 3), exact_weight(p, 2),
            # members may not use a digit past the pattern's end
            digit_pattern(p, 1, (p - 1, 1)), digit_pattern(p, 2, (1,) * 3),
        ]
        for spec in specs:
            for values in (small, big):
                assert member_mask(spec, values).tolist() == [contains_loop(spec, n) for n in values]
            assert [contains(spec, n) for n in big] == [contains_loop(spec, n) for n in big]
    # the mask is False at 0 and below, where contains refuses
    assert member_mask(unit_chaos(3, 2), [0, -4, 1, 3**70]).tolist() == [False, False, True, True]
    assert member_mask(unit_chaos(3, 2), np.array([[3, 5], [0, 9]])).tolist() == [[True, False], [False, True]]
