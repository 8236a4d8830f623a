import random
import time
from fractions import Fraction

import pytest

from vcchaos.indices import contains
from vcchaos.stepfn import PArySet, StepFn
from vcchaos.uniqueness import (
    common_core,
    overlap_bound_check,
    shifted_family,
    witness_full_chaos,
    witness_unit_chaos,
)
from vcchaos.vc import rademacher


def test_unit_witness_p3_d2():
    report = witness_unit_chaos(3, 2)
    assert report.level_set_measure == Fraction(5, 9)
    assert report.threshold == Fraction(4, 9)
    assert report.support_ok


def test_unit_witness_p2_d1_classical_constant():
    report = witness_unit_chaos(2, 1)
    assert report.threshold == Fraction(1, 2)
    assert report.level_set_measure == Fraction(1, 2)
    assert report.level_set == PArySet.from_interval(2, 0, Fraction(1, 2))


def test_unit_witness_coefficients_d2():
    for p in (2, 3, 5):
        report = witness_unit_chaos(p, 2)
        assert sorted(report.support) == [0, 1, p, p + 1]
        assert report.coefficients[0] == 1
        assert report.coefficients[1] == -1
        assert report.coefficients[p] == -1
        assert report.coefficients[p + 1] == 1


def test_witness_pair_runtime_p2_d12():
    started = time.perf_counter()
    unit = witness_unit_chaos(2, 12)
    full = witness_full_chaos(2, 12)
    elapsed = time.perf_counter() - started
    assert unit.level_set_measure == full.level_set_measure == 1 - Fraction(1, 2**12)
    assert len(unit.support) == len(full.support) == 2**12
    assert elapsed < 1.2, f"p = 2, d = 12 witness pair took {elapsed:.2f}s (limit 1.2s)"


def test_full_witness_p3_d2():
    report = witness_full_chaos(3, 2)
    assert report.level_set_measure == Fraction(8, 9)
    assert report.threshold == Fraction(1, 9)


def test_full_witness_p2_matches_dyadic_chaos_constant():
    for d in (1, 2, 3):
        report = witness_full_chaos(2, d)
        assert report.threshold == Fraction(1, 2**d)
        assert report.level_set_measure == 1 - Fraction(1, 2**d)


def test_full_witness_all_ones_coefficients():
    for p, d in [(2, 3), (3, 2), (5, 1)]:
        report = witness_full_chaos(p, d)
        assert sorted(report.support) == list(range(p**d))
        assert all(c == 1 for c in report.coefficients[report.support])


def test_witness_support_lies_in_index_set():
    for p in (2, 3, 5):
        for d in (1, 2, 3):
            unit = witness_unit_chaos(p, d)
            assert all(n == 0 or contains(unit.index_set, n) for n in unit.support)
            full = witness_full_chaos(p, d)
            assert all(n == 0 or contains(full.index_set, n) for n in full.support)


def test_measure_plus_threshold_is_one():
    for p in (2, 3, 4, 5):
        for d in (1, 2, 3, 4):
            if p**d > 10**5:
                continue
            assert (
                witness_unit_chaos(p, d).level_set_measure
                + Fraction(p - 1, p) ** d
                == 1
            )
            assert witness_full_chaos(p, d).level_set_measure + Fraction(1, p**d) == 1


def test_witnesses_for_composite_base():
    # composite p exercises the nontrivial cyclotomic factorization in the
    # zero tests behind level sets and expansion support
    report = witness_unit_chaos(6, 2)
    assert report.level_set_measure == 1 - Fraction(25, 36)
    assert witness_full_chaos(6, 1).level_set_measure == Fraction(5, 6)


def test_witness_level_value_is_nonzero_constant():
    report = witness_unit_chaos(3, 2)
    assert not report.level_value.is_zero()
    # on the certified set, the shifted witness really equals that constant
    prod = StepFn.constant(3, 1)
    for k in range(2):
        prod = prod * (1 - rademacher(3, k))
    shifted = prod - 1
    for cell in report.level_set.cells():
        x = Fraction(cell, 3**report.level_set.rank)
        assert shifted.eval_at(x) == report.level_value


def test_literal_zero_set_of_shifted_witness_differs():
    # the shifted witness equals -1 (not 0) where the product vanishes; its
    # literal zero set has a different measure (empty for p = 2), which is why
    # certification targets the constant level set
    prod = StepFn.constant(2, 1)
    for k in range(1):
        prod = prod * (1 - rademacher(2, k))
    shifted = prod - 1
    assert shifted.level_set(0).measure() == 0
    assert shifted.level_set(-1).measure() == Fraction(1, 2)


def test_shifted_family_and_core():
    # shift step is p**-(k_tilde+1): with k_tilde = 1, base 2, the step is 1/4
    e = PArySet.from_interval(2, 0, Fraction(1, 2))
    family = shifted_family(e, 1)
    assert family[0] == e
    assert family[1] == PArySet.from_interval(2, 0, Fraction(1, 4)) | PArySet.from_interval(
        2, Fraction(3, 4), 1
    )
    assert common_core(family[:2]) == PArySet.from_interval(2, 0, Fraction(1, 4))

    full = PArySet.full(3)
    family = shifted_family(full, 2)
    assert all(member == full for member in family)
    assert common_core(family) == full


def test_shifted_family_measure_bound():
    # mu(E) > 1 - p**-d forces mu(core) > 1 - p**-(d-1), exactly
    rng = random.Random(31)
    for _ in range(50):
        p = rng.choice([2, 3])
        d = rng.randint(2, 3)
        rank = d + 1
        cells = p**rank
        min_cells = int(Fraction(cells) * (1 - Fraction(1, p**d))) + 1
        keep = rng.sample(range(cells), rng.randint(min_cells, cells))
        e = PArySet.from_cells(p, rank, keep)
        assert e.measure() > 1 - Fraction(1, p**d)
        core = common_core(shifted_family(e, rng.randint(0, d - 1)))
        assert core.measure() > 1 - Fraction(1, p ** (d - 1))


def test_overlap_bound_examples():
    p = 3
    full = [PArySet.full(p)] * p
    h_measure, bound, holds = overlap_bound_check(full)
    assert h_measure == bound == 1 and holds

    halves = [
        PArySet.from_interval(2, 0, Fraction(1, 2)),
        PArySet.from_interval(2, Fraction(1, 2), 1),
    ]
    h_measure, bound, holds = overlap_bound_check(halves)
    assert h_measure == bound == 0 and holds


def test_overlap_bound_randomized_audit():
    rng = random.Random(37)
    for p in (2, 3, 5):
        for _ in range(300):
            sets = []
            for _ in range(p):
                rank = rng.randint(1, 3)
                cells = [m for m in range(p**rank) if rng.random() < 0.6]
                sets.append(PArySet.from_cells(p, rank, cells))
            _, _, holds = overlap_bound_check(sets)
            assert holds


def test_overlap_bound_validation():
    with pytest.raises(ValueError):
        overlap_bound_check([PArySet.full(3)] * 2)  # base 3 needs 3 sets
    with pytest.raises(ValueError):
        overlap_bound_check([])


def test_witness_validation():
    with pytest.raises(ValueError):
        witness_unit_chaos(3, 0)
