import random
import time
from fractions import Fraction

import numpy as np
import pytest

from vcchaos import pary, uniqueness
from vcchaos.cyclo import CycloArray
from vcchaos.indices import contains
from vcchaos.stepfn import PArySet, StepFn
from vcchaos.uniqueness import overlap_bound_check, witness_full_chaos, witness_unit_chaos
from vcchaos.vc import rademacher, vc_function, vc_transform_exact


def test_unit_witness_p3_d2():
    report = witness_unit_chaos(3, 2)
    assert report.level_set_measure == Fraction(5, 9)
    assert report.threshold == Fraction(4, 9)
    assert report.support_ok


def test_unit_witness_p2_d1_classical_constant():
    report = witness_unit_chaos(2, 1)
    assert report.threshold == Fraction(1, 2)
    assert report.level_set_measure == Fraction(1, 2)


def test_unit_witness_coefficients_d2():
    for p in (2, 3, 5):
        report = witness_unit_chaos(p, 2)
        assert sorted(report.support) == [0, 1, p, p + 1]
        assert report.coefficients[0] == 1
        assert report.coefficients[1] == -1
        assert report.coefficients[p] == -1
        assert report.coefficients[p + 1] == 1


@pytest.mark.parametrize(
    "p, d", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2), (6, 2)]
)
def test_witness_level_sets_are_the_closed_form_cells(p, d):
    # P = prod(1 - R_k) vanishes where some digit x_k is 0, and Q = p**d on cell 0 only
    def digits(m):
        return [m // p**j % p for j in range(d)]

    unit = [m for m in range(p**d) if 0 in digits(m)]
    assert witness_unit_chaos(p, d).level_set == PArySet.from_cells(p, d, unit)
    assert witness_full_chaos(p, d).level_set == PArySet.from_cells(p, d, range(1, p**d))


def _digitwise_products(p, d):
    """prod_k (1 - R_k) and prod_k sum_j VC_(j * p**k): the witnesses as digitwise products."""
    unit = full = StepFn.constant(p, 1)
    for k in range(d):
        unit = unit * (1 - rademacher(p, k))
        full = full * sum(vc_function(p, j * p**k) for j in range(p))
    return unit, full


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_witnesses_match_the_digitwise_products(monkeypatch, p, d):
    expected = []
    certify = uniqueness._certify

    def recording(values, expect, *rest):
        expected.append(expect)
        return certify(values, expect, *rest)

    monkeypatch.setattr(uniqueness, "_certify", recording)
    for builder, reference in zip((witness_unit_chaos, witness_full_chaos), _digitwise_products(p, d)):
        witness = builder(p, d)
        assert witness.holds
        assert witness.coefficients == vc_transform_exact(reference.values, p)
        assert witness.level_set == (reference - 1).level_set(-1)
    # the unit witness's expected expansion: (-1)**s where every digit is 0 or 1, s of them 1
    digits = pary.digit_array(np.arange(p**d), p, d)
    signs = np.where((digits <= 1).all(axis=1), 1 - 2 * (digits.sum(axis=1) % 2), 0)
    assert expected[0] == CycloArray(1, signs.astype(object).reshape(-1, 1))
    # the full witness's: 1 at every index below p**d
    assert len(expected[1]) == p**d and expected[1] == 1


@pytest.mark.parametrize("p, d", [(2, 12), (3, 6)])
def test_witnesses_build_only_rank_1_factors(monkeypatch, p, d):
    # each witness is a tensor power of one factor, so no VC function or digit
    # table is built on the rank-d grid; the support's index-set membership
    # (indices.member_mask) reads digits through its own import and is not counted
    ranks, sizes, orders = [], [], []

    def recorded(p, k):
        fn = rademacher(p, k)
        ranks.append(fn.rank)
        return fn

    digit_array = pary.digit_array

    def counted(values, *args):
        sizes.append(np.size(values))
        return digit_array(values, *args)

    def transformed(values, *args):
        orders.append(values.order)
        return vc_transform_exact(values, *args)

    monkeypatch.setattr(uniqueness, "rademacher", recorded)
    monkeypatch.setattr(pary, "digit_array", counted)
    monkeypatch.setattr(uniqueness, "vc_transform_exact", transformed)
    assert witness_unit_chaos(p, d).holds and witness_full_chaos(p, d).holds
    assert ranks and max(ranks) <= 1
    assert sizes and max(sizes) <= p
    # the full factor's cells are the rationals (p, 0, ..., 0), not a sum of roots of unity
    assert orders == [p, 1]


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
    # on every certified cell, the shifted witness equals the nonzero constant -1
    report = witness_unit_chaos(3, 2)
    prod = StepFn.constant(3, 1)
    for k in range(2):
        prod = prod * (1 - rademacher(3, k))
    shifted = prod - 1
    fine = report.level_set.bits_at_rank(shifted.rank)
    cells = [m for m in range(len(shifted.values)) if fine[m]]
    assert len(cells) == 5
    for cell in cells:
        assert shifted.values[cell] == -1


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


def test_overlap_bound_examples():
    p = 3
    full = [PArySet.full(p)] * p
    h_measure, bound, holds = overlap_bound_check(full)
    assert h_measure == bound == 1 and holds

    halves = [PArySet.from_cells(2, 1, [0]), PArySet.from_cells(2, 1, [1])]
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
