import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from vcchaos import pary, uniqueness
from vcchaos.cli import main
from vcchaos.cyclo import CycloArray, root_of_unity
from vcchaos.indices import contains, digit_pattern, exact_weight, full_chaos, member_mask, unit_chaos
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
def test_witnesses_match_the_digitwise_products(p, d):
    unit, full = witness_unit_chaos(p, d), witness_full_chaos(p, d)
    for witness, reference in zip((unit, full), _digitwise_products(p, d)):
        assert witness.holds
        assert witness.coefficients == vc_transform_exact(reference.values, p)
        assert witness.level_set == (reference - 1).level_set(-1)
    # the certified unit expansion: (-1)**s where every digit is 0 or 1, s of them 1
    digits = pary.digit_array(np.arange(p**d), p, d)
    signs = np.where((digits <= 1).all(axis=1), 1 - 2 * (digits.sum(axis=1) % 2), 0)
    assert unit.coefficients == CycloArray(1, signs.astype(object).reshape(-1, 1))
    # the full one's: 1 at every index below p**d
    assert len(full.coefficients) == p**d and full.coefficients == 1


@pytest.mark.parametrize("p, d", [(2, 12), (3, 6)])
def test_witnesses_build_only_rank_1_factors(monkeypatch, tmp_path, p, d):
    # a sharpness run certifies each witness at its rank-1 factor: every exact
    # transform, cyclotomic array and digit table it builds has at most p entries
    sizes, orders, rows, digit_sizes = [], [], [], []

    def transformed(values, *args):
        sizes.append(len(values))
        orders.append(values.order)
        return vc_transform_exact(values, *args)

    init = CycloArray.__init__

    def counted_rows(self, order, nums, denom=1):
        rows.append(len(nums))
        init(self, order, nums, denom)

    digit_array = pary.digit_array

    def counted_digits(values, *args):
        digit_sizes.append(np.size(values))
        return digit_array(values, *args)

    monkeypatch.setattr(uniqueness, "vc_transform_exact", transformed)
    monkeypatch.setattr(CycloArray, "__init__", counted_rows)
    monkeypatch.setattr(pary, "digit_array", counted_digits)
    assert main(["sharpness", "--p", str(p), "--d", str(d), "--out", str(tmp_path / "sharp.json")]) == 0
    assert sizes == [p, p]
    assert rows and max(rows) <= p
    assert all(size <= p for size in digit_sizes)
    # the full factor's cells are the rationals (p, 0, ..., 0), not a sum of roots of unity
    assert orders == [p, 1]


@pytest.mark.parametrize("p, d", [(2, 1), (3, 5), (7, 2), (30, 1)])
def test_a_sharpness_run_zero_tests_each_row_once(monkeypatch, tmp_path, p, d):
    # per witness: the factor's expansion against its support and against the
    # expected row, then the report's two zero masks, which every view reads
    calls = []
    keys = CycloArray.keys

    def counted(self):
        calls.append(len(self))
        return keys(self)

    monkeypatch.setattr(CycloArray, "keys", counted)
    assert main(["sharpness", "--p", str(p), "--d", str(d), "--out", str(tmp_path / "sharp.json")]) == 0
    assert len(calls) <= 8 and max(calls) <= p


def _rank_d_certificate(factor, expected, spec, threshold):
    """The certificate computed on the p**d grid, cell by cell: a brute-force oracle.

    The witness's cell values are digitwise products of the factor's; its
    whole exact expansion is compared with the expected factor's tensor power,
    the support's membership is read by indices.member_mask, and the level set
    {P = 0} by the zero test of every cell.
    """
    p, d = spec.p, spec.order
    digits = pary.digit_array(np.arange(p**d), p, d)

    def power(row):
        out = row[digits[:, 0]]
        for k in range(1, d):
            out = out * row[digits[:, k]]
        return out

    values = power(factor)
    coeffs = vc_transform_exact(values, p, "forward")
    support = np.flatnonzero(~coeffs.is_zero())
    level_set = PArySet(p, d, values.is_zero())
    support_ok = bool(member_mask(spec, support[support != 0]).all())
    coefficients_ok = coeffs == power(expected)
    nonzero_index = bool((support != 0).any())
    holds = level_set.measure() + threshold == 1 and nonzero_index and support_ok and coefficients_ok
    return {
        "support": support,
        "coefficients": coeffs,
        "level_set": level_set,
        "support_ok": support_ok,
        "coefficients_ok": coefficients_ok,
        "holds": holds,
    }


def _disagreements(report, oracle):
    """The names of the report's fields that differ from the rank-d oracle's."""
    same = {
        "support": report.support.tolist() == oracle["support"].tolist(),
        "coefficients": len(report.coefficients) == len(oracle["coefficients"])
        and report.coefficients == oracle["coefficients"],
        "level_set": report.level_set == oracle["level_set"],
        "level_set_measure": report.level_set_measure == oracle["level_set"].measure(),
        "support_size": report.support_size == len(oracle["support"]),
        "support_ok": report.support_ok == oracle["support_ok"],
        "coefficients_ok": report.coefficients_ok == oracle["coefficients_ok"],
        "holds": report.holds == oracle["holds"],
    }
    return {name for name, ok in same.items() if not ok}


# p = 2..7 with d <= 3, and criterion 04's range: p in {2, 3, 5}, d <= 4
_ORACLE_RANGE = sorted({(p, d) for p in range(2, 8) for d in (1, 2, 3)} | {(p, 4) for p in (2, 3, 5)})


@pytest.mark.parametrize("p, d", _ORACLE_RANGE)
def test_rank_1_certificate_matches_the_rank_d_oracle(monkeypatch, p, d):
    calls = []
    certify = uniqueness._certify

    def recording(*args):
        calls.append((args, certify(*args)))
        return calls[-1][1]

    monkeypatch.setattr(uniqueness, "_certify", recording)
    witness_unit_chaos(p, d)
    witness_full_chaos(p, d)
    assert len(calls) == 2
    for args, report in calls:
        assert report.holds
        assert _disagreements(report, _rank_d_certificate(*args)) == set()


def test_rank_1_certificate_matches_the_oracle_on_random_factors():
    # random cyclotomic-integer cells or sparse rational expansions, expected factors
    # right or wrong, every index-set kind (a digit pattern shorter than d forbids the
    # top positions, a varying one all but one digit at some position) and thresholds
    # that do or do not complement the measure
    rng = random.Random(16)
    for _ in range(400):
        p, d = rng.randint(2, 5), rng.randint(1, 3)
        if rng.random() < 0.5:
            nums = np.array([[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(p)] for _ in range(p)], dtype=object)
            factor = CycloArray(p, nums)
        else:
            factor = vc_transform_exact([rng.choice([0, 0, 1, -1, 2]) for _ in range(p)], p, "inverse")
        if rng.random() < 0.5:
            expected = vc_transform_exact(factor, p)
        else:
            expected = CycloArray.from_values([rng.choice([0, 1, -1]) for _ in range(p)])
        pattern = [rng.randint(1, p - 1)] * rng.randint(1, d + 1)
        if rng.random() < 0.5:
            pattern = [rng.randint(1, p - 1) for _ in pattern]
        spec = rng.choice([unit_chaos(p, d), full_chaos(p, d), exact_weight(p, d), digit_pattern(p, d, pattern)])
        oracle = _rank_d_certificate(factor, expected, spec, Fraction(0))
        threshold = rng.choice([1 - oracle["level_set"].measure(), Fraction(1, p**d)])
        report = uniqueness._certify(factor, expected, spec, threshold)
        oracle = _rank_d_certificate(factor, expected, spec, threshold)
        gap = _disagreements(report, oracle)
        if gap:
            # only where the rank-1 check is stricter: the expansion is u * expected, u**d = 1, u != 1
            assert gap <= {"coefficients_ok", "holds"} and oracle["coefficients_ok"]
            m = math.lcm(2, report.factor_coefficients.order, expected.order)
            roots = [root_of_unity(m, j) for j in range(1, m) if j * d % m == 0]
            assert any(report.factor_coefficients == expected * u for u in roots)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_the_rank_1_check_is_stricter_by_exactly_the_roots_of_unity(d):
    # a factor whose expansion is u * e, u a primitive cube root of unity: the rank-d
    # expansion equals e's tensor power exactly when u**d = 1, i.e. when 3 divides d,
    # and the rank-1 check refuses it at every d
    p, e = 3, CycloArray.from_values([1, -1, 0])
    factor = (1 - CycloArray.roots(p, np.arange(p))) * root_of_unity(3)
    spec, threshold = unit_chaos(p, d), Fraction(p - 1, p) ** d
    report = uniqueness._certify(factor, e, spec, threshold)
    oracle = _rank_d_certificate(factor, e, spec, threshold)
    assert report.factor_coefficients == e * root_of_unity(3)
    assert not report.coefficients_ok and not report.holds
    assert oracle["coefficients_ok"] == oracle["holds"] == (d % 3 == 0)
    assert _disagreements(report, oracle) == ({"coefficients_ok", "holds"} if d % 3 == 0 else set())


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
    full = [PArySet(p, 0, [1])] * p
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
        overlap_bound_check([PArySet(3, 0, [1])] * 2)  # base 3 needs 3 sets
    with pytest.raises(ValueError):
        overlap_bound_check([])


def test_witness_validation():
    with pytest.raises(ValueError):
        witness_unit_chaos(3, 0)
