"""The record classes: IndexSpec, Distribution, SharpnessReport and KhinchinReport.

Each is a plain class; these tests pin the constructor, the attributes and
the checks each one makes, and IndexSpec's value semantics.
"""

from fractions import Fraction

import numpy as np
import pytest

from vcchaos.cyclo import CycloArray
from vcchaos.indices import IndexKind, IndexSpec, digit_pattern, full_chaos, unit_chaos
from vcchaos.khinchin import KhinchinReport
from vcchaos.stepfn import Distribution, PArySet
from vcchaos.uniqueness import SharpnessReport, witness_full_chaos


def test_index_spec_equality_and_hash():
    a, b = digit_pattern(3, 2, [1, 2]), IndexSpec(IndexKind.DIGIT_PATTERN, 3, 2, (1, 2))
    assert a == b and not a != b and hash(a) == hash(b)
    assert hash(a) == hash((IndexKind.DIGIT_PATTERN, 3, 2, (1, 2)))
    assert len({a, b, unit_chaos(3, 2), full_chaos(3, 2), full_chaos(3, 2)}) == 3
    assert full_chaos(3, 2) != full_chaos(3, 1) != full_chaos(2, 1)
    assert unit_chaos(3, 2) != full_chaos(3, 2)
    assert digit_pattern(3, 2, (1, 2)) != digit_pattern(3, 2, (2, 1))
    # another type is never equal, even one with the same fields
    assert full_chaos(3, 2) != (IndexKind.FULL_CHAOS, 3, 2, ())
    assert full_chaos(3, 2).__eq__("vtilde") is NotImplemented


def test_index_spec_repr_and_defaults():
    assert repr(unit_chaos(2, 1)) == "IndexSpec(kind=<IndexKind.UNIT_CHAOS: 'v'>, p=2, order=1, pattern=())"
    assert repr(digit_pattern(3, 2, [1, 2])) == (
        "IndexSpec(kind=<IndexKind.DIGIT_PATTERN: 'aset'>, p=3, order=2, pattern=(1, 2))"
    )
    spec = IndexSpec(IndexKind.EXACT_WEIGHT, p=5, order=2)
    assert (spec.kind, spec.p, spec.order, spec.pattern) == (IndexKind.EXACT_WEIGHT, 5, 2, ())


def test_index_spec_is_immutable():
    spec = full_chaos(3, 2)
    with pytest.raises(AttributeError):
        spec.p = 5
    with pytest.raises(AttributeError):
        spec.extra = 1
    with pytest.raises(AttributeError):
        del spec.order
    assert (spec.p, spec.order) == (3, 2)


@pytest.mark.parametrize(
    "args, message",
    [
        ((IndexKind.FULL_CHAOS, 1, 2), "base must be >= 2, got 1"),
        ((IndexKind.UNIT_CHAOS, 2), "order must be >= 1, got 0"),
        ((IndexKind.EXACT_WEIGHT, 3, -1), "order must be >= 1, got -1"),
        ((IndexKind.DIGIT_PATTERN, 3, 1), "digit pattern spec needs a pattern"),
        ((IndexKind.DIGIT_PATTERN, 3, 1, (1, 3)), "pattern digits must lie in 1..p-1"),
        ((IndexKind.DIGIT_PATTERN, 3, 1, (0,)), "pattern digits must lie in 1..p-1"),
        # the base is checked first, then the pattern, then the order
        ((IndexKind.DIGIT_PATTERN, 1, 0), "base must be >= 2, got 1"),
        ((IndexKind.DIGIT_PATTERN, 3, 0), "digit pattern spec needs a pattern"),
    ],
)
def test_index_spec_validation(args, message):
    with pytest.raises(ValueError) as info:
        IndexSpec(*args)
    assert str(info.value) == message


def test_distribution_checks_its_measures():
    one, minus = CycloArray.coerce(1), CycloArray.coerce(-1)
    law = Distribution(((one, Fraction(1, 3)), (minus, Fraction(2, 3))))
    assert law.entries == ((one, Fraction(1, 3)), (minus, Fraction(2, 3)))
    assert law.measure_of(-1) == Fraction(2, 3) and law.measure_of(2) == 0
    with pytest.raises(ValueError, match=r"^measures must sum to 1, got 1/2$"):
        Distribution(((one, Fraction(1, 2)),))
    with pytest.raises(ValueError, match=r"^measures must sum to 1, got 0$"):
        Distribution(())
    # the sum is checked first, then the sign of each measure
    with pytest.raises(ValueError, match=r"^measures must be positive$"):
        Distribution(((one, Fraction(3, 2)), (minus, Fraction(-1, 2))))
    with pytest.raises(ValueError, match=r"^measures must be positive$"):
        Distribution(((one, Fraction(1)), (minus, Fraction(0))))


def test_sharpness_report_fields_and_holds():
    report = witness_full_chaos(2, 1)
    assert report.index_set == full_chaos(2, 1)
    assert report.support.tolist() == [0, 1]
    assert report.level_set == PArySet(2, 1, 0b10)
    assert (report.level_set_measure, report.threshold) == (Fraction(1, 2), Fraction(1, 2))
    assert report.support_ok and report.coefficients_ok and report.holds
    fields = [
        full_chaos(2, 1), np.array([0, 1]), CycloArray.from_values([1, 1]),
        CycloArray.coerce(-1), PArySet(2, 1, 0b10), Fraction(1, 2), Fraction(1, 2), True, True,
    ]
    assert SharpnessReport(*fields).holds
    # any one failed part fails the certificate
    for i, bad in [(7, False), (8, False), (3, CycloArray.coerce(0)), (1, np.array([0]))]:
        assert not SharpnessReport(*fields[:i], bad, *fields[i + 1 :]).holds
    assert not SharpnessReport(*fields[:5], Fraction(1, 3), *fields[6:]).holds


def test_khinchin_report_defaults_and_fresh_dicts():
    a = KhinchinReport("random x 3", 3)
    b = KhinchinReport(method="m", members=3)
    assert (a.method, a.members) == ("random x 3", 3)
    assert a.best_ratio is a.best_ratio_err is a.best_ratio_pow_exact is None
    assert a.min_l1_ratio is a.min_l1_ratio_err is None
    assert a.best_coefficients == {} and a.ascent_counters == {}
    # each report gets its own dicts
    a.best_coefficients[1] = 1j
    a.ascent_counters["sweeps"] = 2
    assert b.best_coefficients == {} and b.ascent_counters == {}
    assert a.best_coefficients is not b.best_coefficients
    counters = {"sweeps": 5}
    c = KhinchinReport("m", 3, best_ratio=1.5, ascent_counters=counters)
    assert c.ascent_counters is counters and c.best_ratio == 1.5
