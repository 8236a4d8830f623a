from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcchaos.pary import (
    PAryInterval,
    RankCapError,
    check_rank,
    digit_count,
    digits_of_integer,
    digits_of_point,
    digitwise_add,
    digitwise_neg,
    digitwise_sub,
    point_from_digits,
    run_cell_cap,
)


def test_digits_of_point_examples():
    assert digits_of_point(Fraction(1, 4), 2, 4) == (0, 1, 0, 0)
    # long-division oracle for 1/2 in base 3: 1/2 = 0.111...
    assert digits_of_point(Fraction(1, 2), 3, 3) == (1, 1, 1)
    assert digits_of_point(Fraction(0), 5, 2) == (0, 0)


def test_digits_of_point_terminating_preferred():
    # base-p rationals must expand with trailing zeros, never trailing p-1
    assert digits_of_point(Fraction(1, 3), 3, 5) == (1, 0, 0, 0, 0)
    assert digits_of_point(Fraction(7, 8), 2, 6) == (1, 1, 1, 0, 0, 0)


def test_digits_of_point_errors():
    with pytest.raises(ValueError):
        digits_of_point(Fraction(3, 2), 2, 4)
    with pytest.raises(ValueError):
        digits_of_point(Fraction(-1, 2), 2, 4)
    with pytest.raises(ValueError):
        digits_of_point(Fraction(1, 2), 1, 4)


def test_digits_of_integer_examples():
    assert digits_of_integer(5, 3) == (2, 1)
    assert digits_of_integer(0, 2) == ()
    assert digits_of_integer(8, 2) == (0, 0, 0, 1)


def test_interval_endpoints_examples():
    assert PAryInterval(3, 2, 7).endpoints() == (Fraction(7, 9), Fraction(8, 9))
    assert PAryInterval(2, 0, 0).endpoints() == (Fraction(0), Fraction(1))
    assert PAryInterval(5, 1, 4).endpoints() == (Fraction(4, 5), Fraction(1))


def test_interval_validation():
    with pytest.raises(ValueError):
        PAryInterval(3, 1, 3)
    with pytest.raises(ValueError):
        PAryInterval(1, 1, 0)


@given(
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=12),
)
@settings(max_examples=200)
def test_truncated_reconstruction_bound(p, num, den, count):
    x = Fraction(num % den, den)
    digits = digits_of_point(x, p, count)
    assert abs(x - point_from_digits(digits, p)) < Fraction(1, p) ** count


@given(
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=200)
def test_point_and_integer_digits_consistent(p, m):
    # the point m * p**-k starts with the reversed zero-padded digits of m
    k = max(digit_count(m, p), 1)
    x = Fraction(m, p**k)
    int_digits = digits_of_integer(m, p)
    padded = int_digits + (0,) * (k - len(int_digits))
    assert digits_of_point(x, p, k) == tuple(reversed(padded))


def test_interval_partition_measures():
    for p in (2, 3, 5):
        for k in (0, 1, 2, 3):
            intervals = [PAryInterval(p, k, m) for m in range(p**k)]
            assert sum((iv.measure() for iv in intervals), Fraction(0)) == 1
            # disjointness: each interval's left endpoint only in itself
            for iv in intervals:
                lo, _ = iv.endpoints()
                assert sum(other.contains(lo) for other in intervals) == 1


def test_digitwise_arithmetic():
    assert digitwise_add(5, 7, 3) == 0  # (2,1) + (1,2) -> (0,0)
    assert digitwise_add(1, 2, 2) == 3
    assert digitwise_sub(digitwise_add(17, 11, 5), 11, 5) == 17
    assert digitwise_neg(0, 3) == 0
    assert digitwise_add(6, digitwise_neg(6, 4), 4) == 0


def test_rank_cap():
    assert check_rank(2, 3) == 8
    with pytest.raises(RankCapError):
        check_rank(2, 40)
    with run_cell_cap(1000):
        with pytest.raises(RankCapError):
            check_rank(10, 30)
        assert check_rank(10, 2) == 100


def test_cell_cap_env_override(monkeypatch):
    monkeypatch.setenv("VCCHAOS_CELL_CAP", "100")
    with pytest.raises(RankCapError):
        check_rank(2, 7)  # 128 > 100
    assert check_rank(2, 6) == 64
    monkeypatch.delenv("VCCHAOS_CELL_CAP")
    assert check_rank(2, 7) == 128
