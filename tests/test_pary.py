import pytest

from vcchaos.pary import (
    RankCapError,
    check_rank,
    digits_of_integer,
    digitwise_add,
    run_cell_cap,
)


def test_digits_of_integer_examples():
    assert digits_of_integer(5, 3) == (2, 1)
    assert digits_of_integer(0, 2) == ()
    assert digits_of_integer(8, 2) == (0, 0, 0, 1)


def test_digitwise_arithmetic():
    assert digitwise_add(5, 7, 3) == 0  # (2,1) + (1,2) -> (0,0)
    assert digitwise_add(1, 2, 2) == 3
    # adding the digitwise negative undoes a sum: 11 = (1, 2) and 19 = (4, 3) in base 5
    assert digitwise_add(digitwise_add(17, 11, 5), 19, 5) == 17
    assert digitwise_add(0, 0, 3) == 0
    assert digitwise_add(6, 14, 4) == 0  # 6 = (2, 1) and 14 = (2, 3) in base 4


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


def test_a_run_resolves_its_cap_once(monkeypatch):
    monkeypatch.setenv("VCCHAOS_CELL_CAP", "100")
    with run_cell_cap(None):
        # the environment was read when the run started; later changes do not reach it
        monkeypatch.setenv("VCCHAOS_CELL_CAP", "not a number")
        assert check_rank(10, 2) == 100
        with pytest.raises(RankCapError, match="cell cap 100"):
            check_rank(2, 7)
    # an explicit limit wins over the environment
    monkeypatch.setenv("VCCHAOS_CELL_CAP", "100")
    with run_cell_cap(1000):
        assert check_rank(2, 9) == 512
    # outside a run every call reads the environment
    with pytest.raises(RankCapError, match="cell cap 100"):
        check_rank(2, 7)
    monkeypatch.setenv("VCCHAOS_CELL_CAP", "200")
    assert check_rank(2, 7) == 128
    monkeypatch.setenv("VCCHAOS_CELL_CAP", "not a number")
    with pytest.raises(ValueError, match="invalid literal"):
        check_rank(2, 1)
