import ast
import cmath
import math
import random
import re
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from vcchaos.pary import (
    _ROOT_ERR,
    RankCapError,
    check_power,
    check_rank,
    digit_array,
    digit_count,
    digitwise_add,
    run_cell_cap,
    unit_roots,
)


def _digitwise_add_loop(a, b, p):
    """The scalar divmod loop digitwise_add replaced, kept as its oracle."""
    result, scale = 0, 1
    while a or b:
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        result += ((da + db) % p) * scale
        scale *= p
    return result


def _digits_loop(n, p):
    digits = []
    while n:
        n, r = divmod(n, p)
        digits.append(r)
    return digits


def test_digits_of_integer_examples():
    assert digit_array(5, 3).tolist() == [2, 1]
    assert digit_array(0, 2).tolist() == []
    assert digit_array(8, 2).tolist() == [0, 0, 0, 1]


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


@pytest.mark.parametrize("cap", [0, -1])
def test_a_cap_below_1_is_refused_where_it_comes_in(monkeypatch, cap):
    message = f"^cell cap must be >= 1, got {cap}$"
    with pytest.raises(ValueError, match=message) as refused, run_cell_cap(cap):
        pass
    assert not isinstance(refused.value, RankCapError)
    monkeypatch.setenv("VCCHAOS_CELL_CAP", str(cap))
    with pytest.raises(ValueError, match=message), run_cell_cap(None):
        pass
    # outside a run the environment is read at each check
    with pytest.raises(ValueError, match=message):
        check_rank(2, 0)
    # an explicit cap replaces the environment's, which is then never read
    with run_cell_cap(1):
        assert check_rank(2, 0) == 1
    monkeypatch.setenv("VCCHAOS_CELL_CAP", "1")
    assert check_rank(2, 0) == 1


def test_check_power_refuses_exactly_the_powers_above_the_cap():
    for cap in (1, 7, 8, 100, 2**64 - 1, 2**64, 10**40):
        with run_cell_cap(cap):
            for base in range(6):
                for exponent in range(cap.bit_length() + 3):
                    if base**exponent > cap:
                        message = f"{base}**{exponent} x exceed the cell cap {cap}"
                        with pytest.raises(RankCapError, match=f"^{re.escape(message)}$"):
                            check_power(base, exponent, f"{base}**{exponent} x")
                    else:
                        assert check_power(base, exponent, "x") == base**exponent


def test_check_power_never_builds_a_huge_power():
    # 2**(10**12) would be an integer of about 125 GB
    started = time.perf_counter()
    with run_cell_cap(10**40):
        message = f"2**{10**12} cells exceed the cell cap {10**40}"
        with pytest.raises(RankCapError, match=f"^{re.escape(message)}$"):
            check_rank(2, 10**12)
        with pytest.raises(RankCapError, match="exceed the cell cap"):
            check_power(3, 10**12, "sums")
        assert check_power(1, 10**12, "sums") == 1
    assert time.perf_counter() - started < 1.0


def _samples(rng, p):
    """Nonnegative integers of every size up to past 2**64, powers of p and their neighbours."""
    values = [0, 1, p - 1, p, 2**63 - 1, 2**63, 2**64 + 5]
    values += [p**k + e for k in range(1, 45) for e in (-1, 0, 1)]
    values += [rng.randrange(p ** rng.randint(1, 45)) for _ in range(60)]
    return values


@pytest.mark.parametrize("p", [2, 3, 5, 6, 10])
def test_digit_primitive_matches_the_divmod_loop(p):
    rng = random.Random(p)
    values = _samples(rng, p)
    for n in values:
        assert digit_count(n, p) == len(_digits_loop(n, p))
        assert digit_array(n, p).tolist() == _digits_loop(n, p)
    digits = digit_array(values, p)
    assert digits.shape == (len(values), digit_count(max(values), p))
    for n, row in zip(values, digits.tolist()):
        loop = _digits_loop(n, p)
        assert row == loop + [0] * (len(row) - len(loop))
    a, b = values, rng.sample(values, 12)
    sums = digitwise_add(np.array(a, dtype=object)[:, None], np.array(b, dtype=object), p)
    assert sums.tolist() == [[_digitwise_add_loop(x, y, p) for y in b] for x in a]
    for x, y in zip(a, rng.sample(values, len(values))):
        assert digitwise_add(x, y, p) == _digitwise_add_loop(x, y, p)


def test_digit_dtype_follows_the_place_values_not_the_values():
    # every value fits int64, but 3**40 does not: the digits, and any sum of
    # 40 digits at their place values, are Python integers
    assert digit_array([2 * 3**38, 5], 3, 40).dtype == object
    assert digit_array([2 * 3**38, 5], 3, 39).dtype == np.int64
    assert digit_array(np.arange(9), 3).dtype == np.int64
    total = digitwise_add(2 * 3**39, 2 * 3**38, 3)
    assert total == 8 * 3**38 > 2**63 and type(total) is int
    assert digitwise_add(np.array([2 * 3**39]), np.array([2 * 3**38]), 3).tolist() == [8 * 3**38]


def test_digit_primitive_validation():
    with pytest.raises(ValueError, match="base must be >= 2"):
        digit_array([1], 1)
    with pytest.raises(ValueError, match="n must be >= 0, got -3"):
        digit_array([4, -3], 2)
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        digit_array(-1, 2)
    with pytest.raises(ValueError, match="base must be >= 2"):
        digit_count(5, 1)
    with pytest.raises(ValueError, match="operands must be nonnegative"):
        digitwise_add(np.array([1, -1]), 2, 3)
    assert digit_array([], 3).shape == (0, 0)
    assert digit_array(0, 3).shape == (0,)


# -- the unit-root table ------------------------------------------------------------


def test_unit_roots_are_exact_at_quarter_turns_and_near_mpmath_elsewhere():
    for r in [*range(1, 65), 100]:
        roots = unit_roots(r)
        assert roots.dtype == np.complex128 and roots.shape == (r,)
        for j, root in enumerate(roots.tolist()):
            if 4 * j % r == 0:
                assert root == (1, 1j, -1, -1j)[4 * j // r]
            else:
                with mpmath.workdps(50):
                    assert abs(mpmath.mpc(root) - mpmath.expjpi(mpmath.mpf(2 * j) / r)) <= _ROOT_ERR


def test_unit_roots_are_the_cmath_roots_bit_for_bit():
    # the real angle fl(fl(2*pi*j) / r), evaluated as cmath evaluates it
    for r in range(1, 301):
        roots = unit_roots(r).tolist()
        for j in range(r):
            if 4 * j % r:
                ref = cmath.exp(2j * math.pi * j / r)
                assert (roots[j].real.hex(), roots[j].imag.hex()) == (ref.real.hex(), ref.imag.hex())


def test_unit_roots_is_one_read_only_table_per_order():
    roots = unit_roots(12)
    assert unit_roots(12) is roots
    with pytest.raises(ValueError, match="read-only"):
        roots[0] = 2
    with pytest.raises(ValueError, match="order must be >= 1"):
        unit_roots(0)


# np.exp, np.cos, np.sin (or numpy., math., cmath. ones) and any cmath use
_ROOT_CALL = re.compile(r"\b(?:np|numpy|math|cmath)\.(?:exp|cos|sin)\b|\bcmath\b")


def _root_calls(path: Path) -> list[tuple[int, str]]:
    """(line, text) of each root computation in the module, outside pary.unit_roots."""
    source = path.read_text()
    skip = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "unit_roots":
            skip |= set(range(node.lineno, node.end_lineno + 1))
    return [
        (n, line) for n, line in enumerate(source.splitlines(), 1)
        if n not in skip and _ROOT_CALL.search(line)
    ]


def test_roots_of_unity_are_computed_only_in_unit_roots():
    package = Path(__file__).resolve().parent.parent / "src" / "vcchaos"
    found = {path.name: calls for path in sorted(package.glob("*.py")) if (calls := _root_calls(path))}
    assert found == {}


def test_the_root_scan_sees_each_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import cmath\ndef unit_roots(r):\n    return np.exp(r)\n"
        "a = np.exp(1j)\nb = numpy.cos(1) + math.sin(1)\nc = np.expm1(1)\n"
    )
    assert [n for n, _ in _root_calls(module)] == [1, 4, 5]
