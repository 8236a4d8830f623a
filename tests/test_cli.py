import ast
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from vcchaos import cli, khinchin, stepfn, suite, uniqueness
from vcchaos.cli import main
from vcchaos.indices import IndexKind, full_chaos
from vcchaos.khinchin import KhinchinReport, estimate_l1_constant
from vcchaos.pary import RankCapError, check_rank, run_cell_cap
from vcchaos.vc import exponent_table, vc_function


def run(args):
    return main(args)


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


def drop_timings(report):
    """The report without its wall_time_s fields: the run's and each check's."""
    report.pop("wall_time_s")
    for record in report["checks"]:
        record.pop("wall_time_s")
    return report


def test_verify_passes(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--p", "3", "--max-rank", "3", "--out", str(out)]) == 0
    report = load_report(out)
    assert report["all_passed"] is True
    assert report["schema_version"] == 1
    assert all("anchor" in c for c in report["checks"])


def test_verify_invalid_base_is_config_error(capsys):
    assert run(["verify", "--p", "1"]) == 2


def test_verify_rank_cap_is_config_error(capsys):
    # the deepest grid a check builds is rank 2 * min(max rank, 3): 20**6 cells here
    assert run(["verify", "--p", "20", "--max-rank", "40"]) == 2
    assert capsys.readouterr().err == "error: 20**6 cells exceed the cell cap 10000000\n"


def test_a_max_rank_past_the_deepest_check_runs_the_same_suite(tmp_path):
    # no check goes past rank 6, so 2**24 cells are never built and the run is not refused
    reports = []
    for max_rank in ("7", "24"):
        out = tmp_path / f"{max_rank}.json"
        assert run(["verify", "--p", "2", "--max-rank", max_rank, "--seed", "5", "--out", str(out)]) == 0
        report = drop_timings(load_report(out))
        assert report["config"].pop("max_rank") == int(max_rank)
        reports.append(report)
    assert reports[0] == reports[1]


def test_verify_rank_zero_passes(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--p", "2", "--max-rank", "0", "--out", str(out)]) == 0
    assert all(c["status"] == "pass" for c in load_report(out)["checks"])


def test_verify_large_base_at_rank_zero_is_fast():
    # the pattern-multiplicity check counts the 3 members of each of 15**3 pattern sets per weight
    started = time.perf_counter()
    assert run(["verify", "--p", "16", "--max-rank", "0", "--cell-cap", "100"]) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"verify --p 16 --max-rank 0 took {elapsed:.2f}s (limit 2s)"


def test_verify_honours_cell_cap(monkeypatch):
    # at max rank 1 the independence check tallies rank-2 grids: 9 cells for p = 3
    assert run(["verify", "--p", "3", "--max-rank", "1", "--cell-cap", "9"]) == 0
    assert run(["verify", "--p", "2", "--max-rank", "0", "--cell-cap", "2"]) == 0
    # the run's --cell-cap replaces the environment's cap for every grid the run builds
    monkeypatch.setenv("VCCHAOS_CELL_CAP", "3")
    assert run(["verify", "--p", "3", "--max-rank", "1", "--cell-cap", "9"]) == 0
    assert run(["verify", "--p", "2", "--max-rank", "2", "--cell-cap", "16"]) == 0
    monkeypatch.delenv("VCCHAOS_CELL_CAP")

    def no_checks(*args):
        pytest.fail("a check ran although the suite's largest grid exceeds the cap")

    monkeypatch.setattr(suite, "_verify_checks", no_checks)
    assert run(["verify", "--p", "3", "--max-rank", "1", "--cell-cap", "3"]) == 2
    assert run(["verify", "--p", "2", "--max-rank", "0", "--cell-cap", "1"]) == 2


def test_verify_refuses_its_exponent_tables_up_front(monkeypatch):
    # at the default max rank 3 the inverse-identity and operator-norm checks
    # would build a 20**3 x 20**3 exponent table (512 MB of int64)
    def no_checks(*args):
        pytest.fail("a check ran although the exponent tables exceed the cap")

    monkeypatch.setattr(suite, "_verify_checks", no_checks)
    started = time.perf_counter()
    assert run(["verify", "--p", "20"]) == 2
    assert time.perf_counter() - started < 1.0
    with run_cell_cap(100):
        assert exponent_table(2, 3).shape == (8, 8)
        with pytest.raises(RankCapError, match="exponent table entries"):
            exponent_table(2, 4)


def test_run_cell_cap_does_not_leak(monkeypatch):
    # the cap of one in-process run is gone when it returns or raises
    assert run(["verify", "--p", "2", "--max-rank", "1", "--cell-cap", "1"]) == 2
    assert check_rank(2, 3) == 8
    assert run(["sharpness", "--p", "2", "--d", "1", "--cell-cap", "2"]) == 0
    assert check_rank(2, 3) == 8
    # without the flag the environment's cap applies
    monkeypatch.setenv("VCCHAOS_CELL_CAP", "3")
    with pytest.raises(RankCapError):
        check_rank(2, 2)
    assert run(["sharpness", "--p", "2", "--d", "2"]) == 2


def test_khinchin_float_mode_reports_error_bound(tmp_path):
    # --mode selects nothing: an even q is certified exactly, other q carry an error bound
    out = tmp_path / "report.json"
    args = ["khinchin", "--p", "2", "--d", "1", "--set", "v", "--N", "16", "--trials", "10"]
    args += ["--seed", "1", "--mode", "float", "--out", str(out)]
    assert run([*args, "--q", "4"]) == 0
    values = load_report(out)["checks"][0]["values"]
    assert "best_ratio_pow_exact" in values and "best_ratio_err" not in values
    assert _is_nearest_root(values["best_ratio"], Fraction(values["best_ratio_pow_exact"]), 4)
    assert run([*args, "--q", "3"]) == 0
    values = load_report(out)["checks"][0]["values"]
    assert "best_ratio_err" in values and "best_ratio_pow_exact" not in values


def _is_nearest_root(x, value, q):
    """Whether the double x is the nearest double to value**(1/q), ties to even, checked exactly.

    x must be positive and normal: the roots that round to it are those between
    the midpoints to its neighbours, and a root at a midpoint rounds to x when x
    is even, that is when x's successor is odd.
    """
    below = (Fraction(x) + Fraction(math.nextafter(x, 0))) / 2
    above = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    even = math.frexp(x)[0] * 2**53 % 2 == 0
    if even:
        return below**q <= value <= above**q
    return below**q < value < above**q


def _float_values_are_bounded_or_certified(values, q):
    """Every float in a check's values is an *_err bound, has one, or is best_ratio's certified root."""
    for name, value in values.items():
        if not isinstance(value, float) or name.endswith("_err") or f"{name}_err" in values:
            continue
        if name != "best_ratio" or "best_ratio_pow_exact" not in values:
            return False
        if not _is_nearest_root(value, Fraction(values["best_ratio_pow_exact"]), q):
            return False
    return True


V22 = ["--p", "2", "--d", "2", "--set", "v", "--N", "15"]
VTILDE31 = ["--p", "3", "--d", "1", "--set", "vtilde", "--N", "26"]


@pytest.mark.parametrize(
    "config, q, ratio",
    [
        pytest.param([*spec, "--q", q, "--trials", "5", "--seed", "1"], q, None, id=f"{name}-q{q}")
        for name, spec in (("v22", V22), ("vtilde31", VTILDE31))
        for q in ("2", "2.5", "3", "4", "6")
    ]
    # float(ratio**6) ** (1/6) printed 1.9924284159166457, one ulp below the nearest root
    + [pytest.param([*V22, "--q", "6", "--trials", "20", "--seed", "2"], "6", 1.9924284159166459,
                    id="v22-q6-seed2")],
)
def test_khinchin_modes_print_the_same_certified_report(tmp_path, config, q, ratio):
    q = int(q) if float(q).is_integer() else float(q)
    reports = {}
    for mode in ("exact", "float"):
        out = tmp_path / f"{mode}.json"
        assert run(["khinchin", *config, "--l1", "--mode", mode, "--out", str(out)]) == 0
        reports[mode] = report = drop_timings(load_report(out))
        assert report["config"].pop("mode") == mode
        for check in report["checks"]:
            assert _float_values_are_bounded_or_certified(check["values"], q), check
    assert reports["exact"] == reports["float"]
    if ratio is not None:
        assert reports["exact"]["checks"][0]["values"]["best_ratio"] == ratio


@pytest.mark.parametrize(
    "flag, value", [("--seed", "-1"), ("--q", "inf"), ("--q", "0.5"), ("--q", "1e300")]
)
def test_khinchin_bad_input_is_config_error(flag, value):
    args = ["khinchin", "--p", "2", "--d", "1", "--set", "v", "--N", "16", "--trials", "2"]
    assert run(args + [flag, value]) == 2


@pytest.mark.parametrize("q", ["2000.5", "100000.5"])
def test_khinchin_large_non_even_q_reports_finite_values(tmp_path, q):
    # |f|**q overflows a float once q * log max|f| > 709, and q = 100000.5 is still finite input
    def no_constant(token):
        raise AssertionError(f"non-finite {token} in the report")

    out = tmp_path / "report.json"
    args = ["khinchin", "--p", "2", "--d", "1", "--set", "v", "--q", q, "--N", "8", "--trials", "3"]
    assert run(args + ["--optimizer", "random", "--out", str(out)]) == 0
    values = json.loads(out.read_text(), parse_constant=no_constant)["checks"][0]["values"]
    ratio, err = values["best_ratio"], values["best_ratio_err"]
    assert math.isfinite(ratio) and math.isfinite(err)
    # ||f||_q <= max|f| <= sum|c_n| <= sqrt(members) ||c||_2
    assert 1.0 <= ratio <= math.sqrt(values["members"]) + err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_with_a_non_finite_value_is_config_error(monkeypatch, capsys, fmt):
    # a report is strict JSON or is not written
    report = KhinchinReport(
        method="random x 1", members=3, best_ratio=math.inf, best_ratio_err=math.nan
    )
    # cmd_khinchin imports estimate_constant from its module when it runs
    monkeypatch.setattr(khinchin, "estimate_constant", lambda *args: report)
    args = ["khinchin", "--p", "2", "--q", "3", "--N", "4", "--trials", "1", "--format", fmt]
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not JSON compliant" in captured.err


def test_khinchin_sum_table_over_cap_is_config_error(capsys):
    # 9921 members, so the q = 4 table would hold ~10^8 digitwise sums
    args = ["khinchin", "--p", "3", "--set", "vtilde", "--d", "3", "--N", "3486784401", "--q", "4"]
    assert run(args) == 2
    assert "exceed the cell cap" in capsys.readouterr().err


def test_khinchin_member_enumeration_over_cap_is_config_error(capsys):
    # about 4.5e9 candidate members of up to 63 binary digits: refused before enumerating
    args = ["khinchin", "--p", "2", "--set", "vtilde", "--d", "8", "--q", "4", "--N", str(2**62)]
    started = time.perf_counter()
    assert run(args) == 2
    assert time.perf_counter() - started < 5.0
    assert "candidate members exceed the cell cap" in capsys.readouterr().err
    with pytest.raises(RankCapError):
        estimate_l1_constant(full_chaos(2, 8), 2**62, 1, seed=0)


def test_khinchin_honours_cell_cap(tmp_path):
    # 11 members 2^0 .. 2^10 on a grid of 2^11 cells: q = 3 builds an 11 x 2048 row block
    args = ["khinchin", "--p", "2", "--q", "3", "--N", "1024", "--trials", "1"]
    out = str(tmp_path / "report.json")
    rows = str(11 * 2048)
    assert run(args + ["--optimizer", "random", "--cell-cap", rows, "--out", out]) == 0
    assert run(args + ["--cell-cap", "4"]) == 2
    assert run(args + ["--q", "4", "--cell-cap", "120"]) == 2


@pytest.mark.parametrize("extra", [["--q", "3"], ["--q", "4", "--l1"]])
def test_khinchin_row_block_over_cap_is_config_error(extra, capsys):
    # the q = 4 table needs 11**2 = 121 sums; q = 3 and --l1 need 11 x 2048 rows
    args = ["khinchin", "--p", "2", "--N", "1024", "--trials", "3", "--optimizer", "random"]
    assert run(args + extra + ["--cell-cap", str(11 * 2048)]) == 0
    capsys.readouterr()
    assert run(args + extra + ["--cell-cap", str(11 * 2048 - 1)]) == 2
    assert "11 members x 2**11 cells exceed the cell cap 22527" in capsys.readouterr().err


def test_khinchin_and_index_share_the_index_set_options(capsys):
    options, helps = ("--d ", "--s ", "--set ", "--pattern "), {}
    for command in ("khinchin", "index"):
        assert run([command, "--help"]) == 0
        lines = capsys.readouterr().out.splitlines()
        helps[command] = [line for line in lines if line.lstrip().startswith(options)]
    assert helps["khinchin"] == helps["index"]
    assert any("comma-separated digits" in line for line in helps["index"])


def test_unknown_flag_is_config_error(capsys):
    assert run(["verify", "--p", "2", "--bogus"]) == 2


_K = ["khinchin", "--N", "16", "--trials", "2", "--set", "v"]
# one bad value for each input rule of each command, and the one error line it prints;
# each rule lives in the library function that uses the input
_SINGLE_FAULTS = [
    (["verify", "--p", "1"], "base must be >= 2, got 1"),
    (["verify", "--p", "-3"], "base must be >= 2, got -3"),
    (["verify", "--p", "2", "--max-rank", "-1"], "max rank must be >= 0, got -1"),
    (["verify", "--p", "2", "--max-rank", "-5"], "max rank must be >= 0, got -5"),
    (["verify", "--p", "1", "--max-rank", "-1"], "base must be >= 2, got 1"),
    (["verify", "--p", "2", "--cell-cap", "2"], "2**6 cells exceed the cell cap 2"),
    (["verify", "--p", "2", "--cell-cap", "-1"], "cell cap must be >= 1, got -1"),
    (["verify", "--p", "2", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["VCCHAOS_CELL_CAP=0", "sharpness", "--p", "2", "--d", "2"], "cell cap must be >= 1, got 0"),
    (["VCCHAOS_CELL_CAP=not a number", "sharpness", "--p", "2", "--d", "2"],
     "invalid literal for int() with base 10: 'not a number'"),
    (["sharpness", "--p", "1", "--d", "1"], "base must be >= 2, got 1"),
    (["sharpness", "--p", "2", "--d", "0"], "d must be >= 1, got 0"),
    (["sharpness", "--p", "2", "--d", "-2"], "d must be >= 1, got -2"),
    (["sharpness", "--p", "2", "--d", "3", "--cell-cap", "4"], "2**3 cells exceed the cell cap 4"),
    (["sharpness", "--p", "1000000000", "--d", "1"], "1000000000**1 cells exceed the cell cap 10000000"),
    (["sharpness", "--p", "10", "--d", "8"], "10**8 cells exceed the cell cap 10000000"),
    (_K + ["--p", "1"], "base must be >= 2, got 1"),
    (_K + ["--p", "2", "--trials", "0"], "trials must be >= 1, got 0"),
    (_K + ["--p", "2", "--trials", "0", "--l1"], "trials must be >= 1, got 0"),
    (_K + ["--p", "2", "--q", "nan"], "q must be finite, got nan"),
    (_K + ["--p", "2", "--q", "inf"], "q must be finite, got inf"),
    (_K + ["--p", "2", "--q=-inf"], "q must be finite, got -inf"),
    (_K + ["--p", "2", "--q", "0.5"], "q must be >= 1, got 0.5"),
    (_K + ["--p", "2", "--seed", "-1"], "seed must lie in [0, 2**64), got -1"),
    (_K + ["--p", "2", "--d", "0"], "order must be >= 1, got 0"),
    (_K + ["--p", "2", "--N", "-1"], "v(p=2, 1) has no members in [1, -1]"),
    (["khinchin", "--p", "2", "--set", "wtilde"], "--s is required for the exact-weight set"),
    (["khinchin", "--p", "2", "--set", "wtilde", "--s", "0"], "order must be >= 1, got 0"),
    (["khinchin", "--p", "2", "--set", "aset"], "--pattern is required for digit-pattern sets"),
    (["khinchin", "--p", "3", "--set", "aset", "--pattern", "1"], "--s is required for digit-pattern sets"),
    (["khinchin", "--p", "3", "--set", "aset", "--pattern", "x", "--s", "1"],
     "invalid literal for int() with base 10: 'x'"),
    (["khinchin", "--p", "3", "--set", "aset", "--pattern", "5", "--s", "1"],
     "pattern digits must lie in 1..p-1"),
    (["transform", "--p", "1", "--input", "four.txt", "--output", "o.txt"], "base must be >= 2, got 1"),
    (["transform", "--p", "2", "--input", "missing.txt", "--output", "o.txt"],
     "[Errno 2] No such file or directory: 'missing.txt'"),
    (["transform", "--p", "2", "--input", "three.txt", "--output", "o.txt"],
     "length 3 is not a power of the base 2"),
    (["transform", "--p", "2", "--input", "four.txt", "--output", "o.txt", "--cell-cap", "3"],
     "2**2 cells exceed the cell cap 3"),
    (["transform", "--p", "2", "--mode", "exact", "--input", "complex.txt", "--output", "o.txt"],
     "exact mode accepts real inputs only; use --mode float"),
    (["transform", "--p", "2", "--direction", "inverse", "--input", "big.txt", "--output", "o.txt"],
     "the transform of big.txt overflows the float range"),
    (["index", "--p", "1", "--max", "10"], "base must be >= 2, got 1"),
    (["index", "--p", "2", "--set", "wtilde", "--max", "10"], "--s is required for the exact-weight set"),
    (["index", "--p", "2", "--set", "aset", "--max", "10"], "--pattern is required for digit-pattern sets"),
    (["index", "--p", "2", "--d", "0", "--max", "10"], "order must be >= 1, got 0"),
    (["index", "--p", "2", "--d", "8", "--max", str(2**62), "--cell-cap", "1000"],
     "4501777128 candidate members exceed the cell cap 1000"),
    (["index", "--p", "2", "--max", "10", "--cell-cap", "0"], "cell cap must be >= 1, got 0"),
]


@pytest.mark.parametrize("argv, message", _SINGLE_FAULTS, ids=[" ".join(a) for a, _ in _SINGLE_FAULTS])
def test_each_input_rule_prints_its_one_error_line(monkeypatch, tmp_path, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    if "=" in argv[0]:  # a leading NAME=value sets an environment variable, as in a shell
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    for name, text in [("four.txt", "1\n2\n3\n4\n"), ("three.txt", "1\n2\n3\n"),
                       ("complex.txt", "1 1\n2\n3\n4\n"), ("big.txt", "1e308\n1e308\n")]:
        (tmp_path / name).write_text(text)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not (tmp_path / "o.txt").exists()


@pytest.mark.parametrize("max_rank", [-1, -5])
def test_verify_checks_owns_the_max_rank_rule(max_rank):
    with pytest.raises(ValueError, match=rf"^max rank must be >= 0, got {max_rank}$"):
        suite.verify_checks(3, max_rank, 0)
    with pytest.raises(ValueError, match=r"^base must be >= 2, got 1$"):
        suite.verify_checks(1, max_rank, 0)


@pytest.mark.parametrize("q", [math.inf, -math.inf, math.nan])
def test_estimate_constant_owns_the_finite_q_rule(q):
    # pyproject turns warnings into errors, so a nan reaching a matmul would fail differently
    with pytest.raises(ValueError, match=rf"^q must be finite, got {q}$"):
        khinchin.estimate_constant(full_chaos(2, 1), q, 16, 2, 0)


# the options whose values a library function checks; args.s is None is the CLI's own presence rule
_LIBRARY_INPUTS = {"p", "d", "q", "N", "trials", "seed", "max_rank", "max"}


def _cli_input_rules(path: Path) -> list[tuple[int, str]]:
    """(line, text) of each class, and of each if that raises on an option a library function checks."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef):
            found.append((node.lineno, f"class {node.name}"))
        elif isinstance(node, ast.If) and any(
            isinstance(inner, ast.Raise) for stmt in node.body for inner in ast.walk(stmt)
        ):
            read = {
                attr.attr for attr in ast.walk(node.test)
                if isinstance(attr, ast.Attribute) and isinstance(attr.value, ast.Name)
                and attr.value.id == "args"
            }
            if read & _LIBRARY_INPUTS:
                found.append((node.lineno, ast.unparse(node.test)))
    return sorted(found)


def test_the_cli_keeps_no_copy_of_a_library_input_rule():
    assert _cli_input_rules(Path(cli.__file__)) == []


def test_the_cli_rule_scan_sees_each_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "class E(ValueError):\n    pass\n"
        "if args.p < 2:\n    raise E\n"
        "if args.s is None:\n    raise E\n"
        "if not math.isfinite(args.q):\n    raise E\n"
        "if args.trials < 1:\n    if x:\n        raise E\n"
        "if float(args.q).is_integer():\n    args.q = int(args.q)\n"
        "if kind == 'v':\n    pass\nelif args.max_rank < 0:\n    raise E\n"
    )
    assert [n for n, _ in _cli_input_rules(module)] == [1, 3, 7, 9, 16]


def test_sharpness_honours_cell_cap(monkeypatch):
    # the witnesses' level sets and products live on grids the run built under --cell-cap
    monkeypatch.setenv("VCCHAOS_CELL_CAP", "3")
    assert run(["sharpness", "--p", "2", "--d", "2", "--cell-cap", "4"]) == 0
    assert run(["sharpness", "--p", "2", "--d", "2", "--cell-cap", "3"]) == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["sharpness", "--p", "2", "--d", str(10**12), "--cell-cap", str(10**20)],
         f"2**{10**12} cells exceed the cell cap {10**20}"),
        (["khinchin", "--p", "2", "--N", "8", "--q", str(2 * 10**12), "--cell-cap", str(10**40)],
         f"4**{10**12} digitwise sums exceed the cell cap {10**40}"),
    ],
    ids=["sharpness", "khinchin"],
)
def test_a_cap_past_2_64_refuses_a_huge_rank_before_building_it(args, message, capsys):
    # 2**(10**12) would be an integer of about 125 GB
    started = time.perf_counter()
    assert run(args) == 2
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sharpness_full_witness_builds_its_factors_fast():
    # the factor is the closed-form rows (p, 0, ..., 0), so no power of R_0 is built by repeated products
    started = time.perf_counter()
    assert run(["sharpness", "--p", "50", "--d", "1"]) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"sharpness --p 50 --d 1 took {elapsed:.2f}s (limit 1s)"


def test_sharpness_report_values(tmp_path):
    out = tmp_path / "sharp.json"
    assert run(["sharpness", "--p", "3", "--d", "2", "--out", str(out)]) == 0
    report = load_report(out)
    values = {c["name"]: c["values"] for c in report["checks"]}
    assert values["unit-chaos-witness"]["level_set_measure"] == "5/9"
    assert values["full-chaos-witness"]["level_set_measure"] == "8/9"


def test_failed_witness_certificate_exits_1(monkeypatch, tmp_path):
    # the unit factor 1 - R_0 -> 1 - R_0**2: the unit witness expands onto indices
    # with a digit 2; the full witness's factor is left alone, so it still holds
    certify = uniqueness._certify

    def squared(factor, expected, spec, threshold):
        if spec.kind is IndexKind.UNIT_CHAOS:
            factor = 1 - vc_function(spec.p, 2).values
        return certify(factor, expected, spec, threshold)

    monkeypatch.setattr(uniqueness, "_certify", squared)
    unit = uniqueness.witness_unit_chaos(3, 2)
    assert unit.holds is False and not unit.support_ok and not unit.coefficients_ok
    assert uniqueness.witness_full_chaos(3, 2).holds is True
    out = tmp_path / "sharp.json"
    assert run(["sharpness", "--p", "3", "--d", "2", "--out", str(out)]) == 1
    statuses = {c["name"]: c["status"] for c in load_report(out)["checks"]}
    assert statuses == {"unit-chaos-witness": "fail", "full-chaos-witness": "pass"}


@pytest.mark.parametrize(
    "p, d, unit, full",
    [
        (2, 8, ("255/256", 256, "1/256"), ("255/256", 256, "1/256")),
        (3, 5, ("211/243", 32, "32/243"), ("242/243", 243, "1/243")),
        (6, 3, ("91/216", 8, "125/216"), ("215/216", 216, "1/216")),
        (7, 5, ("9031/16807", 32, "7776/16807"), ("16806/16807", 16807, "1/16807")),
        (3, 13, ("1586131/1594323", 8192, "8192/1594323"), ("1594322/1594323", 1594323, "1/1594323")),
        (2, 20, ("1048575/1048576", 1048576, "1/1048576"), ("1048575/1048576", 1048576, "1/1048576")),
        # 10**7 cells, the default cell cap
        (10, 7, ("5217031/10000000", 128, "4782969/10000000"), ("9999999/10000000", 10000000, "1/10000000")),
        # large bases at d = 1: each witness is its rank-1 factor itself
        (97, 1, ("1/97", 2, "96/97"), ("96/97", 97, "1/97")),
        (150, 1, ("1/150", 2, "149/150"), ("149/150", 150, "1/150")),
    ],
)
def test_sharpness_values_golden(tmp_path, p, d, unit, full):
    out = tmp_path / "sharp.json"
    assert run(["sharpness", "--p", str(p), "--d", str(d), "--out", str(out)]) == 0
    fields = ("level_set_measure", "support_size", "threshold")
    values = {c["name"]: c["values"] for c in load_report(out)["checks"]}
    assert values == {
        "unit-chaos-witness": dict(zip(fields, unit)),
        "full-chaos-witness": dict(zip(fields, full)),
    }


# the three khinchin-even benchmark configurations at seed 1: the certified
# ratio**q and the ascent counters (sweeps, halvings, scored, accepted), which
# any change to the sum tables' bin order would move
_KHINCHIN_EVEN_GOLDEN = [
    (
        ["--p", "2", "--d", "2", "--set", "v", "--q", "6", "--N", "15", "--trials", "20"],
        "364891514809721228701851411538936923725286702528457584280590769716209784212792936852056571321594223196/"
        "5832668599421370781300835101443944964134025411923550283290954678436599306047139656632598135433161277",
        (32, 10, 1280, 104),
    ),
    (
        ["--p", "2", "--d", "1", "--set", "v", "--q", "4", "--N", "1024", "--trials", "500", "--l1"],
        "4905604592012772931492272305252938775952833814916229546732689771/"
        "1740699035843921301573227310896488415413944219979382250774365192",
        (54, 10, 2376, 183),
    ),
    (
        ["--p", "3", "--d", "2", "--set", "vtilde", "--q", "4", "--N", "242", "--trials", "100"],
        "2991530869597424235796542123537394704988361843319319741446922144591264559/"
        "196316340530931633107612578245537150032073913022060296678068220645600441",
        (61, 10, 12200, 627),
    ),
]


@pytest.mark.parametrize("args, ratio_pow, counters", _KHINCHIN_EVEN_GOLDEN, ids=["q6", "q4-l1", "q4-vtilde"])
def test_khinchin_even_golden(tmp_path, args, ratio_pow, counters):
    out = tmp_path / "report.json"
    assert run(["khinchin", *args, "--seed", "1", "--out", str(out)]) == 0
    values = load_report(out)["checks"][0]["values"]
    assert values["best_ratio_pow_exact"] == ratio_pow
    names = ("ascent_sweeps", "step_halvings", "moves_scored", "moves_accepted")
    assert tuple(values[name] for name in names) == counters


def test_sharpness_p2_d3_both_thresholds_one_eighth(tmp_path):
    out = tmp_path / "sharp.json"
    assert run(["sharpness", "--p", "2", "--d", "3", "--out", str(out)]) == 0
    report = load_report(out)
    thresholds = {c["name"]: c["values"]["threshold"] for c in report["checks"]}
    assert thresholds == {
        "unit-chaos-witness": "1/8",
        "full-chaos-witness": "1/8",
    }


def test_sharpness_p5_d1(tmp_path):
    out = tmp_path / "sharp.json"
    assert run(["sharpness", "--p", "5", "--d", "1", "--out", str(out)]) == 0
    report = load_report(out)
    thresholds = {c["name"]: c["values"]["threshold"] for c in report["checks"]}
    assert thresholds["unit-chaos-witness"] == "4/5"
    assert thresholds["full-chaos-witness"] == "1/5"


def test_index_listing(capsys):
    assert run(["index", "--set", "vtilde", "--p", "3", "--d", "2", "--max", "26"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 18
    assert lines[0] == "1"


def test_index_member_enumeration_over_cap_is_config_error(capsys):
    # about 4.5e9 candidate members of up to 63 binary digits: refused before enumerating
    args = ["index", "--p", "2", "--set", "vtilde", "--d", "8", "--max", str(2**62)]
    started = time.perf_counter()
    assert run(args) == 2
    assert time.perf_counter() - started < 1.0
    assert "candidate members exceed the cell cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--input", "in.txt", "--output", "out.txt", "--out", "report.json"],
        ["transform", "--input", "in.txt", "--output", "out.txt", "--format", "json"],
        ["index", "--max", "8", "--format", "json"],
    ],
    ids=["transform-out", "transform-format", "index-format"],
)
def test_unused_report_flags_are_unknown(tmp_path, monkeypatch, argv):
    # transform writes --output and index writes plain lines: neither reads these
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.txt").write_text("1\n2\n")
    assert run([argv[0], "--p", "2", *argv[1:]]) == 2
    assert not (tmp_path / "report.json").exists()


def test_index_to_file(tmp_path):
    out = tmp_path / "members.txt"
    assert (
        run(["index", "--set", "v", "--p", "3", "--d", "2", "--max", "26", "--out", str(out)])
        == 0
    )
    assert out.read_text().split() == ["1", "3", "4", "9", "10", "12"]


def test_khinchin_report(tmp_path):
    out = tmp_path / "khinchin.json"
    code = run(
        [
            "khinchin", "--p", "2", "--d", "1", "--set", "v", "--q", "4",
            "--N", "64", "--trials", "25", "--seed", "7", "--l1", "--out", str(out),
        ]
    )
    assert code == 0
    report = load_report(out)
    values = {c["name"]: c["values"] for c in report["checks"]}
    estimate = values["lacunarity-constant-estimate"]
    assert estimate["best_ratio"] >= 1.0
    assert "best_ratio_pow_exact" in estimate
    assert values["l1-lower-constant-estimate"]["min_l1_ratio"] > 0


@pytest.mark.parametrize(
    "args",
    [
        ["--p", "3", "--d", "2", "--set", "vtilde", "--q", "1.9", "--N", "200"],
        ["--p", "2", "--d", "1", "--set", "v", "--q", "1", "--N", "64", "--optimizer", "random"],
    ],
)
def test_khinchin_below_q2_passes_at_most_one(tmp_path, args):
    # Lyapunov: ||f||_q <= ||f||_2 = ||c||_2 for q < 2, so every ratio is at most 1
    out = tmp_path / "khinchin.json"
    assert run(["khinchin", *args, "--trials", "10", "--seed", "1", "--out", str(out)]) == 0
    estimate = load_report(out)["checks"][0]
    assert estimate["status"] == "pass"
    assert estimate["values"]["best_ratio"] <= 1.0 + 1e-12


def test_khinchin_q3_passes_at_least_one(tmp_path):
    out = tmp_path / "khinchin.json"
    args = ["khinchin", "--p", "3", "--d", "2", "--set", "vtilde", "--q", "3", "--N", "26",
            "--trials", "10", "--seed", "1", "--mode", "float", "--out", str(out)]
    assert run(args) == 0
    estimate = load_report(out)["checks"][0]
    assert estimate["status"] == "pass"
    assert estimate["values"]["best_ratio"] >= 1.0 - 1e-12


@pytest.mark.parametrize(
    "q, ratio, err, exact, code",
    [
        (3, 1 - 1e-10, 1e-9, None, 0),
        (3, 1 - 1e-8, 1e-9, None, 1),
        (1.5, 1 + 1e-10, 1e-9, None, 0),
        (1.5, 1 + 1e-8, 1e-9, None, 1),
        # the exact certificate decides alone, whatever its float view reads
        (4, 1 - 1e-13, None, Fraction(1), 0),
        (4, 1.0, None, Fraction(10**15 - 1, 10**15), 1),
    ],
    ids=["q3-inside", "q3-outside", "q1.5-inside", "q1.5-outside", "exact-one", "exact-below"],
)
def test_khinchin_lyapunov_check_reads_the_certificate(monkeypatch, q, ratio, err, exact, code):
    # ||f||_q >= ||c||_2 for q >= 2 and <= for q < 2: a ratio on the wrong side
    # of 1 passes only while its proven error bound reaches 1
    report = KhinchinReport(
        method="random x 1", members=3, best_ratio=ratio, best_ratio_err=err,
        best_ratio_pow_exact=exact,
    )
    monkeypatch.setattr(khinchin, "estimate_constant", lambda *args: report)
    args = ["khinchin", "--p", "2", "--q", str(q), "--N", "4", "--trials", "1", "--out", os.devnull]
    assert run(args) == code


def test_khinchin_report_ascent_counters(tmp_path):
    out = tmp_path / "khinchin.json"
    args = ["khinchin", "--p", "3", "--d", "2", "--set", "vtilde", "--q", "4", "--N", "26",
            "--trials", "5", "--seed", "2", "--out", str(out)]
    assert run(args) == 0
    estimate = load_report(out)["checks"][0]["values"]
    counters = {k: estimate[k] for k in ("ascent_sweeps", "step_halvings", "moves_scored", "moves_accepted")}
    assert all(isinstance(n, int) for n in counters.values())
    # every sweep tries the four moves of every coordinate; the ascent stops
    # after its 10th sweep without an accepted move
    assert counters["moves_scored"] == 4 * estimate["members"] * counters["ascent_sweeps"]
    assert counters["step_halvings"] == 10
    assert 0 < counters["moves_accepted"] < counters["moves_scored"]
    assert run(args + ["--optimizer", "random"]) == 0
    assert "ascent_sweeps" not in load_report(out)["checks"][0]["values"]


@pytest.mark.parametrize("fault", [RuntimeError("boom"), MemoryError(), RecursionError("deep")])
def test_unexpected_exception_is_exit_2_without_traceback(monkeypatch, capsys, fault):
    def failing(args):
        raise fault

    monkeypatch.setattr(cli, "cmd_index", failing)
    assert run(["index", "--set", "v", "--p", "2", "--max", "8"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {type(fault).__name__}: {fault}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("signal", [KeyboardInterrupt, SystemExit])
def test_interrupts_pass_through_main(monkeypatch, signal):
    def interrupted(args):
        raise signal()

    monkeypatch.setattr(cli, "cmd_index", interrupted)
    with pytest.raises(signal):
        run(["index", "--set", "v", "--p", "2", "--max", "8"])


def test_transform_roundtrip(tmp_path):
    src = tmp_path / "in.json"
    mid = tmp_path / "coeffs.json"
    back = tmp_path / "back.json"
    src.write_text(json.dumps([[4.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    assert run(["transform", "--p", "2", "--input", str(src), "--output", str(mid)]) == 0
    coeffs = json.loads(mid.read_text())
    assert all(abs(re - 1.0) < 1e-12 and abs(im) < 1e-12 for re, im in coeffs)
    assert (
        run(
            [
                "transform", "--p", "2", "--direction", "inverse",
                "--input", str(mid), "--output", str(back),
            ]
        )
        == 0
    )
    values = json.loads(back.read_text())
    assert abs(values[0][0] - 4.0) < 1e-10


def test_transform_text_format(tmp_path):
    src = tmp_path / "in.txt"
    out = tmp_path / "out.txt"
    src.write_text("1 0\n-1 0\n")
    assert run(["transform", "--p", "2", "--input", str(src), "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert [float(line.split()[0]) for line in lines] == [0.0, 1.0]


@pytest.mark.parametrize(
    "p, expected_real, real_count",
    [(2, [1.5, -0.5], 2), (5, [3.0, -0.5, -0.5, -0.5, -0.5], 1)],
)
def test_transform_exact_prints_rational_parts_exactly(tmp_path, p, expected_real, real_count):
    # every real part is rational here; the first real_count coefficients are
    # real, the others have irrational imaginary parts (printed via _evaluate)
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text("".join(f"{m}\n" for m in range(1, p + 1)))
    assert run(["transform", "--p", str(p), "--mode", "exact", "--input", str(src), "--output", str(out)]) == 0
    rows = [tuple(map(float, line.split())) for line in out.read_text().splitlines()]
    assert [re for re, _ in rows] == expected_real
    assert [im for _, im in rows[:real_count]] == [0.0] * real_count
    reference = np.fft.fft(np.arange(1, p + 1)) / p
    assert all(abs(complex(*row) - z) < 1e-12 for row, z in zip(rows, reference))


def test_transform_bad_length(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("1 0\n1 0\n1 0\n")
    assert run(["transform", "--p", "2", "--input", str(src), "--output", "x"]) == 2


@pytest.mark.parametrize(
    "name, text",
    [
        ("in.json", '[{"a": 1}]'),
        ("in.json", "[[], [1, 0]]"),
        ("in.json", "[1, NaN]"),
        ("in.txt", "1 0\nnan 0\n"),
        ("in.txt", "inf\n1\n"),
        ("in.json", "[" * 200_000 + "]" * 200_000),
    ],
)
def test_transform_rejects_malformed_input(tmp_path, name, text):
    src, out = tmp_path / name, tmp_path / "out.txt"
    src.write_text(text)
    assert run(["transform", "--p", "2", "--input", str(src), "--output", str(out)]) == 2
    assert not out.exists()


def _transform_bytes(tmp_path, text, *flags, name="in.txt", out_name="out.txt"):
    src, out = tmp_path / name, tmp_path / out_name
    src.write_text(text)
    assert run(["transform", "--input", str(src), "--output", str(out), *flags]) == 0
    return out.read_bytes()


@pytest.mark.parametrize(
    "text, clean",
    [
        # 1 field is a real entry, 2 fields a complex one; blank lines are skipped
        ("1\n\n2 0.5\n   \n\t\n3\n4 -1\n", "1 0\n2 0.5\n3 0\n4 -1\n"),
        # tabs separate fields; str.splitlines breaks lines at \x0c and \r too
        ("1\t0\n2\x0c3 0\r4\n", "1\n2\n3\n4\n"),
        # float() syntax: underscores, signs, exponents, surrounding blanks
        ("1_000\n-2.5e1\n +.5 \n7\n", "1000\n-25\n0.5\n7\n"),
    ],
    ids=["mixed-fields-and-blank-lines", "tabs-and-form-feed", "float-syntax"],
)
def test_transform_text_input_reads_like_its_clean_form(tmp_path, text, clean):
    for flags in (["--p", "2"], ["--p", "2", "--direction", "inverse"]):
        assert _transform_bytes(tmp_path, text, *flags) == _transform_bytes(
            tmp_path, clean, *flags, name="clean.txt", out_name="clean.out"
        )


@pytest.mark.parametrize(
    "text, flags",
    [
        ("0x10\n0\n", []),
        ("1 2 3\n0\n", []),
        ("1 0\n0 0 0\n", []),
        ("1e400\n0\n", []),
        ("1 0.5\n0\n", ["--mode", "exact"]),
    ],
    ids=["hex", "three-fields", "three-fields-later", "overflow-to-inf", "exact-imaginary"],
)
def test_transform_rejects_text_input(tmp_path, text, flags):
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text(text)
    assert run(["transform", "--p", "2", "--input", str(src), "--output", str(out), *flags]) == 2
    assert not out.exists()


def test_transform_keeps_negative_zero_imaginary_parts(tmp_path):
    assert _transform_bytes(tmp_path, "1 -0.0\n", "--p", "2") == b"1.0 -0.0\n"
    assert _transform_bytes(tmp_path, "[[1, -0.0]]", "--p", "2", name="in.json") == b"1.0 -0.0\n"
    # -0.0 is a zero imaginary part, so exact mode takes it
    exact = ["--p", "2", "--mode", "exact"]
    assert _transform_bytes(tmp_path, "1 -0.0\n0\n", *exact) == b"0.5 0.0\n0.5 0.0\n"


@pytest.mark.parametrize(
    "text, flags, expected",
    [
        ("1 0\n-1 0\n", ["--p", "2"], b"0.0 0.0\n1.0 0.0\n"),
        (
            "0\n1\n0\n0\n",
            ["--p", "4", "--direction", "inverse"],
            b"1.0 0.0\n0.0 1.0\n-1.0 0.0\n0.0 -1.0\n",
        ),
    ],
    ids=["p2-forward", "p4-inverse"],
)
def test_transform_float_kernel_takes_quarter_turns_exactly(tmp_path, text, flags, expected):
    # np.exp(-1j * np.pi) is -1 - 1.2e-16j; whole quarter turns must not add such parts
    assert _transform_bytes(tmp_path, text, *flags) == expected


def test_transform_output_bytes(tmp_path):
    exact = ["--mode", "exact", "--p"]
    assert _transform_bytes(tmp_path, "0\n1\n0\n", *exact, "3") == (
        b"0.3333333333333333 0.0\n"
        b"-0.16666666666666666 -0.28867513459481275\n"
        b"-0.16666666666666666 0.28867513459481287\n"
    )
    assert _transform_bytes(tmp_path, "0\n1\n0\n", *exact, "3", out_name="out.json") == (
        b"[[0.3333333333333333, 0.0], [-0.16666666666666666, -0.28867513459481275], "
        b"[-0.16666666666666666, 0.28867513459481287]]\n"
    )
    assert _transform_bytes(tmp_path, "[1, [0, 0]]", *exact, "2", name="in.json") == (
        b"0.5 0.0\n0.5 0.0\n"
    )


def test_transform_memory_stays_linear_in_the_input(tmp_path):
    # the reader parses a block of lines at a time and frees the text and the
    # line list once consumed, so the traced peak stays a few times the file
    rng = np.random.default_rng(5)
    x = rng.standard_normal(2**18)
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text("".join(f"{a!r} {b!r}\n" for a, b in zip(x[0::2].tolist(), x[1::2].tolist())))
    tracemalloc.start()
    try:
        assert run(["transform", "--p", "2", "--input", str(src), "--output", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * src.stat().st_size


def test_exact_transform_memory_at_a_large_base(tmp_path):
    # each stage gathers p rotated copies of the (cells, ring) numerators; a
    # dense (p, r, p, r) kernel would hold 70**4 entries here (390 MB traced)
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text("".join(f"{m % 19 - 9}\n" for m in range(70)))
    tracemalloc.start()
    try:
        assert run(["transform", "--p", "70", "--mode", "exact", "--input", str(src),
                    "--output", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
    assert len(out.read_text().splitlines()) == 70


def test_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--p", "2", "--max-rank", "3", "--seed", "9"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    ra, rb = drop_timings(load_report(a)), drop_timings(load_report(b))
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def _argv_from_config(command, config):
    argv = [command]
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv += [flag, str(value)]
    return argv


@pytest.mark.parametrize(
    "args",
    [
        ["khinchin", "--p", "3", "--set", "aset", "--s", "2", "--pattern", "1,2,1", "--q", "4",
         "--N", "26", "--trials", "5", "--l1", "--cell-cap", "100000"],
        ["verify", "--p", "2", "--max-rank", "2", "--seed", "4"],
        ["sharpness", "--p", "3", "--d", "2", "--cell-cap", "9"],
    ],
    ids=["khinchin-aset", "verify", "sharpness"],
)
def test_reports_rerun_from_their_config(tmp_path, args):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run(args + ["--out", str(first)]) == 0
    report = load_report(first)
    assert run(_argv_from_config(report["command"], report["config"]) + ["--out", str(second)]) == 0
    assert drop_timings(load_report(second)) == drop_timings(report)


_VERIFY_ANCHORS = [
    ("inverse-identity", "VC^(k) inverse equals conj-transpose over p^k"),
    ("orthonormality-sample", "integral of VC_n conj(VC_m) = delta(n,m)"),
    ("parseval", "L2 norm squared of the sum equals sum of |c_n|^2"),
    ("multiplicativity", "VC_a * VC_b = VC at the digitwise sum mod p"),
    ("operator-norm", "||VC^(k) x|| / ||x|| equals p^(k/2) within its proven rounding bound"),
    ("overlap-bound-audit", "measure of twice-covered points >= (p*a - 1)/(p - 1)"),
    ("independence-product-rule", "joint law of digit functions factorizes exactly"),
    ("symmetric-decomposition", "Re R_k^j splits into p-1 symmetric mean-zero pieces"),
    ("index-counts", "enumerated members match binomial closed forms"),
    ("pattern-multiplicity", "each weight-s index lies in (p-1)^(L+1-s) pattern sets"),
]


@pytest.mark.parametrize("seed, parseval", [("5", "10/1"), ("0", "14/1")])
def test_verify_checks_golden(tmp_path, seed, parseval):
    # parseval's coefficients are drawn after orthonormality's 40 draws, so
    # its value pins the draw order as well as the seed
    out = tmp_path / "report.json"
    assert run(["verify", "--p", "3", "--max-rank", "2", "--seed", seed, "--out", str(out)]) == 0
    values = [
        {"max_rank": 2},
        {"pairs": 20},
        {"lhs": parseval, "rhs": parseval},
        {"pairs": 10},
        {"norm_err": 1.0676166873618744e-13},
        {"families": 200},
        {"tables": 20},
        {"powers": 2},
        None,
        None,
    ]
    expected = []
    for (name, anchor), value in zip(_VERIFY_ANCHORS, values):
        record = {"name": name, "anchor": anchor, "status": "pass"}
        if value is not None:
            record["values"] = value
        expected.append(record)
    assert drop_timings(load_report(out))["checks"] == expected


@pytest.mark.parametrize(
    "p, max_rank, seed, parseval, norm_err",
    [
        (6, 3, 117605, "27/1", 1.7792775482782565e-11),
        (5, 2, 121095, "18/1", 4.409910905884941e-13),
        (2, 1, 543402, "1/1", 1.8951764073838837e-14),
        (3, 4, 7, "14/1", 4.954752602935245e-13),
    ],
    ids=["6-3", "5-2", "2-1", "3-4"],
)
def test_verify_reports_golden(tmp_path, p, max_rank, seed, parseval, norm_err):
    # whole reports, but for wall_time_s, of verify runs like the benchmark's,
    # as the per-set overlap audit and per-pattern multiplicity loop wrote them
    out = tmp_path / "report.json"
    assert run(["verify", "--p", str(p), "--max-rank", str(max_rank), "--seed", str(seed), "--out", str(out)]) == 0
    values = [
        {"max_rank": min(max_rank, 3)},
        {"pairs": 20},
        {"lhs": parseval, "rhs": parseval},
        {"pairs": 10},
        {"norm_err": norm_err},
        {"families": 200},
        {"tables": 20},
        {"powers": p - 1},
        None,
        None,
    ]
    checks = [
        {"name": name, "anchor": anchor, "status": "pass", **({"values": value} if value else {})}
        for (name, anchor), value in zip(_VERIFY_ANCHORS, values)
    ]
    assert drop_timings(load_report(out)) == {
        "all_passed": True,
        "checks": checks,
        "command": "verify",
        "config": {"cell_cap": None, "max_rank": max_rank, "p": p, "seed": seed},
        "schema_version": 1,
        "tool_version": "0.1.0",
    }


def test_each_check_carries_its_wall_time(tmp_path):
    # timed around check() alone, outside values: the CSV projection has no timing
    out, csv_out = tmp_path / "report.json", tmp_path / "report.csv"
    args = ["verify", "--p", "3", "--max-rank", "2", "--seed", "1"]
    assert run(args + ["--out", str(out)]) == 0
    report = load_report(out)
    times = [record["wall_time_s"] for record in report["checks"]]
    assert all(isinstance(t, float) and t >= 0 for t in times)
    assert sum(times) <= report["wall_time_s"] + 1e-5
    assert not any("wall_time_s" in record.get("values", {}) for record in report["checks"])
    assert run(args + ["--format", "csv", "--out", str(csv_out)]) == 0
    assert "wall_time_s" not in csv_out.read_text()


def test_csv_projection(tmp_path):
    out = tmp_path / "report.csv"
    assert (
        run(["sharpness", "--p", "2", "--d", "1", "--format", "csv", "--out", str(out)])
        == 0
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("check,status,anchor")
    assert len(lines) == 3


@pytest.mark.parametrize(
    "args",
    [
        ["sharpness", "--p", "2", "--d", "3"],
        ["khinchin", "--p", "2", "--d", "1", "--set", "v", "--q", "4", "--N", "16", "--trials", "5", "--seed", "1"],
    ],
    ids=["sharpness", "khinchin"],
)
def test_layer_tracer_runs_a_command(tmp_path, args):
    # perfbench/tracer.py wraps every public class method by introspection, so
    # an API change can break the benchmark's traced runs without failing here
    root = Path(__file__).resolve().parents[1]
    dump = tmp_path / "dump.json"
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), str(dump), "op", "--", *args],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    stats = json.loads(dump.read_text())["stats"]
    assert any(name.startswith("cyclo.CycloArray.") for name in stats)


@pytest.mark.parametrize(
    "abbreviated, full",
    [
        (
            ["verify", "--p", "2", "--max", "0", "--se", "1"],
            ["verify", "--p", "2", "--max-rank", "0", "--seed", "1"],
        ),
        (
            ["index", "--set", "v", "--p", "2", "--d", "1", "--ma", "9"],
            ["index", "--set", "v", "--p", "2", "--d", "1", "--max", "9"],
        ),
    ],
    ids=["verify", "index"],
)
def test_abbreviated_options_are_refused(capsys, abbreviated, full):
    assert run(abbreviated) == 2
    assert run(full) == 0
    if full[0] == "index":
        assert capsys.readouterr().out.split() == ["1", "2", "4", "8"]


def test_no_command_accepts_abbreviations():
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    assert sorted(commands) == ["index", "khinchin", "sharpness", "transform", "verify"]
    assert not any(sp.allow_abbrev for sp in commands.values())


def _audit_counts(p, max_rank, seed):
    """The overlap audit of verify's suite, run alone on a fresh stream."""
    [audit] = [fn for name, _, fn in suite._verify_checks(p, max_rank, seed) if name == "overlap-bound-audit"]
    return audit()


def test_audit_masks_draw():
    p, rank, families = 6, 3, 200
    bits = np.concatenate(list(suite._audit_bits(random.Random(5), p, rank, families)))
    assert bits.shape == (families, p, p**rank) and bits.dtype == bool
    assert abs(bits.mean() - 0.6) <= 0.005
    assert np.array_equal(np.concatenate(list(suite._audit_bits(random.Random(5), p, rank, families))), bits)
    # one getrandbits call: the stream moves on by 16 bits a cell, and cell m of
    # set j of family i reads word (i * p + j) * cells + m
    rng, twin = random.Random(5), random.Random(5)
    small = np.concatenate(list(suite._audit_bits(rng, 3, 1, 4)))
    bits = twin.getrandbits(16 * 36)
    words = [(bits >> (16 * w)) & 0xFFFF for w in range(36)]
    assert small.tolist() == [
        [[words[(3 * i + j) * 3 + m] < 39322 for m in range(3)] for j in range(3)] for i in range(4)
    ]
    assert rng.getrandbits(64) == twin.getrandbits(64)


def _audit_bits_one_call(rng, p, rank, families):
    """The one-call draw that _audit_bits chunks, kept as its oracle."""
    words = families * p * p**rank
    drawn = np.frombuffer(rng.getrandbits(16 * words).to_bytes(2 * words, "little"), dtype="<u2")
    return (drawn < suite._AUDIT_THRESHOLD).reshape(families, p, p**rank)


@pytest.mark.parametrize("chunk", [1, 30, 200, None])
def test_chunked_audit_draw_is_the_one_call_draw(monkeypatch, chunk):
    # odd family sizes (81, 125, 343 cells) put the chunk boundaries inside 32-bit
    # words unless every chunk but the last holds an even number of families
    if chunk is not None:
        monkeypatch.setattr(suite, "_AUDIT_CHUNK", chunk)
    for p, rank, families in [(3, 3, 61), (5, 2, 33), (6, 3, 41), (7, 2, 71), (3, 1, 5)]:
        rng, twin = random.Random(p * rank), random.Random(p * rank)
        drawn = np.concatenate(list(suite._audit_bits(rng, p, rank, families)))
        assert np.array_equal(drawn, _audit_bits_one_call(twin, p, rank, families))
        assert rng.getrandbits(80) == twin.getrandbits(80)


def test_audit_draw_memory_per_cell():
    # 200 families of 10 sets of 10**4 cells: the one-call draw of these 2 * 10**7
    # cells peaked at about 4 bytes a cell; the audit counts a chunk of families at a time
    p, rank, families = 10, 4, 200
    tracemalloc.start()
    try:
        ok, values = _audit_counts(p, rank, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok and values == {"families": families}
    assert peak <= 1.5 * families * p * p**rank


def test_the_audit_builds_no_parysset(monkeypatch):
    def refuse(*args):
        pytest.fail("the overlap audit built a PArySet")

    monkeypatch.setattr(stepfn.PArySet, "__init__", refuse)
    for p, max_rank in [(2, 1), (5, 2), (6, 3), (3, 4)]:
        assert _audit_counts(p, max_rank, 7) == (True, {"families": 200})


def test_the_audit_decides_each_family_by_the_overlap_bound(monkeypatch):
    # p = 3 over N = 9 cells: a family passes iff 2|H| >= 3a - 9, so a family
    # at the bound passes and one a cell short of it fails the whole audit
    for twice, smallest, ok in [(3, 5, True), (2, 5, False), (0, 3, True), (0, 4, False)]:
        counts = lambda bits, t=twice, a=smallest: (np.full(len(bits), t), np.full(len(bits), a))
        monkeypatch.setattr(suite, "overlap_counts", counts)
        assert _audit_counts(3, 2, 7) == (ok, {"families": 200})


def test_verify_does_not_import_numpy_random(tmp_path):
    # importing numpy.random costs about 14 ms a process; the suite draws from random.Random
    root = Path(__file__).resolve().parents[1]
    argv = ["verify", "--p", "3", "--max-rank", "2", "--out", str(tmp_path / "r.json")]
    code = (
        "import sys\n"
        "from vcchaos.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
