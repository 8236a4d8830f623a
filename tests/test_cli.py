import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vcchaos import cli, khinchin, uniqueness
from vcchaos.cli import main
from vcchaos.indices import full_chaos
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


def test_verify_rank_cap_is_config_error():
    assert run(["verify", "--p", "2", "--max-rank", "40"]) == 2


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

    monkeypatch.setattr(cli, "_verify_checks", no_checks)
    assert run(["verify", "--p", "3", "--max-rank", "1", "--cell-cap", "3"]) == 2
    assert run(["verify", "--p", "2", "--max-rank", "0", "--cell-cap", "1"]) == 2


def test_verify_refuses_its_exponent_tables_up_front(monkeypatch):
    # at the default max rank 3 the inverse-identity and operator-norm checks
    # would build a 20**3 x 20**3 exponent table (512 MB of int64)
    def no_checks(*args):
        pytest.fail("a check ran although the exponent tables exceed the cap")

    monkeypatch.setattr(cli, "_verify_checks", no_checks)
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


def test_verify_bad_tolerance_is_config_error():
    # nan used to fail the operator-norm check (exit 1); inf made it pass vacuously
    for tolerance in ("-1e-9", "nan", "inf"):
        assert run(["verify", "--p", "2", "--tolerance", tolerance]) == 2


def test_khinchin_float_mode_reports_error_bound(tmp_path):
    out = tmp_path / "report.json"
    code = run(
        [
            "khinchin", "--p", "2", "--d", "1", "--set", "v", "--q", "4",
            "--N", "16", "--trials", "10", "--seed", "1", "--mode", "float",
            "--out", str(out),
        ]
    )
    assert code == 0
    values = load_report(out)["checks"][0]["values"]
    assert "best_ratio_err" in values and "best_ratio_pow_exact" not in values


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
        spec=full_chaos(2, 1), q=3, upper=4, trials=1, seed=0, method="random x 1",
        members=3, best_ratio=math.inf, best_ratio_err=math.nan,
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


def test_unknown_flag_is_config_error(capsys):
    assert run(["verify", "--p", "2", "--bogus"]) == 2


def test_sharpness_honours_cell_cap(monkeypatch):
    # the witnesses' level sets and products live on grids the run built under --cell-cap
    monkeypatch.setenv("VCCHAOS_CELL_CAP", "3")
    assert run(["sharpness", "--p", "2", "--d", "2", "--cell-cap", "4"]) == 0
    assert run(["sharpness", "--p", "2", "--d", "2", "--cell-cap", "3"]) == 2


def test_sharpness_full_witness_builds_its_factors_fast():
    # each factor is a sum of p VC functions, so no power of R_k is built by repeated products
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
    # R_k -> VC_(2 p^k) = R_k^2: the unit witness expands onto indices with a
    # digit 2, the full witness is unchanged since R^2 + R^4 = R^2 + R for p = 3
    monkeypatch.setattr(uniqueness, "rademacher", lambda p, k: vc_function(p, 2 * p**k))
    assert uniqueness.witness_unit_chaos(3, 2).holds is False
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
        ["verify", "--p", "2", "--max-rank", "2", "--seed", "4", "--tolerance", "1e-8"],
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
    ("operator-norm", "power iteration on VC^(k) returns p^(k/2)"),
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
        {"tolerance": 1e-09},
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
            ["verify", "--p", "2", "--max", "0", "--tol", "0.5"],
            ["verify", "--p", "2", "--max-rank", "0", "--tolerance", "0.5"],
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


def test_audit_masks_draw():
    p, rank, count = 6, 3, 1200
    masks = cli._audit_masks(random.Random(5), p, rank, count)
    assert len(masks) == count and all(0 <= mask < 1 << p**rank for mask in masks)
    density = sum(mask.bit_count() for mask in masks) / (count * p**rank)
    assert abs(density - 0.6) <= 0.005
    assert cli._audit_masks(random.Random(5), p, rank, count) == masks
    # one getrandbits call: the stream moves on by 16 bits a cell, and cell m of
    # set i reads word i * cells + m
    rng, twin = random.Random(5), random.Random(5)
    small = cli._audit_masks(rng, 3, 1, 4)
    bits = twin.getrandbits(16 * 12)
    words = [(bits >> (16 * w)) & 0xFFFF for w in range(12)]
    assert small == [
        sum(1 << m for m in range(3) if words[3 * i + m] < 39322) for i in range(4)
    ]
    assert rng.getrandbits(64) == twin.getrandbits(64)


def _audit_masks_one_call(rng, p, rank, count):
    """The one-call draw _audit_masks replaced, kept as its oracle."""
    cells = p**rank
    words = np.frombuffer(
        rng.getrandbits(16 * count * cells).to_bytes(2 * count * cells, "little"), dtype="<u2"
    )
    packed = np.packbits((words < cli._AUDIT_THRESHOLD).reshape(count, cells), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


@pytest.mark.parametrize("chunk", [1, 30, 200, None])
def test_chunked_audit_draw_is_the_one_call_draw(monkeypatch, chunk):
    # odd cell counts (27, 25, 49) put the chunk boundaries inside 32-bit words
    # unless every chunk but the last holds an even number of sets
    if chunk is not None:
        monkeypatch.setattr(cli, "_AUDIT_CHUNK", chunk)
    for p, rank, count in [(3, 3, 61), (5, 2, 33), (6, 3, 41), (7, 2, 71), (3, 1, 5)]:
        rng, twin = random.Random(p * rank), random.Random(p * rank)
        assert cli._audit_masks(rng, p, rank, count) == _audit_masks_one_call(twin, p, rank, count)
        assert rng.getrandbits(80) == twin.getrandbits(80)


def test_audit_draw_memory_per_cell():
    # 2,000 sets of 10**4 cells: the one-call draw peaked at about 4 bytes a cell
    p, rank, count = 10, 4, 2000
    tracemalloc.start()
    try:
        masks = cli._audit_masks(random.Random(1), p, rank, count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(masks) == count
    assert peak <= 1.5 * count * p**rank


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
