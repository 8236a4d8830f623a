import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vcchaos import cli
from vcchaos.cli import main
from vcchaos.indices import full_chaos
from vcchaos.khinchin import estimate_l1_constant
from vcchaos.pary import RankCapError, check_rank


def run(args):
    return main(args)


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


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
    # the pattern-multiplicity check compares 15**3 patterns with 675 members at p = 16
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


def test_sharpness_report_values(tmp_path):
    out = tmp_path / "sharp.json"
    assert run(["sharpness", "--p", "3", "--d", "2", "--out", str(out)]) == 0
    report = load_report(out)
    values = {c["name"]: c["values"] for c in report["checks"]}
    assert values["unit-chaos-witness"]["level_set_measure"] == "5/9"
    assert values["full-chaos-witness"]["level_set_measure"] == "8/9"


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
    # real, the others have irrational imaginary parts (printed via eval_complex)
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


def test_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--p", "2", "--max-rank", "3", "--seed", "9"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    ra, rb = load_report(a), load_report(b)
    ra.pop("wall_time_s"), rb.pop("wall_time_s")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


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
