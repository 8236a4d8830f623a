import json
import time

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
