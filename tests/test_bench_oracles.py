"""The benchmark's own output oracles accept one small operation of each benchmarked command.

perfbench/oracles.py is read and executed here without importing it, so no
bytecode is written next to it.  Each operation runs in-process through
cli.main, and its output goes to the oracle the benchmark scores it with, so
a change the benchmark would count as an incorrect output fails here first.
"""

import json
import random
import types
from pathlib import Path

import numpy as np
import pytest

from vcchaos.cli import main

ORACLES = Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"


@pytest.fixture(scope="module")
def oracles():
    module = types.ModuleType("oracles")
    exec(compile(ORACLES.read_text(), str(ORACLES), "exec"), module.__dict__)
    return module


def _stdout(capsys, args):
    capsys.readouterr()
    assert main(args) == 0
    return capsys.readouterr().out


def _report(capsys, args):
    return json.loads(_stdout(capsys, args))


def _read_complex(path):
    """'re im' lines as one complex array, as the benchmark reads transform output."""
    values = np.array(path.read_text().split(), dtype=float)
    return values[0::2] + 1j * values[1::2]


def test_sharpness_passes_its_oracle(oracles, capsys):
    report = _report(capsys, ["sharpness", "--p", "6", "--d", "2"])
    assert oracles.check_sharpness(report, p=6, d=2) == []


def test_verify_passes_its_oracle(oracles, capsys):
    report = _report(capsys, ["verify", "--p", "5", "--max-rank", "2", "--seed", "1"])
    assert oracles.check_verify(report, p=5, max_rank=2, seed=1) == []


def test_index_passes_its_oracle(oracles, capsys):
    text = _stdout(capsys, ["index", "--set", "vtilde", "--p", "3", "--d", "2", "--max", "2000"])
    assert oracles.check_index(text.splitlines(), "vtilde", 3, 2, 2000) == []


def test_exact_transform_passes_its_oracle(oracles, tmp_path):
    rng = random.Random(5)
    x = np.array([rng.randint(-9, 9) for _ in range(6**3)], dtype=float)
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text("".join(f"{int(v)}\n" for v in x))
    args = ["transform", "--p", "6", "--mode", "exact", "--direction", "forward"]
    assert main(args + ["--input", str(src), "--output", str(dst)]) == 0
    assert oracles.check_exact_roundtrip(x.astype(complex), _read_complex(dst), 6) == []


@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_float_transform_passes_its_oracle(oracles, tmp_path, direction):
    gen = np.random.default_rng(7)
    x = gen.standard_normal(2**10) + 1j * gen.standard_normal(2**10)
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text("".join(f"{a!r} {b!r}\n" for a, b in zip(x.real.tolist(), x.imag.tolist())))
    args = ["transform", "--p", "2", "--mode", "float", "--direction", direction]
    assert main(args + ["--input", str(src), "--output", str(dst)]) == 0
    assert oracles.check_float_transform(x, _read_complex(dst), 2, direction) == []


# (p, d, set, q, N, mode): khinchin-even's q = 6 and q = 4 table paths, and
# float-pipeline's q = 3 row path
KHINCHIN_CONFIGS = [(2, 2, "v", 6, 15, "exact"), (2, 1, "v", 4, 64, "exact"),
                    (3, 2, "vtilde", 3, 26, "float")]


@pytest.mark.parametrize("config, optimizer, l1", [
    pytest.param(KHINCHIN_CONFIGS[0], "ascent", True, id="ascent-True"),
    pytest.param(KHINCHIN_CONFIGS[0], "random", False, id="random-False"),
    pytest.param(KHINCHIN_CONFIGS[1], "ascent", False, id="q4-table-ascent"),
    pytest.param(KHINCHIN_CONFIGS[2], "ascent", False, id="q3-float-ascent"),
    pytest.param(KHINCHIN_CONFIGS[2], "random", False, id="q3-float-random"),
])
def test_khinchin_passes_its_oracle(oracles, capsys, config, optimizer, l1):
    p, d, kind, q, upper, mode = config
    op = {"p": p, "d": d, "set": kind, "q": q, "N": upper, "trials": 20, "seed": 11,
          "mode": mode, "l1": l1, "optimizer": optimizer}
    args = ["khinchin", "--p", str(p), "--d", str(d), "--set", kind, "--q", str(q), "--N", str(upper),
            "--trials", "20", "--seed", "11", "--mode", mode, "--optimizer", optimizer]
    report = _report(capsys, args + (["--l1"] if l1 else []))
    assert oracles.check_khinchin(report, op, replays={}) == []
