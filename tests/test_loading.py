"""The package loads each layer on first use, and a command loads only the layers it calls."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vcchaos

ROOT = Path(__file__).resolve().parent.parent

# every public name of the package, with the module that defines it
EXPORTS = {
    "cyclo": ["CycloArray", "cyclotomic_polynomial", "root_of_unity"],
    "indices": [
        "IndexKind", "IndexSpec", "contains", "count_below_power", "digit_pattern",
        "enumerate_members", "exact_weight", "full_chaos", "iter_members",
        "pattern_multiplicity_check", "unit_chaos",
    ],
    "khinchin": [
        "KhinchinReport", "estimate_constant", "estimate_l1_constant", "l1_lower_ratio_with_error",
        "moment_even_pow_exact", "norm_ratio_pow_exact", "sample_unit_coefficients",
    ],
    "pary": [
        "DEFAULT_CELL_CAP", "RankCapError", "digit_count", "digits_of_integer", "digitwise_add",
        "run_cell_cap",
    ],
    "stepfn": [
        "Distribution", "PArySet", "StepFn", "at_least_two", "independence_check",
        "symmetric_decomposition",
    ],
    "uniqueness": [
        "SharpnessReport", "common_core", "overlap_bound_check", "shifted_family",
        "witness_full_chaos", "witness_unit_chaos",
    ],
    "vc": [
        "exponent_table", "matrix_op_norm", "rademacher", "synthesize", "vc_function",
        "vc_transform_exact", "vc_transform_float", "verify_inverse_identity",
    ],
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_every_public_name_resolves(module, name):
    defined = getattr(importlib.import_module(f"vcchaos.{module}"), name)
    assert getattr(vcchaos, name) is defined
    namespace = {}
    exec(f"from vcchaos import {name}", namespace)
    assert namespace[name] is defined
    assert name in vcchaos.__all__ and name in dir(vcchaos)


def test_the_export_list_is_complete():
    assert sorted(vcchaos.__all__) == sorted(["__version__", *(n for v in EXPORTS.values() for n in v)])
    assert vcchaos.__version__ == "0.1.0"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        vcchaos.no_such_name
    with pytest.raises(ImportError):
        exec("from vcchaos import no_such_name", {})
    assert getattr(vcchaos, "missing", None) is None


def _layers_loaded(tmp_path, argv):
    code = (
        "import json, sys\n"
        "from vcchaos.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('vcchaos'))]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    return set(modules)


def test_transform_and_index_load_only_their_layers(tmp_path):
    (tmp_path / "in.txt").write_text("1\n2\n3\n4\n")
    transform = ["transform", "--p", "2", "--input", "in.txt", "--output", "out.txt"]
    # the float transform needs no cyclotomic layer; the exact one loads it
    assert _layers_loaded(tmp_path, [*transform, "--mode", "float"]) == {
        "vcchaos", "vcchaos.cli", "vcchaos.pary", "vcchaos.vc"
    }
    loaded = _layers_loaded(tmp_path, [*transform, "--mode", "exact"])
    assert {"vcchaos.vc", "vcchaos.cyclo"} <= loaded
    assert not loaded & {"vcchaos.khinchin", "vcchaos.uniqueness", "vcchaos.indices", "vcchaos.stepfn"}
    loaded = _layers_loaded(tmp_path, ["index", "--set", "v", "--p", "2", "--d", "1", "--max", "9"])
    assert "vcchaos.indices" in loaded
    assert not loaded & {"vcchaos.khinchin", "vcchaos.uniqueness", "vcchaos.vc", "vcchaos.cyclo"}


def test_khinchin_and_verify_load_only_their_layers(tmp_path):
    khinchin = ["khinchin", "--p", "2", "--d", "1", "--set", "v", "--N", "64", "--trials", "5"]
    khinchin += ["--seed", "1"]
    layers = {"vcchaos", "vcchaos.cli", "vcchaos.pary", "vcchaos.indices", "vcchaos.khinchin"}
    assert _layers_loaded(tmp_path, [*khinchin, "--q", "3", "--mode", "float"]) == layers
    # the exact certificate of an even-q ratio needs no cyclotomic layer either
    exact = _layers_loaded(tmp_path, [*khinchin, "--q", "4", "--mode", "exact", "--l1"])
    assert exact == layers
    loaded = _layers_loaded(tmp_path, ["verify", "--p", "3", "--max-rank", "2", "--seed", "1"])
    assert "vcchaos.stepfn" in loaded and "vcchaos.khinchin" not in loaded
