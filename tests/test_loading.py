"""The package loads each layer on first use, and a command loads only the layers it calls."""

import ast
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
        "KhinchinReport", "estimate_constant", "estimate_l1_constant", "norm_ratio_pow_exact",
        "sample_unit_coefficients",
    ],
    "pary": [
        "DEFAULT_CELL_CAP", "RankCapError", "digit_count", "digitwise_add", "run_cell_cap",
    ],
    "stepfn": [
        "Distribution", "PArySet", "StepFn", "independence_check",
        "symmetric_decomposition",
    ],
    "uniqueness": [
        "SharpnessReport", "overlap_bound_check", "witness_full_chaos", "witness_unit_chaos",
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


def _referenced_names(path: Path) -> set[str]:
    """Names a module reads, as a bare name or an attribute, outside the definition of that name."""
    names = set()
    for top in ast.parse(path.read_text()).body:
        found = {node.id for node in ast.walk(top) if isinstance(node, ast.Name)}
        found |= {node.attr for node in ast.walk(top) if isinstance(node, ast.Attribute)}
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            found.discard(top.name)
        names |= found
    return names


def test_every_public_name_is_reached_by_the_package_or_the_acceptance_suite():
    # the export table holds its names as strings, so it references none of them
    used = set().union(*map(_referenced_names, (ROOT / "src" / "vcchaos").glob("*.py")))
    used |= _referenced_names(ROOT / "tests" / "test_acceptance.py")
    assert sorted(name for name in vcchaos._EXPORTS if name not in used) == []


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
        "vcchaos", "vcchaos.cli", "vcchaos.pary", "vcchaos.vc", "vcchaos.textio"
    }
    loaded = _layers_loaded(tmp_path, [*transform, "--mode", "exact"])
    assert {"vcchaos.vc", "vcchaos.cyclo", "vcchaos.textio"} <= loaded
    assert not loaded & {"vcchaos.khinchin", "vcchaos.uniqueness", "vcchaos.indices", "vcchaos.stepfn"}
    loaded = _layers_loaded(tmp_path, ["index", "--set", "v", "--p", "2", "--d", "1", "--max", "9"])
    assert "vcchaos.indices" in loaded
    assert not loaded & {
        "vcchaos.khinchin", "vcchaos.uniqueness", "vcchaos.vc", "vcchaos.cyclo", "vcchaos.textio"
    }


def test_khinchin_and_verify_load_only_their_layers(tmp_path):
    khinchin = ["khinchin", "--p", "2", "--d", "1", "--set", "v", "--N", "64", "--trials", "5"]
    khinchin += ["--seed", "1"]
    layers = {"vcchaos", "vcchaos.cli", "vcchaos.pary", "vcchaos.indices", "vcchaos.khinchin"}
    assert _layers_loaded(tmp_path, [*khinchin, "--q", "3", "--mode", "float"]) == layers
    # the exact certificate of an even-q ratio needs no cyclotomic layer either
    exact = _layers_loaded(tmp_path, [*khinchin, "--q", "4", "--mode", "exact", "--l1"])
    assert exact == layers
    # --mode float certifies every even q the same way
    assert _layers_loaded(tmp_path, [*khinchin, "--q", "6", "--mode", "float"]) == layers
    loaded = _layers_loaded(tmp_path, ["verify", "--p", "3", "--max-rank", "2", "--seed", "1"])
    assert "vcchaos.stepfn" in loaded and not loaded & {"vcchaos.khinchin", "vcchaos.textio"}
    # the overlap audit counts its draws with stepfn's kernel, not uniqueness's PArySet audit
    assert "vcchaos.uniqueness" not in loaded


def test_sharpness_loads_no_step_function_layer(tmp_path):
    # each witness is certified at its rank-1 factor, so no StepFn or PArySet is built
    assert _layers_loaded(tmp_path, ["sharpness", "--p", "3", "--d", "4"]) == {
        "vcchaos", "vcchaos.cli", "vcchaos.pary", "vcchaos.cyclo", "vcchaos.indices", "vcchaos.vc",
        "vcchaos.uniqueness",
    }
    assert "vcchaos.stepfn" not in _imports_of(tmp_path, COMMANDS["sharpness"])


def _imports_of(tmp_path, argv):
    """The modules a `python -m vcchaos.cli` process imports, as -X importtime lists them."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "vcchaos.cli", *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    return {line.rpartition("|")[2].strip() for line in lines[1:]}


COMMANDS = {
    "verify": ["verify", "--p", "2", "--max-rank", "1", "--seed", "1"],
    "sharpness": ["sharpness", "--p", "2", "--d", "1"],
    "khinchin": ["khinchin", "--p", "2", "--d", "1", "--set", "v", "--N", "16", "--trials", "3"],
    "transform-float": ["transform", "--p", "2", "--input", "in.txt", "--output", "out.txt"],
    "transform-exact": ["transform", "--p", "2", "--mode", "exact", "--input", "in.txt", "--output", "out.txt"],
    "index": ["index", "--set", "v", "--p", "2", "--d", "1", "--max", "9"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_no_module_it_does_not_run(tmp_path, command):
    (tmp_path / "in.txt").write_text("1\n2\n3\n4\n")
    loaded = _imports_of(tmp_path, COMMANDS[command])
    assert "vcchaos.pary" in loaded
    # no record class is a dataclass, and csv serves --format csv alone
    assert not loaded & {"dataclasses", "csv"}
    # only verify runs the suite, and only sharpness certifies witnesses
    assert ("vcchaos.suite" in loaded) == (command == "verify")
    assert ("vcchaos.uniqueness" in loaded) == (command == "sharpness")
    # the running CLI is __main__: importing vcchaos.cli would compile and run it again
    assert "vcchaos.cli" not in loaded
    # json is loaded to write a report, and never for text arrays or a member list
    assert ("json" in loaded) == (command in ("verify", "sharpness", "khinchin"))


def test_csv_is_loaded_for_a_csv_report_alone(tmp_path):
    loaded = _imports_of(tmp_path, [*COMMANDS["sharpness"], "--format", "csv"])
    assert "csv" in loaded and "dataclasses" not in loaded
    # a JSON transform file loads json
    (tmp_path / "in.json").write_text("[1, 2]\n")
    argv = ["transform", "--p", "2", "--input", "in.json", "--output", "out.json"]
    assert "json" in _imports_of(tmp_path, argv)
