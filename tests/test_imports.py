"""Every module of the package and of the tests uses each name it imports.

No linter ships with the project, and deleting code tends to leave imports
behind, so this reads each module's syntax tree: an imported name counts as
used when it appears as a name anywhere in the module, including inside a
quoted annotation.  Package __init__ modules re-export what they import and
`from __future__ import annotations` binds nothing, so both are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for path in [*ROOT.glob("src/vcchaos/*.py"), *ROOT.glob("tests/*.py")]
    if path.name != "__init__.py"
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotation(node: ast.AST) -> ast.expr | None:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.returns
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return node.annotation
    return None


def _used(tree: ast.AST) -> set[str]:
    """Every name the module reads, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = _annotation(node)
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used |= _used(ast.parse(part.value, mode="eval"))
    return used


def test_the_scan_sees_every_kind_of_use():
    source = (
        "import os.path\nimport numpy as np\nfrom typing import Sequence, Mapping\n"
        "from fractions import Fraction\nfrom math import gcd\n"
        "def f(x: 'Sequence[int]') -> Mapping: return np.ones(os.sep)\n"
    )
    tree = ast.parse(source)
    assert set(_imported(tree)) - _used(tree) == {"Fraction", "gcd"}


def test_every_import_is_used():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = _imported(tree)
        for name in sorted(set(imported) - _used(tree), key=imported.get):
            unused.append(f"{path.relative_to(ROOT)}:{imported[name]} {name}")
    assert MODULES and not unused, "imported but never used: " + ", ".join(unused)


SOURCES = sorted(ROOT.glob("src/vcchaos/*.py"))


def _module_imports(tree: ast.Module, package: str) -> set[str]:
    """The absolute name of every module, or module member, the tree imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative to the package
                module = f"{package}.{module}" if module else package
            names.add(module)
            names |= {f"{module}.{alias.name}" for alias in node.names}
    return names


def test_the_import_scan_resolves_relative_imports():
    source = "import dataclasses\nfrom . import cli\nfrom .cli import main\nfrom .pary import x\n"
    names = _module_imports(ast.parse(source), "vcchaos")
    assert {"dataclasses", "vcchaos.cli", "vcchaos.cli.main", "vcchaos.pary.x"} <= names


def test_no_module_imports_dataclasses_or_the_cli():
    # a dataclass costs every process the dataclasses import and its class
    # build; importing vcchaos.cli from another module runs the CLI module a
    # second time under `python -m vcchaos.cli`
    found = []
    for path in SOURCES:
        names = _module_imports(ast.parse(path.read_text(), filename=str(path)), "vcchaos")
        if "dataclasses" in names or any(n.startswith("dataclasses.") for n in names):
            found.append(f"{path.name} imports dataclasses")
        if path.name != "cli.py" and "vcchaos.cli" in names:
            found.append(f"{path.name} imports vcchaos.cli")
    assert SOURCES and not found, ", ".join(found)
