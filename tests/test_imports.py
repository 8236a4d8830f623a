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
