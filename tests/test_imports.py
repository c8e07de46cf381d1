"""Every name imported into a ``dyadicops`` module is used in it.

``pyflakes`` is not a dependency, so this walks each module's syntax tree
with the standard library.  ``__init__.py`` is exempt: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import dyadicops

PACKAGE = Path(dyadicops.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name bound by an import at any depth, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= string_annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= string_annotation_names(node.returns)
    return used


def string_annotation_names(annotation: ast.expr) -> set[str]:
    if not (isinstance(annotation, ast.Constant) and isinstance(annotation.value, str)):
        return set()
    tree = ast.parse(annotation.value, mode="eval")
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {
        name: line for name, line in imported_names(tree).items() if name not in used
    }
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Sequence\n\ndef f(x: 'Sequence'):\n    pass\n")
    assert {n for n in imported_names(tree) if n not in used_names(tree)} == {"os"}
