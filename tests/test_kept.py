"""One mechanism keeps derived values on the objects that own them.

``core._kept`` is the only function of ``dyadicops`` that touches an
object's ``__dict__`` (or its ``vars``), and no dataclass declares a
``compare=False`` dict field: a private cache beside ``_kept`` would be a
second rule for what is kept, under which key and for how long.  The
check walks each module's syntax tree with the standard library.
"""

import ast
from pathlib import Path

import dyadicops

PACKAGE = Path(dyadicops.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))

# (module, top-level function) of the one keeper
KEEPER = ("core.py", "_kept")


def dict_uses(tree: ast.Module) -> list[tuple[str, int]]:
    """(top-level name, line) of each ``x.__dict__`` and ``vars(...)``: a
    read could hand the dict to a writer, so every use counts."""
    uses = []
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            attr = isinstance(node, ast.Attribute) and node.attr == "__dict__"
            call = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "vars"
            )
            if attr or call:
                uses.append((name, node.lineno))
    return uses


def uncompared_dict_fields(tree: ast.Module) -> list[int]:
    """Lines of each dataclass field declared ``compare=False`` with a dict
    annotation or a dict default factory."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Call)):
            continue
        keywords = {k.arg: k.value for k in node.value.keywords}
        hidden = getattr(keywords.get("compare"), "value", True) is False
        factory = getattr(keywords.get("default_factory"), "id", None)
        annotation = ast.unparse(node.annotation).strip("'\"")
        if hidden and (factory == "dict" or annotation.startswith(("dict", "Dict"))):
            lines.append(node.lineno)
    return lines


def test_only_kept_touches_an_objects_dict():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{line} in {name}"
            for name, line in dict_uses(tree)
            if (path.name, name) != KEEPER
        ]
    assert not found, f"__dict__ or vars() outside core._kept: {found}"


def test_no_dataclass_hides_a_dict_field_from_equality():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in uncompared_dict_fields(tree)]
    assert not found, f"compare=False dict fields: {found}"


def test_the_checks_see_a_private_cache():
    source = '''
from dataclasses import dataclass, field

@dataclass(frozen=True)
class Symbol:
    _tables: dict = field(default_factory=dict, init=False, compare=False)
    _rows: "dict[tuple, list]" = field(default=None, compare=False)

    def table(self, key):
        self.__dict__.setdefault(key, [])
        vars(self)[key] = []
'''
    tree = ast.parse(source)
    assert [name for name, _ in dict_uses(tree)] == ["Symbol", "Symbol"]
    assert uncompared_dict_fields(tree) == [6, 7]
