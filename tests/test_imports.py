"""No module of the package imports a name it never uses.

A stdlib-`ast` stand-in for a linter's unused-import check, run on
`src/shortgf/*.py`.  `__init__.py` is left out: its imports are the public
re-exports.  A name counts as used when the module reads it anywhere or
lists it in `__all__`.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "shortgf"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                e.value for e in node.value.elts if isinstance(e, ast.Constant)
            )
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used
    )


def test_checker_flags_an_unused_import():
    source = (
        "import os\n"
        "from fractions import Fraction\n"
        "from . import _linalg as la\n"
        "__all__ = ['Fraction']\n"
        "os.sep\n"
    )
    assert unused_imports(source) == ["la (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
