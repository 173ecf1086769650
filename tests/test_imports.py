"""No module of the package imports a name it never uses or defines a
function or class that nothing names.

Stdlib-`ast` stand-ins for a linter's unused-import and dead-code checks,
run on `src/shortgf/*.py`.  `__init__.py` is left out: its imports are the
public re-exports.  An imported name counts as used when the module reads
it anywhere or lists it in `__all__`.  A module-level function or class
counts as used when some file under `src/`, `tests/`, `perfbench/` or
`scripts/` other than `__init__.py` names it outside its own body: as a
variable, an attribute, an imported name or a string constant (the
benchmark tracer and `monkeypatch.setattr` name functions by string).
"""

import ast
import pathlib
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "shortgf"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCANNED = sorted(
    p
    for top in ("src", "tests", "perfbench", "scripts")
    for p in (ROOT / top).rglob("*.py")
    if p != SRC / "__init__.py"
)


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


def imported_modules(source):
    """Top-level names of every module that `source` imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_the_acceptance_suite_imports_random():
    # results must not depend on a seed: only the random trials of
    # `selftest` draw from an RNG
    assert "random" in imported_modules("from random import Random\n")
    importers = [
        p.name for p in SRC.glob("*.py") if "random" in imported_modules(p.read_text())
    ]
    assert importers == ["acceptance.py"]


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def unused_definitions(modules, scanned):
    """`module.name` of every module-level function or class in `modules`
    (name -> source) that no source in `scanned` names outside its body."""
    counts = Counter()
    for source in scanned:
        counts.update(_names(ast.parse(source)))
    unused = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = sum(1 for name in _names(node) if name == node.name)
                if counts[node.name] == own:
                    unused.append(f"{module}.{node.name}")
    return sorted(unused)


def test_checker_flags_an_unused_definition():
    module = (
        "class Used:\n    pass\n"
        "def walk(node):\n    return [walk(c) for c in node]\n"
        "def traced():\n    pass\n"
        "def entry():\n    return Used()\n"
    )
    caller = "from pkg.mod import entry\nTARGETS = [('mod', 'traced')]\n"
    assert unused_definitions({"mod": module}, [module, caller]) == ["mod.walk"]


def test_no_unused_definitions():
    modules = {p.stem: p.read_text() for p in MODULES}
    assert unused_definitions(modules, [p.read_text() for p in SCANNED]) == []
