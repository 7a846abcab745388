"""Static checks on the package source that need no linter."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import stabforge

MODULES = sorted(p for p in Path(stabforge.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "import math\nimport numpy as np\nfrom .gf import Field, field_make\nx = np.zeros(1)\nfield_make(2, 1)\n"
    assert _unused_imports(source) == ["line 1: math", "line 3: Field"]


def _private_names(source: str) -> list[str]:
    """The module-level `_name`s a source defines: functions, classes and
    assignments, dunders left out."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [x for x in names if x.startswith("_") and not x.startswith("__")]


def _read_names(source: str) -> set[str]:
    """Every name a source reads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def _dead_names(sources: list[str]) -> list[str]:
    """Module-level private names that no source reads."""
    read = set().union(*map(_read_names, sources))
    return sorted(x for s in sources for x in _private_names(s) if x not in read)


def test_no_dead_private_names():
    sources = [p.read_text(encoding="utf-8") for p in Path(stabforge.__file__).parent.glob("*.py")]
    assert sum(len(_private_names(s)) for s in sources) > 50  # the check sees the package's helpers
    assert _dead_names(sources) == []


def test_the_check_sees_a_dead_private_name():
    sources = ["def _is_prime(p):\n    return p > 1\n_LIMIT = 8\n__all__ = []\n", "from .gf import _LIMIT\nx = _LIMIT\n"]
    assert _dead_names(sources) == ["_is_prime"]
