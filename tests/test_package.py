"""Package hygiene: every import is used, every public name resolves."""

import ast
from pathlib import Path

import pytest

import ncgb

PACKAGE = Path(ncgb.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


def imported_names(tree):
    """The names the module's imports bind, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def exported_names(tree):
    """The strings listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "division.py", "engine.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in imported_names(tree)
              if name not in used and name not in exported_names(tree)]
    assert not unused, f"{path.name} imports {unused} and never uses them"


def test_public_names_resolve():
    missing = [name for name in ncgb.__all__ if not hasattr(ncgb, name)]
    assert not missing
    assert len(set(ncgb.__all__)) == len(ncgb.__all__)
