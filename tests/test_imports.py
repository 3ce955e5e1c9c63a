"""Import hygiene of the package, checked with the standard library alone.

Every name a module exports must resolve, and every module-level import
must be used or re-exported, so a deletion cannot leave a stale name
behind.
"""

import ast
from importlib import import_module
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "aluthge").glob("*.py"))


def _module_name(path: Path) -> str:
    return "aluthge" if path.stem == "__init__" else f"aluthge.{path.stem}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_exports_resolve(path):
    module = import_module(_module_name(path))
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names)), "duplicate names in __all__"
    assert [name for name in names if not hasattr(module, name)] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(getattr(import_module(_module_name(path)), "__all__", []))
    assert sorted(imported - used - exported) == []
