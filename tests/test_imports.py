"""Every name a library module imports is read by that module (no linter is installed)."""

import ast
import importlib
from pathlib import Path

import pytest

import obstructor

SOURCES = sorted(Path(obstructor.__file__).parent.glob("*.py"))

# module -> imported names it keeps without reading them, each with its reason
KEPT = {
    # perfbench/tracing.py wraps conemaps.int_matmul as the exact.int_matmul
    # span; drop the wrap and this import together
    "conemaps": {"int_matmul"},
}


def _imported(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text())
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    module = obstructor if path.stem == "__init__" else importlib.import_module(f"obstructor.{path.stem}")
    exported = set(getattr(module, "__all__", ()))
    kept = KEPT.get(path.stem, set())
    assert _imported(tree) - read - exported == kept


def _reads(node) -> set:
    """Names loaded, and attributes read, anywhere in `node`."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)}


def _private_definitions(tree):
    """(name, statement) for each module-level _name a statement defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        yield from ((name, node) for name in names if name.startswith("_") and not name.startswith("__"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_every_private_name_is_read_by_the_package(path):
    # a helper that only reads itself, or that only tests read, is dead
    trees = {p: ast.parse(p.read_text()) for p in SOURCES}
    reads = [(top, _reads(top)) for tree in trees.values() for top in tree.body]
    unread = [name for name, node in _private_definitions(trees[path])
              if not any(name in r for top, r in reads if top is not node)]
    assert unread == []
