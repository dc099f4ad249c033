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
