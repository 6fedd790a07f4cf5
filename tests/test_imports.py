"""The package's modules import each other at module top only, and along
no cycle: a relative import inside a function hides a cycle between two
modules instead of resolving it."""
import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import renyiflow as rf


def test_no_relative_import_inside_a_function():
    nested = []
    for path in sorted(Path(rf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(scope)
                           if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert not nested, nested


def _package_imports() -> dict[str, set[str]]:
    """module -> the modules of the package it imports with `from .x import`,
    wherever the import stands (under `if TYPE_CHECKING:` too); __init__,
    which imports them all, is left out."""
    graph = {}
    for path in sorted(Path(rf.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        graph[path.stem] = {node.module for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom) and node.level == 1}
    return graph


def test_import_graph_has_no_cycle():
    try:
        TopologicalSorter(_package_imports()).prepare()
    except CycleError as e:
        pytest.fail(f"import cycle: {' -> '.join(e.args[1])}")
