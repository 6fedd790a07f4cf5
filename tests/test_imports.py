"""The package's modules import each other at module top only: a relative
import inside a function hides a cycle between two modules instead of
resolving it."""
import ast
from pathlib import Path

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
