"""Package imports stay at module level.

An import inside a function body is how a module reaches back into one that
imports it; keeping every relative import at the top of its module keeps
the dependency order between the modules acyclic and visible.
"""

from __future__ import annotations

import ast
from pathlib import Path

import strongpfd

PACKAGE = Path(strongpfd.__file__).resolve().parent


def function_level_imports(source: str) -> list[tuple[int, str]]:
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.ImportFrom) and inner.level > 0:
                    found.add((inner.lineno, "." * inner.level + (inner.module or "")))
    return sorted(found)


def test_no_relative_import_inside_a_function():
    offenders = {
        path.name: imports
        for path in sorted(PACKAGE.glob("*.py"))
        if (imports := function_level_imports(path.read_text()))
    }
    assert offenders == {}


def test_the_check_sees_a_nested_import():
    source = "def f():\n    def g():\n        from .recognize import recognize\n"
    assert function_level_imports(source) == [(3, ".recognize")]
