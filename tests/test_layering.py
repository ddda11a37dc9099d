"""Package imports stay at module level, and only the public exact
factorizer orders its factors.

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


def functions_referencing(source: str, name: str) -> list[str]:
    """Top-level statements other than imports that mention ``name``, by
    the name they define (functions and classes) or by their node type."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any(isinstance(inner, ast.Name) and inner.id == name for inner in ast.walk(node)):
            found.append(getattr(node, "name", type(node).__name__))
    return found


def test_only_factor_exact_orders_factors():
    # internal factorizations stay in split-search order; the canonical
    # order costs a canonical labelling per factor and only the public
    # result promises it
    source = (PACKAGE / "factorize.py").read_text()
    assert functions_referencing(source, "canonical_form") == ["factor_exact"]


def test_the_check_sees_a_nested_reference():
    source = (
        "from .isomorphism import canonical_form\n"
        "def f():\n    def g():\n        return sorted(x, key=canonical_form)\n"
        "class C:\n    def m(self):\n        return canonical_form(self)\n"
        "order = canonical_form\n"
    )
    assert functions_referencing(source, "canonical_form") == ["f", "C", "Assign"]
