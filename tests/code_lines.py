"""Count the code lines of each module of ``src/strongpfd`` and their total.

A code line is a physical line that holds a token of code: blank lines,
comment-only lines and the lines of docstrings (the leading string of a
module, class or function) are left out.  A statement that spans several
lines counts each line that holds one of its tokens.

Run it from anywhere: ``python3 tests/code_lines.py``.  It prints one
``<module> <lines>`` row per module, sorted by name, and a ``total`` row.
Pytest does not collect it.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "strongpfd"

#: tokens that are not code by themselves
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers taken by the docstrings of ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python ``source``."""
    skipped = docstring_lines(ast.parse(source))
    found: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in LAYOUT:
            continue
        found.update(n for n in range(token.start[0], token.end[0] + 1) if n not in skipped)
    return len(found)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name} {count}")
    print(f"total {total}")


if __name__ == "__main__":
    main()
