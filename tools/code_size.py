#!/usr/bin/env python3
"""Count the code lines of every ``src/pcreg`` module.

Usage::

    python3 tools/code_size.py [CHECKOUT]

``CHECKOUT`` is the root of a pcreg source tree (default: this one).  A
physical line counts when a token of code starts on it or spans it;
comments, blank lines and docstrings (the leading string of a module,
class or function) are left out.  One line per file is printed, then the
total, so two checkouts can be compared with one command each.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED_TOKENS = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstrings in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Physical lines of ``source`` holding code, docstrings left out."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED_TOKENS:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    package = root / "src" / "pcreg"
    files = sorted(package.glob("*.py"))
    if not files:
        print(f"code_size: no Python files under {package}", file=sys.stderr)
        return 2
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
