#!/usr/bin/env python3
"""Count the code lines of each module under src/fairvec, and their total.

A code line holds at least one token of code: blank lines, comment-only
lines and the lines of docstrings (a string literal that is the first
statement of a module, class or function, found with ``ast``) do not count.

Usage: python scripts/code_lines.py [PACKAGE_DIR]   (default: src/fairvec)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    lines = {
        n
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type not in _NOT_CODE
        for n in range(tok.start[0], tok.end[0] + 1)
    }
    return len(lines - _docstring_lines(ast.parse(source, str(path))))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else "src/fairvec")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
