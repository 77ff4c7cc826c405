"""Count the code lines of a Python package: lines that hold a token of code.

Comments, blank lines and docstrings (the leading string statement of a
module, class or function, found through ``ast``) are left out; every
other line that holds a token from ``tokenize`` counts once, including
each line of a multi-line string or bracket.  This is the count
CHANGES.md and ROADMAP.md give for ``src/paoiplan``.

Usage: ``python tools/code_lines.py [DIRECTORY ...]`` (default
``src/paoiplan``).  Prints one line per file and the total.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module and its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_bytes()
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    total = 0
    for directory in argv or ["src/paoiplan"]:
        for path in sorted(Path(directory).rglob("*.py")):
            count = code_lines(path)
            total += count
            print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
