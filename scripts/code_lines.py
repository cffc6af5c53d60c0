#!/usr/bin/env python3
"""Count the code lines of each module of a package directory and in total.

A code line is a source line that holds a token and is neither blank, a
comment nor part of a docstring (the string literal that opens a module,
class or function body). Lines are found with ``tokenize``, docstrings with
``ast``; a line that a multi-line token spans counts once.

Usage: python scripts/code_lines.py [package_dir]   (default src/appellfield)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python source text ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv):
    package = Path(argv[1] if len(argv) > 1 else "src/appellfield")
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.stem:12s} {n:5d}")
    print(f"{'total':12s} {total:5d}")


if __name__ == "__main__":
    main(sys.argv)
