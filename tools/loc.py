"""Count code lines: lines that hold a token other than a comment or a
docstring, so blank lines, comments and docstrings are left out.

    python3 tools/loc.py [PATH ...]

Each PATH is a .py file or a directory searched for them (default: the
repository's src/).  Prints one "count path" line per file, then the total.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int],
                                                   tuple[int, int]]]:
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def count_code_lines(source: str) -> int:
    """Number of lines of `source` that hold code."""
    spans = _docstring_spans(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and any(
                lo <= tok.start and tok.end <= hi for lo, hi in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(path: str) -> list[str]:
    if not os.path.isdir(path):
        return [path]
    found = []
    for root, dirs, files in os.walk(path):
        dirs.sort()
        found.extend(os.path.join(root, f) for f in sorted(files)
                     if f.endswith(".py"))
    return found


def main(argv: list[str]) -> int:
    paths = argv or [os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")]
    total = 0
    for path in paths:
        for name in python_files(path):
            with open(name, encoding="utf-8") as f:
                n = count_code_lines(f.read())
            print(f"{n:6d} {name}")
            total += n
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
