"""Print the code lines of each module under a source tree, and their total.

A code line is a non-blank line that is not only a comment and lies outside
every docstring (of a module, class or function).  Usage:

    python3 tools/code_lines.py [src/tangentcat]
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that docstrings occupy."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines holding a token other than a comment, outside docstrings."""
    skip = docstring_lines(ast.parse(source))
    ignored = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in ignored:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    root = argv[1] if len(argv) > 1 else os.path.join("src", "tangentcat")
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                count = code_lines(fh.read())
            total += count
            print(f"{count:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
