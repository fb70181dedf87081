#!/usr/bin/env python3
"""Print the code-line count of each module of ``src/submod``.

    python3 tools/loc.py

A code line is a line that holds a token other than a comment, outside
docstrings.  A token that spans lines, such as a multi-line string, counts
every line it spans.  A docstring is a string literal that stands as the
first statement of a module, class or function.  The script prints one
count per module, then the total with and without ``reference.py``, the
module the package does not import.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "submod"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(source: str) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of ``source`` begins."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    docstrings = docstring_starts(source)
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in SKIPPED or token.type == tokenize.STRING and token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> None:
    counts = {path.name: code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:<16} {count:>6}")
    total = sum(counts.values())
    print(f"{'total':<16} {total:>6}")
    print(f"{'w/o reference':<16} {total - counts.get('reference.py', 0):>6}")


if __name__ == "__main__":
    main()
