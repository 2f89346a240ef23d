"""Line counts of the package source: code, docstring, comment and blank lines per module.

A docstring line is any line of a module, class or function docstring; a
comment line holds only a ``#`` comment; a blank line holds only
whitespace; every other line is a code line.  Code lines are the
measure of the design aim "the same numbers from less code".

Run from the repository root: ``python tools/src_size.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

COLUMNS = ("code", "docstring", "comment", "blank")
ROOT = Path(__file__).resolve().parent.parent / "src" / "greedyqn"


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers covered by the docstrings of ``tree``'s module, classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def split(source: str) -> dict:
    """The module's line counts by kind, keyed as in :data:`COLUMNS`."""
    docs = docstring_lines(ast.parse(source))
    counts = dict.fromkeys(COLUMNS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not text:
            counts["blank"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main() -> int:
    total = dict.fromkeys(COLUMNS, 0)
    print(f"{'module':<20}" + "".join(f"{c:>10}" for c in COLUMNS))
    for path in sorted(ROOT.glob("*.py")):
        counts = split(path.read_text())
        for c in COLUMNS:
            total[c] += counts[c]
        print(f"{path.name:<20}" + "".join(f"{counts[c]:>10}" for c in COLUMNS))
    print(f"{'total':<20}" + "".join(f"{total[c]:>10}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
