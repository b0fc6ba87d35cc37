"""Count code lines per package of ``src/repro``.

A code line carries at least one token that is not a comment, a
module/class/function docstring or whitespace.  Blank lines, comment-only
lines and docstring lines do not count; a line inside any other
multi-line string does.  Usage::

    python scripts/loc.py            # per-package table and total
    python scripts/loc.py src/repro  # same, for another root
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) of every module/class/function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                starts.add((body[0].value.lineno, body[0].value.col_offset))
    return starts


def code_lines(source: str) -> int:
    docstrings = _docstring_starts(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "repro"
    per_package: dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        package = rel.parts[0] if len(rel.parts) > 1 else "(top level)"
        per_package[package] = per_package.get(package, 0) + code_lines(path.read_text())
    width = max(len(name) for name in per_package)
    for name, count in sorted(per_package.items()):
        print(f"{name:<{width}}  {count:>6}")
    print(f"{'total':<{width}}  {sum(per_package.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
