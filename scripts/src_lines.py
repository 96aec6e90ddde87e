#!/usr/bin/env python3
"""Print the line counts of each module of ``src/selftest_lab`` and their total.

    python3 scripts/src_lines.py [DIR]

One row per ``*.py`` file of ``DIR`` (default: this checkout's
``src/selftest_lab``), then a ``total`` row, each with four counts: all
lines, as ``wc -l`` counts them; docstring lines; blank lines outside
docstrings; and code, the rest (comments included).  A docstring is the
first statement of a module, class or function when that is a string
literal, found by ``ast``; all its lines count, from its opening to its
closing quotes.
"""

import ast
import sys
from pathlib import Path

DEFAULT = Path(__file__).resolve().parents[1] / "src" / "selftest_lab"
COLUMNS = ("total", "docstring", "blank", "code")
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(text: str) -> dict[str, int]:
    """The four counts of one module's source ``text``."""
    total = text.count("\n")  # what wc -l counts
    doc = set()
    for node in ast.walk(ast.parse(text)):
        first = node.body[0] if isinstance(node, SCOPES) and node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
            if isinstance(first.value.value, str):
                doc.update(range(first.lineno, first.end_lineno + 1))
    lines = text.split("\n")[:total]
    blank = sum(1 for i, line in enumerate(lines, 1) if i not in doc and not line.strip())
    return {"total": total, "docstring": len(doc), "blank": blank, "code": total - len(doc) - blank}


def table(root: Path) -> dict[str, dict[str, int]]:
    """The counts of each ``*.py`` file of ``root``, by name, and their ``total``."""
    rows = {p.name: counts(p.read_text(encoding="utf-8")) for p in sorted(root.glob("*.py"))}
    rows["total"] = {c: sum(row[c] for row in rows.values()) for c in COLUMNS}
    return rows


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else DEFAULT
    print(f"{'module':<16}" + "".join(f"{c:>11}" for c in COLUMNS))
    for name, row in table(root).items():
        print(f"{name:<16}" + "".join(f"{row[c]:>11}" for c in COLUMNS))


if __name__ == "__main__":
    main(sys.argv[1:])
