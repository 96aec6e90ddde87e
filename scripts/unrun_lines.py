#!/usr/bin/env python3
"""Print the statements of ``src/selftest_lab`` that no tier-1 test runs.

    python3 scripts/unrun_lines.py [PYTEST_ARGS ...]

Runs pytest in this process (with ``PYTEST_ARGS``, by default the tier-1
suite under ``tests/``) under a line tracer, installed by ``sys.settrace`` and
``threading.settrace``, that records the lines run in frames whose code lives
in ``src/selftest_lab`` and no others.  Then it prints, per module, the first
line of each statement, found by ``ast`` with docstrings excluded, none of
whose lines ran.  A statement owns all its lines, decorators included, so a
compound statement has run when any line of it has.

Tests that start ``python -m selftest_lab`` run code in a child process,
which this tracer cannot see: the unrun statements of the scopes in
``SUBPROCESS_ONLY`` are listed apart.  The tracer holds frames and allocates
on every line, so a test that counts references or memory can fail under it.
The script prints pytest's summary line, but traced outcomes are no verdict:
the untraced tier-1 run is.  Standard library only, besides pytest.
"""

import ast
import collections
import contextlib
import io
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "selftest_lab"
DEFAULT_ARGS = ["-q", "--tb=no", "-p", "no:cacheprovider", str(ROOT / "tests")]
# (module, scope) of code that only a `python -m selftest_lab` child runs: the
# module behind -m, cli.main, and the closed-stdout handler of cli._write
SUBPROCESS_ONLY = {("__main__.py", "<module>"), ("cli.py", "main"), ("cli.py", "_write")}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _recorder(lines: set):
    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def collect(run, root):
    """``run()``'s result and the lines it ran per file under ``root``, keyed by real
    path; the tracer covers this thread and the threads started meanwhile."""
    prefix = os.path.join(os.path.realpath(root), "")
    ran = collections.defaultdict(set)
    tracers = {}  # co_filename -> its file's recorder, or None outside root

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            path = os.path.realpath(name)
            tracers[name] = _recorder(ran[path]) if path.startswith(prefix) else None
        return tracers[name]

    before = sys.gettrace(), threading.gettrace()
    sys.settrace(trace)
    threading.settrace(trace)
    try:
        return run(), ran
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])


def _is_docstring(node, parent) -> bool:
    return (
        isinstance(parent, SCOPES)
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def unrun(source: str, lines: set) -> list[tuple[int, str]]:
    """``(first line, scope)`` of each statement of ``source``, docstrings excluded, none
    of whose lines is in ``lines``; the scope is the innermost function or class
    around it, ``<module>`` at the top."""
    found = []

    def visit(parent, scope):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.stmt) and not _is_docstring(node, parent):
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
                if lines.isdisjoint(range(first, node.end_lineno + 1)):
                    found.append((node.lineno, scope))
            visit(node, node.name if isinstance(node, SCOPES[1:]) else scope)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def main(argv: list[str]) -> None:
    import pytest

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code, ran = collect(lambda: pytest.main(argv or DEFAULT_ARGS), SRC)
    summary = [line for line in out.getvalue().splitlines() if line.strip()][-1:]
    print(f"pytest under the tracer (exit {int(code)}): {' '.join(summary)}")
    print("Traced outcomes are no verdict: a test of references or memory can fail")
    print("under the tracer. The untraced tier-1 run decides.\n")
    unrun_title, subprocess_title = "unrun statements (first line of each)", "run only by subprocess tests"
    tables = {unrun_title: {}, subprocess_title: {}}
    for path in sorted(SRC.glob("*.py")):
        for line, scope in unrun(path.read_text(encoding="utf-8"), ran[os.path.realpath(path)]):
            title = subprocess_title if (path.name, scope) in SUBPROCESS_ONLY else unrun_title
            tables[title].setdefault(path.name, []).append(line)
    for title, table in tables.items():
        print(f"{title}: {sum(map(len, table.values()))}")
        for name, lines in table.items():
            print(f"  {name:<14} {len(lines):>3}  {' '.join(map(str, lines))}")


if __name__ == "__main__":
    main(sys.argv[1:])
