"""A smoke test of ``scripts/src_lines.py``: it runs, its totals are ``wc -l``'s,
and each row's parts add up to its total."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)


def test_the_totals_are_wc_l_and_the_parts_add_up():
    files = sorted(src_lines.DEFAULT.glob("*.py"))
    rows = src_lines.table(src_lines.DEFAULT)
    assert list(rows) == [p.name for p in files] + ["total"]
    for p in files:
        assert rows[p.name]["total"] == p.read_bytes().count(b"\n")  # wc -l counts newlines
    for row in rows.values():
        assert row["docstring"] + row["blank"] + row["code"] == row["total"]
    assert rows["total"]["total"] == sum(p.read_bytes().count(b"\n") for p in files)
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1].split() == ["total"] + [
        str(rows["total"][c]) for c in src_lines.COLUMNS
    ]


def test_only_first_string_statements_are_docstrings():
    text = '''"""Module
docstring."""

x = 1  # a comment


def f():
    """One line."""
    "not a docstring"
    return x


class C:
    y = "not one either"
'''
    assert src_lines.counts(text) == {"total": 14, "docstring": 3, "blank": 5, "code": 6}
