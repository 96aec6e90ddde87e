"""A smoke test of ``scripts/unrun_lines.py``: its collector, run on a toy module,
finds the one statement that the call leaves unrun."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "unrun_lines.py"
spec = importlib.util.spec_from_file_location("unrun_lines", SCRIPT)
unrun_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(unrun_lines)

TOY = '''"""A toy module."""

import functools


@functools.lru_cache
def sign(x):
    """Its sign, from a multi-line
    docstring."""
    try:
        if x < 0:
            return -1
    finally:
        pass
    return (
        1
    )
'''


def test_the_collector_finds_the_one_unrun_line_of_a_toy_module(tmp_path):
    toy = tmp_path / "toy.py"
    toy.write_text(TOY)

    def run():
        toy_spec = importlib.util.spec_from_file_location("toy", toy)
        module = importlib.util.module_from_spec(toy_spec)
        toy_spec.loader.exec_module(module)
        return module.sign(3)

    result, ran = unrun_lines.collect(run, tmp_path)
    assert result == 1
    assert unrun_lines.unrun(TOY, ran[str(toy.resolve())]) == [(12, "sign")]
    # nothing ran: every statement but the two docstrings is unrun
    assert [line for line, _ in unrun_lines.unrun(TOY, set())] == [3, 7, 10, 11, 12, 14, 15]
