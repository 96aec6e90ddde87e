"""A smoke test of ``scripts/output_digest.py``: two runs on this checkout's ``src``
at the smoke size print the same lines, one per command and one deep digest."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "output_digest.py"


def _digest():
    argv = [sys.executable, str(SCRIPT), "--src", str(ROOT / "src"), "--smoke"]
    return subprocess.run(argv, capture_output=True, text=True, check=True, timeout=300).stdout


def test_two_smoke_runs_print_the_same_lines():
    first, second = _digest(), _digest()
    assert first == second
    lines = first.splitlines()
    assert [line.split()[0] for line in lines] == [
        "validate:chsh", "correlation:chsh", "metrics:chsh", "naimark-deep"
    ]
    assert all(line.split()[1] == "exit=0" for line in lines[:-1])
    assert len(lines[-1].split()[1]) == 64  # a sha256 in hex
