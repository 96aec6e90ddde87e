"""Exit paths of a fresh ``python -m selftest_lab`` process.

``cli.main`` ends the process with ``os._exit`` once the report is flushed;
these tests check that what a process writes, and its exit code, are what an
in-process ``cli.run`` gives.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from selftest_lab import serialize
from selftest_lab.cli import run
from selftest_lab.dilation import DilationWitness, scalar_aux
from selftest_lab.lab import trine_strategy

from helpers import random_strategy

ROOT = Path(__file__).resolve().parents[1]
CHSH = str(ROOT / "fixtures" / "chsh.json")
TRINE = str(ROOT / "fixtures" / "trine.json")
# block-buffered stdout, as a process a user starts has: no PYTHONUNBUFFERED
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")


def selftest_lab(*argv, **kwargs):
    """The finished ``python -m selftest_lab ARGV`` process, its output captured."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, "-m", "selftest_lab", *argv],
        stderr=subprocess.PIPE, env=ENV, check=False, timeout=120, **kwargs,
    )


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(serialize.dumps_json(payload))
    return str(path)


def failing_dilation(tmp_path):
    """``check-dilation`` arguments of trine against itself, with a witness that
    swaps Alice's basis: the check fails."""
    t = serialize.strategy_to_jsonable(trine_strategy())
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    w = DilationWitness(u_a=swap, u_b=np.eye(2, dtype=complex), dims_a=(2, 1), dims_b=(2, 1),
                        aux=scalar_aux())
    src = write_json(tmp_path, "src.json", t)
    wit = write_json(tmp_path, "w.json", serialize.witness_to_jsonable(w))
    return ["check-dilation", src, src, wit, "--tol", "1e-8"]


def large_naimark(tmp_path):
    """``naimark`` arguments of a pure d=4 strategy with two 3-outcome questions
    per side: its report runs over 1 MiB."""
    s = random_strategy(np.random.default_rng(31), 4, 4, outcomes=3)
    return ["naimark", write_json(tmp_path, "d4.json", serialize.strategy_to_jsonable(s))]


# each case's arguments, built in a test's tmp_path, and its exit code
CASES = {
    "validate": (lambda tmp_path: ["validate", CHSH], 0),
    "naimark": (lambda tmp_path: ["naimark", TRINE], 0),
    "repro-csv": (lambda tmp_path: ["repro", "robustness", "--format", "csv"], 0),
    "naimark-over-1MiB": (large_naimark, 0),
    "check-dilation-fails": (failing_dilation, 1),
}


@pytest.mark.parametrize("case", CASES)
def test_a_process_writes_the_bytes_run_writes(tmp_path, capsysbinary, case):
    build, code = CASES[case]
    argv = build(tmp_path)
    want = run(argv), capsysbinary.readouterr().out
    assert want[0] == code
    if build is large_naimark:
        assert len(want[1]) > 1 << 20
    proc = selftest_lab(*argv)
    assert (proc.returncode, proc.stdout) == want
    assert proc.stderr == b""


def test_out_writes_the_bytes_of_stdout(tmp_path):
    argv = large_naimark(tmp_path)
    out = tmp_path / "n.json"
    to_file = selftest_lab(*argv, "--out", str(out))
    assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
    assert out.read_bytes() == selftest_lab(*argv).stdout


def test_an_input_error_is_one_line_and_exit_2(tmp_path):
    proc = selftest_lab("validate", str(tmp_path / "missing.json"))
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1, proc.stderr


def test_a_usage_error_exits_2():
    proc = selftest_lab("validate", CHSH, "--seed", "1")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert b"error: unrecognized arguments: --seed 1" in proc.stderr
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("case", ["validate", "naimark-over-1MiB", "check-dilation-fails"])
def test_a_closed_stdout_is_one_line_and_exit_2(tmp_path, case):
    argv = CASES[case][0](tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the process starts, so its first write fails
    try:
        proc = selftest_lab(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(b"error: cannot write stdout: "), proc.stderr
