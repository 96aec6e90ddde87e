"""A smoke test of ``scripts/kernel_times.py``: it runs, on every dilated family its
proof answers each dense check and each Cholesky of the gate, and the timed calls
build no arena of Bob's dilated side."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "kernel_times.py"
spec = importlib.util.spec_from_file_location("kernel_times", SCRIPT)
kernel_times = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel_times)


@pytest.fixture(scope="module")
def rows():
    return kernel_times.kernel_rows(0, 1)


def test_every_dilated_family_is_answered_by_its_proof(rows):
    counted = {k: v for k, v in rows.items() if k.endswith(("dense/call", "cholesky/call"))}
    assert len(counted) == 2 * len(kernel_times.SIZES)
    assert all(v == 0 for v in counted.values()), counted


def test_the_deep_pipeline_builds_no_dilated_projection(rows):
    arenas = {k: v for k, v in rows.items() if k.endswith("arenas/call")}
    assert len(arenas) == len(kernel_times.SIZES)
    assert all(v == 0 for v in arenas.values()), arenas
