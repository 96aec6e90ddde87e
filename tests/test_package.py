"""The package's lazy import graph, seen from fresh interpreters."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import selftest_lab
from selftest_lab import serialize
from selftest_lab.dilation import DilationWitness, scalar_aux

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")}


def fresh_python(*args) -> str:
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=ENV, check=False, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_only_the_core_types():
    out = fresh_python(
        "-c",
        "import sys, selftest_lab; "
        "print(*sorted(m for m in sys.modules if m.startswith('selftest_lab.')))",
    )
    assert out.split() == ["selftest_lab.errors", "selftest_lab.games", "selftest_lab.linalg"]


def test_submodule_attribute_resolves_on_first_access():
    out = fresh_python(
        "-c",
        "import selftest_lab; print(selftest_lab.naimark.naimark_strategy.__qualname__); "
        "print(*(getattr(selftest_lab, n).__name__ for n in selftest_lab.__all__ if n.islower()))",
    )
    names = ["dilation", "games", "lab", "linalg", "metrics", "naimark", "schmidt", "serialize"]
    assert out == "naimark_strategy\n" + " ".join(f"selftest_lab.{n}" for n in names) + "\n"


def test_star_import_binds_every_name_in_all():
    out = fresh_python(
        "-c",
        "from selftest_lab import *; import selftest_lab; "
        "print([n for n in selftest_lab.__all__ if globals().get(n) is not getattr(selftest_lab, n)])",
    )
    assert out == "[]\n"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'cli_helpers'"):
        selftest_lab.cli_helpers


def identity_witness(tmp_path) -> str:
    eye = np.eye(2, dtype=complex)
    w = DilationWitness(u_a=eye, u_b=eye, dims_a=(2, 1), dims_b=(2, 1), aux=scalar_aux())
    path = tmp_path / "w.json"
    path.write_text(serialize.dumps_json(serialize.witness_to_jsonable(w)))
    return str(path)


CHSH = str(FIXTURES / "chsh.json")
# (command, the submodule its handler calls, submodules it must not load)
IMPORT_SETS = [
    (["validate", CHSH], None, {"dilation", "lab", "metrics", "naimark", "schmidt"}),
    (["correlation", CHSH], None, {"dilation", "lab", "metrics", "naimark", "schmidt"}),
    (["naimark", CHSH], "naimark", {"dilation", "lab", "metrics"}),
    (["metrics", CHSH], "metrics", {"dilation", "lab", "naimark"}),
    (["restrict", CHSH], "schmidt", {"dilation", "lab", "naimark"}),
    (["check-dilation", CHSH, CHSH, "WITNESS"], "dilation", {"lab", "metrics", "naimark"}),
    (["repro", "chsh"], "lab", {"dilation", "metrics", "naimark", "schmidt"}),
    (["repro", "moments"], "lab", {"dilation", "metrics", "naimark", "schmidt"}),
]


# each row's id is its command name, and "repro-moments" for the second repro row
IMPORT_IDS = [a[0] if a[:2] != ["repro", "moments"] else "repro-moments" for a, _, _ in IMPORT_SETS]


@pytest.mark.parametrize("argv, calls, absent", IMPORT_SETS, ids=IMPORT_IDS)
def test_cli_command_loads_only_what_it_runs(tmp_path, argv, calls, absent):
    argv = [identity_witness(tmp_path) if a == "WITNESS" else a for a in argv]
    out = json.loads(fresh_python(str(ROOT / "scripts" / "cli_modules.py"), *argv))
    assert out["exit"] == 0
    loaded = set(out["modules"])
    assert {"cli", "errors", "games", "linalg", "serialize"} <= loaded
    if calls:
        assert calls in loaded
    assert not loaded & absent, sorted(loaded & absent)
