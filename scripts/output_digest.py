#!/usr/bin/env python3
"""Print digests of the benchmark workloads' outputs for one ``selftest_lab`` tree.

    python3 scripts/output_digest.py --src DIR [--smoke]

``DIR`` holds the ``selftest_lab`` package (``src`` of a checkout).  The script
prints one line per distinct ``cli-cold`` command of ``perfbench/workloads.py``,
on the inputs ``perfbench/gen.py`` writes for seed 911: its key, its exit code,
and the sha256 of its stdout and of its stderr, each command run as
``python -m selftest_lab`` from this checkout's root with ``PYTHONPATH=DIR``.
The last line is one sha256 over the ``naimark-deep`` outputs on the sources of
seeds 911 and 5: ``naimark_strategy``'s isometries, state and every projection,
``correlation_of`` and ``strategy_metrics`` of the dilated strategy, both sides'
``verify_dilation`` reports, ``naimark_embedding``, and ``NaimarkDeep.run``.

Everything that imports ``selftest_lab`` runs in a child process whose
``sys.path`` starts with ``DIR``, with one BLAS thread and no bytecode written;
the ``cli-cold`` inputs are written by ``DIR``'s own package into a temporary
directory, removed at exit.  ``perfbench/`` is only read.  ``--smoke`` keeps
the first three commands and the smallest ``naimark-deep`` size.  So two trees
whose outputs agree print the same lines:

    diff <(python3 scripts/output_digest.py --src BASE/src) \\
         <(python3 scripts/output_digest.py --src src)

Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import collections.abc
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLI_SEED = 911
DEEP_SEEDS = (911, 5)
SMOKE_COMMANDS = 3


def _env(src: Path) -> dict[str, str]:
    one = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {**os.environ, **one, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}


def _child(src: Path, call: str, *args: str) -> str:
    """The stdout of this module's ``call(*args)`` in a child process whose
    ``sys.path`` starts with ``src``, then ``perfbench`` and this directory."""
    code = f"import sys; sys.path[:0] = sys.argv[1:4]; import output_digest; output_digest.{call}(*sys.argv[4:])"
    paths = [str(src), str(ROOT / "perfbench"), str(Path(__file__).resolve().parent)]
    proc = subprocess.run(
        [sys.executable, "-c", code, *paths, *args],
        cwd=ROOT, env=_env(src), capture_output=True, text=True,
    )
    if proc.returncode:
        raise SystemExit(f"{call} failed with exit {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def commands(workdir: str, smoke: str) -> None:
    """Print, as one JSON list, the ``[key, argv]`` of each distinct ``cli-cold``
    command, its inputs written into ``workdir``."""
    import workloads

    distinct = {}
    for key, argv, _, _ in workloads.CliCold(CLI_SEED, Path(workdir)).cycle:
        distinct.setdefault(key, argv)
    print(json.dumps(list(distinct.items())[:SMOKE_COMMANDS if smoke == "1" else None]))


def _feed(h, obj) -> None:
    """Hash ``obj`` into ``h``: an array by its dtype, shape and bytes, a dataclass by
    its fields, a sequence by its items, anything else by its ``repr``."""
    import numpy as np

    if isinstance(obj, (np.ndarray, np.generic)):
        a = np.ascontiguousarray(obj)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            h.update(field.name.encode())
            _feed(h, getattr(obj, field.name))
    elif isinstance(obj, collections.abc.Sequence) and not isinstance(obj, str):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    else:
        h.update(repr(obj).encode())


def deep(smoke: str) -> None:
    """Print the sha256 over the ``naimark-deep`` outputs (module docstring)."""
    import gen
    import workloads
    from selftest_lab import dilation, games, metrics, naimark

    sizes = gen.NAIMARK_DEEP_SIZES[:1] if smoke == "1" else gen.NAIMARK_DEEP_SIZES
    h = hashlib.sha256()
    for seed in DEEP_SEEDS:
        for x in gen.naimark_deep_inputs(seed, sizes):
            _feed(h, workloads.NaimarkDeep.run(x))
            s = x["s"]
            dilated, v_a, v_b = naimark.naimark_strategy(s)
            _feed(h, (v_a, v_b, dilated.state, dilated.alice, dilated.bob))
            _feed(h, (games.correlation_of(dilated), metrics.strategy_metrics(dilated)))
            for fams, pvms, v in ((s.alice, dilated.alice, v_a), (s.bob, dilated.bob, v_b)):
                dil = naimark.NaimarkDilation(pvms, v, v.shape[::-1])
                _feed(h, naimark.verify_dilation(fams, dil))
            _feed(h, dilation.naimark_embedding(s))
    print(h.hexdigest())


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, required=True, help="the directory holding selftest_lab")
    parser.add_argument("--smoke", action="store_true", help="three commands, one deep size")
    args = parser.parse_args(argv)
    src, smoke = args.src.resolve(), "1" if args.smoke else "0"
    if not (src / "selftest_lab" / "__init__.py").is_file():
        parser.error(f"{src} holds no selftest_lab package")
    with tempfile.TemporaryDirectory(prefix="output_digest_") as workdir:
        for key, argv in json.loads(_child(src, "commands", workdir, smoke)):
            proc = subprocess.run(
                [sys.executable, "-m", "selftest_lab", *argv],
                cwd=ROOT, env=_env(src), capture_output=True, timeout=300,
            )
            print(f"{key} exit={proc.returncode} stdout={_sha(proc.stdout)} stderr={_sha(proc.stderr)}")
    print(f"naimark-deep {_child(src, 'deep', smoke).strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
