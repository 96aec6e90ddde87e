"""Run alternating parent/change pairs of ``perfbench/run.py`` and write ``BENCH_<name>.json``.

    python scripts/bench_pairs.py PARENT_REV CHANGE_REV --workload W --pairs N --seeds A-B \\
        --name NAME [--claim METRIC] [--change TEXT]

Run it from the root of a git checkout.  Each run exports its revision with
``git archive`` into one directory, ``tree`` in a new temporary directory
(``TMPDIR`` chooses where), runs there, and removes it: both sides run from the
same path, so no path differs between them (a run's ``peak_rss_mib`` moved
with its directory), and no ``__pycache__`` is left from a run before.  Every
run has ``PYTHONDONTWRITEBYTECODE=1``, so each side compiles its own source as
a fresh checkout does, and lasts the change's ``BENCHMARK.json``
``run_seconds``.  Pair ``i`` runs seed ``A + i`` on both sides, the parent first
in even pairs and the change first in odd ones; at least two pairs.  To bench an
uncommitted tree, stage it and pass ``$(git stash create)`` as ``CHANGE_REV``.

The file gets the keys ``change``, ``parent_commit``, ``command``, ``machine``,
``protocol``, ``claim`` and ``workloads``: per workload, each end-to-end metric
of ``BENCHMARK.json`` with the median, q1 and q3 of each side (inclusive
quartiles) and ``change_wins``, the pairs whose change run is better, then every
run made, in order.  An existing file keeps its other workloads, so one file can
hold several.  ``--claim METRIC`` records whether the change met a gain claim on
``W``: better in at least 9 of 10 pairs, and a median gap larger than the
parent's interquartile range.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The files of ``rev`` under the new directory ``dest``, with no ``__pycache__``."""
    archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
    dest.mkdir()
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **safe)
    for cache in sorted(dest.rglob("__pycache__"), reverse=True):
        shutil.rmtree(cache)


def run_once(root: Path, side: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in the copy ``root``, as a ``runs`` entry."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{side} run of {workload} seed {seed} failed:\n{out.stderr}")
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    run = {"side": side, "seed": seed}
    run.update({k: result[k] for k in ("correct", "failed", "attempted")})
    run.update({name: m["value"] for name, m in result["metrics"].items()})
    run["job_median_s_by_size"] = report["job_median_s_by_size"]
    return run


def _quartiles(xs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric of ``better`` (``"lower"`` or ``"higher"``): each side's median
    and quartiles over ``runs``, and in how many pairs (runs of one seed) the
    change is strictly better."""
    by_seed = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run
    pairs = [p for p in by_seed.values() if set(p) == set(SIDES)]
    summary = {}
    for name, direction in better.items():
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (p["change"][name] - p["parent"][name]) < 0 for p in pairs)
        summary[name] = {"better": direction}
        for side in SIDES:
            summary[name][side] = _quartiles([p[side][name] for p in pairs])
        summary[name]["change_wins"] = f"{wins}/{len(pairs)}"
    return summary


def claim_of(summary: dict, workload: str, metric: str) -> dict:
    """Whether the change met a gain claim on ``metric``: better in at least 9
    pairs of 10, and its median beyond the parent's by more than the parent's
    interquartile range."""
    entry = summary[metric]
    parent, change = entry["parent"], entry["change"]
    wins, pairs = map(int, entry["change_wins"].split("/"))
    iqr = parent["q3"] - parent["q1"]
    gap = parent["median"] - change["median"]
    if entry["better"] == "higher":
        gap = -gap
    return {
        "workload": workload,
        "metric": metric,
        "parent_median": parent["median"],
        "parent_iqr": iqr,
        "change_median": change["median"],
        "change_wins": entry["change_wins"],
        "met": bool(pairs) and wins >= math.ceil(0.9 * pairs) and gap > iqr,
    }


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_rev")
    p.add_argument("change_rev")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seeds", type=_seed_range, required=True, help="A-B, at least --pairs seeds")
    p.add_argument("--name", required=True, help="the file written is BENCH_<name>.json")
    p.add_argument("--claim", help="the metric of a gain claim on --workload")
    p.add_argument("--change", help="what the change does (default: its commit subject)")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("the quartiles need at least 2 pairs")
    if len(args.seeds) < args.pairs:
        p.error(f"--seeds gives {len(args.seeds)} seeds for {args.pairs} pairs")
    out = Path(f"BENCH_{args.name}.json")
    bench = json.loads(out.read_text()) if out.exists() else {}
    spec = json.loads(git("show", f"{args.change_rev}:BENCHMARK.json"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    revs = dict(zip(SIDES, (args.parent_rev, args.change_rev)))
    workdir = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    tree = workdir / "tree"  # every run's one path
    runs = []
    try:
        for i, seed in enumerate(args.seeds[:args.pairs]):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                export(revs[side], tree)
                runs.append(run_once(tree, side, args.workload, seed, seconds))
                shutil.rmtree(tree)
                print(json.dumps(runs[-1]), file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(workdir)
    summary = summarize(runs, better)
    workloads = bench.get("workloads", {})
    workloads[args.workload] = {"summary": summary, "runs": runs}
    seeds = ", ".join(
        f"{w} {min(r['seed'] for r in entry['runs'])}-{max(r['seed'] for r in entry['runs'])}"
        for w, entry in workloads.items()
    )
    bench.update({
        "change": args.change or bench.get("change")
        or git("log", "-1", "--format=%s", args.change_rev),
        "parent_commit": git("rev-parse", args.parent_rev),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g}",
        "machine": (
            f"{os.cpu_count()} cores, Python {platform.python_version()}, numpy "
            f"{metadata.version('numpy')}, one BLAS thread (set by the benchmark); every run "
            "from a fresh git archive copy of its revision at one path, removed after the run, "
            "no __pycache__, PYTHONDONTWRITEBYTECODE=1"
        ),
        "protocol": (
            "alternating parent/change pairs, the side that runs first alternating too (the "
            f"parent first in even pairs); seeds {seeds}; every run made is listed"
        ),
        "claim": claim_of(summary, args.workload, args.claim) if args.claim else bench.get("claim"),
        "workloads": workloads,
    })
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
