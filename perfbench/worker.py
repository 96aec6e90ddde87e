"""One benchmark worker: builds a workload's inputs, warms up, signals
``ready`` on stdout, then runs the workload's job cycle in a closed loop and
prints one JSON line with the raw per-job figures.

Started by ``run.py`` with the package's ``src`` directory on ``PYTHONPATH``;
with ``--probe`` it exits right after ``ready``, which is how ``run.py``
samples set-up time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".perfbench")
# a run starts no new pass after measuring this multiple of --seconds,
# whatever the job minimum asks for, so a slow host cannot stretch the
# benchmark's total time
HARD_CAP_FACTOR = 1.2
IMPORT_PROBES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SELFTEST_LAB_THREADS")


def environment(args) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has no history to name
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "selftest_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
    }


def import_probe_seconds() -> list[float]:
    """Wall time of fresh processes that only ``import selftest_lab``."""
    out = []
    for _ in range(IMPORT_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import selftest_lab"], check=True, timeout=60)
        out.append(perf_counter() - start)
    return out


def make_workload(args, workdir):
    from workloads import CliCold, DenseMixed, NaimarkDeep

    if args.workload == "cli-cold":
        return CliCold(args.seed, workdir)
    cls = {"dense-mixed": DenseMixed, "naimark-deep": NaimarkDeep}[args.workload]
    return cls(args.seed, smoke=args.smoke)


def cpu_seconds():
    """CPU time of this process and of its finished children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timed_job(workload, job):
    """Run one job; returns (wall seconds, CPU seconds, problems).

    The output check runs after both clocks have stopped.
    """
    start, cpu = perf_counter(), cpu_seconds()
    try:
        out = workload.run(job)
    except Exception:
        return perf_counter() - start, cpu_seconds() - cpu, [traceback.format_exc(limit=3)]
    wall, cpu = perf_counter() - start, cpu_seconds() - cpu
    try:
        return wall, cpu, workload.check(job, out)
    except Exception:
        return wall, cpu, [traceback.format_exc(limit=3)]


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--min-jobs", type=int, required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    os.chdir(ROOT)
    import selftest_lab

    if Path(selftest_lab.__file__).resolve().parent != ROOT / "src" / "selftest_lab":
        sys.exit(f"selftest_lab imported from {selftest_lab.__file__}, not from this checkout")

    is_cli = args.workload == "cli-cold"
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = make_workload(args, workdir)
        *_, warm_problems = timed_job(workload, workload.cycle[0])
        print("ready", flush=True)
        if args.probe:
            return
        setup_probes = import_probe_seconds() if is_cli else []
        result = measure(args, workload, is_cli)
        result["problems"] = [f"warm-up: {x}" for x in warm_problems] + result["problems"]
        result["setup_probes"] = setup_probes
        usage = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
        result["peak_rss_mib"] = resource.getrusage(usage).ru_maxrss / 1024.0
        result["env"] = environment(args)
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, is_cli) -> dict:
    """Closed loop over whole cycles until ``--seconds`` and ``--min-jobs`` are met.

    With tracing on, untraced and traced cycles alternate, so both see the
    same machine state and the traced run yields its own overhead.
    """
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    jobs, problems = [], []
    cycles = 0
    start = perf_counter()
    while True:
        traced = bool(tracer) and cycles % 2 == 1
        if is_cli:
            workload.traced = traced
        elif traced:
            tracer.install()
        try:
            for job in workload.cycle:
                idx = len(jobs)
                if tracer:
                    tracer.job = idx
                wall, cpu, bad = timed_job(workload, job)
                if traced and is_cli:
                    payload = json.loads(workload.span_file.read_text())
                    tracer.add_external(payload, idx, workload.reaped)
                label = job[0] if is_cli else job["label"]
                jobs.append((label, wall, traced, not bad, cpu))
                problems += [f"job {idx} ({label}): {x}" for x in bad]
        finally:
            if traced and not is_cli:
                tracer.uninstall()
        cycles += 1
        elapsed = perf_counter() - start
        # stop at the pass boundary nearest to --seconds, so a run measures
        # about --seconds however long one pass takes
        done = elapsed + elapsed / cycles / 2 >= args.seconds and len(jobs) >= args.min_jobs
        if (done or elapsed >= HARD_CAP_FACTOR * args.seconds) and (not tracer or cycles % 2 == 0):
            break
    result = {"jobs": jobs, "cycles": cycles, "pass_jobs": len(workload.cycle),
              "problems": problems[:20]}
    if tracer:
        traced_jobs = sum(1 for job in jobs if job[2])
        result["trace"] = tracer.summary(traced_jobs)
        tracer.write(
            OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl",
            {"workload": args.workload, "seed": args.seed, "traced_jobs": traced_jobs},
        )
    return result


if __name__ == "__main__":
    main()
