"""selftest-lab benchmark: one seeded workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is used from ``src``
(it need not be installed).  WORKLOAD is ``cli-cold``, ``dense-mixed``,
``naimark-deep``, or ``all`` for the three in turn.  The run prints one
report line per workload (environment, sample counts, ``failed_frac``, every
metric with its unit), then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--smoke`` runs the smallest size of a workload once, for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-cold", "dense-mixed", "naimark-deep")
END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
# set-up samples per run for the in-process workloads: the measuring worker
# plus probes that stop once ready
SETUP_SAMPLES = 5
# an end-to-end run holds at least this many jobs, so p90 has ten samples
# beyond it; a traced run reports no percentiles and stops on time alone
MIN_JOBS = 100
RUN_TIMEOUT_S = 170.0
# one BLAS thread: the matrices are small and the host is shared, so extra
# threads add noise, not speed
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def start_worker(args, workload, deadline, probe=False):
    """Start a worker and wait for ``ready``; returns (process, set-up seconds)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--min-jobs", str(1 if args.smoke or args.trace else MIN_JOBS),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if probe:
        cmd.append("--probe")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"{workload} worker exited before it was ready")
    if perf_counter() > deadline:
        stop(proc)
        raise BenchError("set-up exceeded the run's time limit")
    return proc, setup


def stop(proc):
    proc.kill()
    proc.wait()
    proc.stdout.close()


def finish(proc, deadline) -> str:
    """Wait for a worker's output; kill it if the run's time is up."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError(f"run exceeded {RUN_TIMEOUT_S:.0f} s")
    return out


def run_workload(args, workload) -> dict:
    deadline = perf_counter() + RUN_TIMEOUT_S
    setups = []
    if workload != "cli-cold" and not args.smoke:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup = start_worker(args, workload, deadline, probe=True)
            finish(proc, deadline)
            setups.append(setup)
    proc, setup = start_worker(args, workload, deadline)
    out = finish(proc, deadline)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} worker failed with exit code {proc.returncode}")
    raw = json.loads(out.strip().splitlines()[-1])
    # for cli-cold, set-up is a fresh interpreter importing the package
    setups = raw["setup_probes"] or setups + [setup]
    return summarize(args, workload, raw, setups)


def jobs_per_s(walls, pass_jobs) -> float:
    """Median over whole passes of the pass's jobs per second.

    ``walls`` holds whole passes in order.  A pass that meets a burst of
    load from elsewhere on the host moves the median less than the mean.
    """
    passes = [sum(walls[i:i + pass_jobs]) for i in range(0, len(walls), pass_jobs)]
    return pass_jobs / statistics.median(passes)


def trace_figures(raw, plain, traced) -> dict:
    """The tracer's per-job figures plus overhead and coverage."""
    from tracer import MODULES

    figures = dict(raw["trace"])
    job_s = sum(traced) / len(traced)
    module_s = sum(figures[f"{m}.self_s"] for m in MODULES)
    figures["trace.overhead_frac"] = 1.0 - (
        jobs_per_s(traced, raw["pass_jobs"]) / jobs_per_s(plain, raw["pass_jobs"])
    )
    figures["trace.unaccounted_frac"] = 1.0 - module_s / job_s
    figures["trace.job_s"] = job_s
    return figures


def summarize(args, workload, raw, setups) -> dict:
    jobs = raw["jobs"]
    failed = sum(1 for _, _, _, ok, _ in jobs if not ok)
    plain = [wall for _, wall, traced, *_ in jobs if not traced]
    cpu = [c for _, _, traced, _, c in jobs if not traced]
    deciles = statistics.quantiles(plain, n=10, method="inclusive") if len(plain) > 1 else plain * 9
    end_to_end = {
        "setup_s": statistics.median(setups),
        "job_p50_s": statistics.median(plain),
        "job_p90_s": deciles[8],
        "jobs_per_s": jobs_per_s(plain, raw["pass_jobs"]),
        "peak_rss_mib": raw["peak_rss_mib"],
    }
    by_size = {}
    for label, wall, traced, *_ in jobs:
        if not traced:
            by_size.setdefault(label, []).append(wall)
    if args.trace:
        from tracer import per_layer_names

        traced = [wall for _, wall, t, *_ in jobs if t]
        figures = trace_figures(raw, plain, traced)
        metrics = {name: {"value": figures[name], "unit": unit} for name, unit in per_layer_names()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END.items()}
    report = {
        "workload": workload,
        "env": raw["env"],
        "samples": {
            "jobs": len(jobs),
            "untraced_jobs": len(plain),
            "cycles": raw["cycles"],
            "setup": len(setups),
            "beyond_p90": sum(1 for wall in plain if wall > deciles[8]),
        },
        "failed_frac": {"value": failed / len(jobs), "unit": "fraction"},
        "end_to_end": {name: {"value": end_to_end[name], "unit": u} for name, u in END_TO_END.items()},
        "job_median_s_by_size": {k: statistics.median(v) for k, v in by_size.items()},
        # CPU time of the worker and its children: wall minus this is waiting
        "cpu_per_job_s": sum(cpu) / len(cpu),
        "problems": raw["problems"],
    }
    if args.trace:
        report["per_layer"] = metrics
    return {"report": report, "attempted": len(jobs), "failed": failed,
            "correct": failed == 0 and not raw["problems"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    missing = [x for x in ("src/selftest_lab/__init__.py", "fixtures/trine.json") if not (ROOT / x).is_file()]
    if missing:
        print(f"error: not a selftest-lab source checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(args, name)
            print(json.dumps(results[name]["report"]), flush=True)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
