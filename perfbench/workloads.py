"""The three workloads: their job cycles, the timed call of one job, and the
check of its output.

A workload builds all inputs in its constructor (before any timing) and
exposes ``cycle``, the list of jobs that one pass runs in order.  ``run``
is the timed part of a job; ``check`` runs after the clock has stopped and
returns a list of problems, empty when the output is correct.

Library calls go through module attributes (``games.correlation_of``), never
through names bound at import time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen
from selftest_lab import dilation, games, linalg, metrics, naimark, schmidt, serialize

ROOT = Path(__file__).resolve().parent.parent
SQRT2 = math.sqrt(2.0)
TIGHT = 1e-12  # the acceptance module's tolerance for headline values
CLOSE = 1e-9


def _close(name, got, want, tol):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    return [] if err <= tol else [f"{name}: off by {err:.3e} > {tol:g}"]


class DenseMixed:
    """``dst (x) junk`` sources: mixed-path kernels at local dimension 6 to 12."""

    # d = 6, 8, 6, 9, 12: sorted by cost the shares are 2:1:1:1, so the median
    # lands in the middle of the d=8 jobs and p90 in the middle of the d=12
    # jobs, not on the edge between two sizes where it would jump
    ORDER = (0, 1, 0, 2, 3)

    def __init__(self, seed, smoke=False):
        sizes = gen.DENSE_MIXED_SIZES[:1] if smoke else gen.DENSE_MIXED_SIZES
        inputs = gen.dense_mixed_inputs(seed, sizes)
        for x in inputs:
            x["eye"] = (np.eye(x["src"].dims[0]), np.eye(x["src"].dims[1]))
        self.cycle = inputs if smoke else [inputs[i] for i in self.ORDER]

    @staticmethod
    def run(x):
        src, dst = x["src"], x["dst"]
        (dims_a, dims_b), (u_a, u_b) = x["dims"], x["eye"]
        report = games.validate_strategy(src)
        p = games.correlation_of(src).table
        omega = games.win_probability(x["game"], src)
        w = dilation.vector_witness_from_matrix_form(src, dst, u_a, u_b, dims_a, dims_b)
        vec = dilation.dilation_residuals(
            src, dst, w, purification_probes=8, seed=x["probe_seed"]
        ).eps
        mat = dilation.matrix_form_residual(src, dst, u_a, u_b, dims_a, dims_b, x["tau"])
        return report.valid, p, omega, vec, mat

    @staticmethod
    def check(x, out):
        valid, p, omega, vec, mat = out
        problems = [] if valid else ["source strategy reported invalid"]
        problems += _close("vector residual", vec, 0.0, CLOSE)
        problems += _close("matrix residual", mat, 0.0, CLOSE)
        problems += _close("correlation(src) vs correlation(dst)", p, x["p_dst"], CLOSE)
        problems += _close("win probability vs sum pi V p", omega, x["omega"], CLOSE)
        return problems


class NaimarkDeep:
    """CHSH+trine-shaped POVM strategies dilated to Bob dimensions up to 324."""

    # (d, t) = (2,2), (2,3), (3,2), (2,2), (3,3): sorted by cost the shares
    # are 2:1:1:1, so the median lands in the middle of the d=3,t=2 jobs and
    # p90 in the middle of the d=3,t=3 jobs
    ORDER = (0, 2, 1, 0, 3)

    def __init__(self, seed, smoke=False):
        sizes = gen.NAIMARK_DEEP_SIZES[:1] if smoke else gen.NAIMARK_DEEP_SIZES
        inputs = gen.naimark_deep_inputs(seed, sizes)
        self.cycle = inputs if smoke else [inputs[i] for i in self.ORDER]

    @staticmethod
    def run(x):
        s = x["s"]
        valid = games.validate_strategy(s).valid
        p = games.correlation_of(s).table
        m = metrics.strategy_metrics(s)
        restricted, _, _ = schmidt.restrict(s)
        eps_r = dilation.dilation_residuals(
            restricted, s, dilation.restriction_embedding(s)
        ).eps
        dilated, v_a, v_b = naimark.naimark_strategy(s)
        checks = [
            naimark.verify_dilation(
                fams, naimark.NaimarkDilation(pvms, v, (dim, v.shape[0]))
            ).passed
            for fams, pvms, v, dim in (
                (s.alice, dilated.alice, v_a, s.dims[0]),
                (s.bob, dilated.bob, v_b, s.dims[1]),
            )
        ]
        p_dilated = games.correlation_of(dilated).table
        m_dilated = metrics.strategy_metrics(dilated)
        eps_n = dilation.dilation_residuals(s, dilated, dilation.naimark_embedding(s)).eps
        return valid, p, m, eps_r, checks, p_dilated, m_dilated, eps_n

    @staticmethod
    def check(x, out):
        valid, p, m, eps_r, checks, p_dilated, m_dilated, eps_n = out
        problems = [] if valid else ["strategy reported invalid"]
        problems += _close("restriction eps vs support_eps", eps_r, m.support_eps, CLOSE)
        problems += _close("Naimark eps vs projective_eps", eps_n, m.projective_eps, CLOSE)
        if not all(checks):
            problems.append("verify_dilation failed")
        problems += _close("dilated correlation", p_dilated, p, CLOSE)
        if m_dilated.projective_eps != 0.0:
            problems.append(f"dilated projective_eps is {m_dilated.projective_eps!r}, not 0")
        return problems


class CliCold:
    """One fresh ``python -m selftest_lab`` process per job over a fixed command list."""

    def __init__(self, seed, workdir):
        files, objs = gen.cli_files(seed, workdir, Path("fixtures"))
        self.expected = {
            key: (games.correlation_of(s).table, metrics.strategy_metrics(s))
            for key, s in (
                ("chsh", serialize.parse_strategy_file(files["chsh"])),
                ("trine", objs["trine"]),
                ("mid", objs["mid"]),
            )
        }
        tol = ["--tol", "1e-8"]
        cmds = []
        for key in ("chsh", "trine"):
            cmds += [(f"{sub}:{key}", [sub, files[key]], 0, key) for sub in STRATEGY_SUBCOMMANDS]
        cmds += [
            ("dilation:restriction",
             ["check-dilation", files["trine_restricted"], files["trine"], files["w_restriction"], *tol],
             0, "zero"),
            ("dilation:naimark",
             ["check-dilation", files["trine"], files["trine_naimark"], files["w_naimark"], *tol],
             1, "naimark"),
            ("dilation:matrix",
             ["check-dilation", files["trine"], files["conj"], files["w_matrix"], *tol], 0, "zero"),
            ("dilation:extraction",
             ["check-dilation", files["trine"], files["conj"], files["w_extraction"], *tol], 0, "zero"),
        ]
        cmds += [
            (f"repro:{target}", ["repro", target, "--seed", str(files["repro_seed"])], 0, target)
            for target in REPRO_CHECKS
        ]
        cmds += [(f"{sub}:mid", [sub, files["mid"]], 0, "mid") for sub in STRATEGY_SUBCOMMANDS]
        # `naimark` on the d=4 file (a 1.4 MB report) is the one heavy command.
        # Five more copies spread over the pass make it 6 of 29 jobs, so p90
        # falls in the middle of those jobs, where report emission shows,
        # rather than in the noisy tail of the light ones.
        heavy = cmds[-1]
        self.cycle = []
        for i, cmd in enumerate(cmds):
            self.cycle.append(cmd)
            if i % 4 == 3 and i < 20:
                self.cycle.append(heavy)
        self.first_bytes: dict[str, bytes] = {}
        self.span_file = workdir / "spans.json"
        self.traced = False  # set by the worker for traced cycles
        self.reaped = 0.0  # when the last job's process had been reaped

    def run(self, cmd):
        _, argv, _, _ = cmd
        if self.traced:
            spawned = repr(time.perf_counter())
            prefix = [sys.executable, "perfbench/traced_cli.py", str(self.span_file), spawned]
        else:
            prefix = [sys.executable, "-m", "selftest_lab"]
        proc = subprocess.run(prefix + argv, cwd=ROOT, capture_output=True, timeout=120)
        self.reaped = time.perf_counter()
        return proc

    def check(self, cmd, proc):
        key, _, want_rc, what = cmd
        problems = []
        if proc.returncode != want_rc:
            problems.append(f"exit {proc.returncode}, expected {want_rc}")
        if proc.stderr:
            problems.append(f"stderr {proc.stderr[-300:]!r}")
        if self.first_bytes.setdefault(key, proc.stdout) != proc.stdout:
            problems.append("output bytes differ from the first invocation")
        try:
            out = json.loads(proc.stdout)
        except ValueError:
            return problems + ["stdout is not JSON"]
        sub = key.split(":", 1)[0]
        if sub in STRATEGY_SUBCOMMANDS:
            problems += STRATEGY_SUBCOMMANDS[sub](out, *self.expected[what])
        elif sub == "repro":
            problems += REPRO_CHECKS[what](out)
        elif what == "naimark":
            problems += _close("Naimark witness eps", out["eps"],
                               self.expected["trine"][1].projective_eps, CLOSE)
        else:
            problems += _close("eps", out["eps"], 0.0, 1e-8)
        return problems


def _check_validate(out, p, m):
    return [] if out["valid"] is True else ["strategy reported invalid"]


def _check_correlation(out, p, m):
    return _close("correlation", out["p"], p, TIGHT)


def _check_metrics(out, p, m):
    return _close("support_eps", out["support_eps"], m.support_eps, TIGHT) + _close(
        "projective_eps", out["projective_eps"], m.projective_eps, TIGHT
    )


def _check_reduced(out, p, m, isometry_keys):
    """A restricted or dilated strategy must reproduce the source correlation."""
    s = serialize.strategy_from_jsonable(out["strategy"])
    problems = _close("correlation of the output strategy", games.correlation_of(s).table, p, CLOSE)
    for k in isometry_keys:
        v = linalg.decode_complex_array(out[k])
        problems += _close(f"{k} isometry defect", v.conj().T @ v, np.eye(v.shape[1]), CLOSE)
    return problems


STRATEGY_SUBCOMMANDS = {
    "validate": _check_validate,
    "correlation": _check_correlation,
    "metrics": _check_metrics,
    "restrict": lambda out, p, m: _check_reduced(out, p, m, ("U_A", "U_B")),
    "naimark": lambda out, p, m: _check_reduced(out, p, m, ("V_A", "V_B")),
}


def _check_robustness(out):
    bad = [r for r in out["rows"] if not r["epsilon"] <= r["bound"] + 1e-9]
    return [f"{len(bad)} robustness rows exceed their bound"] if bad else []


REPRO_CHECKS = {
    "chsh": lambda out: _close("omega", out["omega"], (2 + SQRT2) / 4, TIGHT)
    + _close("beta0", out["beta0"], 2 * SQRT2, TIGHT),
    "trine": lambda out: _close("beta0", out["beta0"], 2 * SQRT2, TIGHT)
    + _close("beta1", out["beta1"], 1.0, TIGHT),
    "moments": lambda out: _close("moment 1", out["moment_strategy1"], (4 - SQRT2) / 18, TIGHT)
    + _close("moment 2", out["moment_strategy2"], (2 - SQRT2) / 18, TIGHT),
    "pencil": lambda out: [] if out["all_rank_deficient"] is True else ["pencil not all rank-deficient"],
    "robustness": _check_robustness,
}
