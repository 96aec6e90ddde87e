"""Print one JSON line of the Naimark-path and residual kernels' times (ms) and page faults.

The times are in-process minimums.  Each Naimark-path input is a seeded pure strategy of
Schmidt rank 2 on ``C^d (x) C^d``: Alice has two binary questions, Bob two
binary and ``t`` three-outcome ones, so Bob dilates to ``D = 4 d 3^t`` (72,
108, 216 and 324).  The source passes the validity gate before timing, as in a
run that validates first.  Timed, per input: ``naimark_strategy``;
``verify_dilation`` of both sides at its default ``tol``; and
``correlation_of``, ``strategy_metrics`` and ``dilation_residuals`` (against
``naimark_embedding``) on the dilated strategy.  Beside its time,
``naimark_strategy`` reports its minor page faults per call: the
``resource.getrusage(RUSAGE_SELF).ru_minflt`` delta over its repeats, divided
by their number.  That count depends on the host's allocator (glibc's trim and
mmap thresholds) and its transparent huge page setting, so it is a report to
compare on one host, never a gate.  Beside its time, ``verify_dilation``
reports the dense checks one call makes (``dense/call``): the calls, counted
through wrappers, of ``linalg.projector_defect`` (a ``P @ P``),
``games._completeness_defect`` (a summed family) and
``naimark._compression_defect`` (a ``V* P V``).  An entry that its family's
proof answers makes no such call, so 0 means the call read only proofs, and
``2 N`` plus one per family, for ``N`` projections, means it measured every
entry.  Last, ``gate`` times the validity gate
``games._is_valid(copy.copy(dilated), 1e-9)`` (a shallow copy shares the proven
families, so each carries its proof, but the copy holds no ``_valid_tol``) and
reports its Cholesky factorizations per call (``cholesky/call``, the calls of
``linalg._shifted_cholesky_exists``): 0 when every family's proof answers it,
one per projection when none does.  Before any timing, ``naimark pipeline``
reports the arenas of Bob's side that one run of every timed call allocates
(``arenas/call``, the ``games._sealed`` calls of shape ``(N, D, D)``), on a
dilated strategy no call has read yet: 0 when none of them reads a ``D x D``
projection of Bob's.

The residual rows time ``matrix_form_residual`` and ``dilation_residuals`` on
seeded mixed sources ``dst (x) tau`` of local dimension ``d = t k`` (4, 8, 12
and 16): ``dst`` a pure strategy on ``C^t (x) C^t`` with four questions of four
answers on each side, ``tau`` a full-rank state on ``C^k (x) C^k``, each junk
factor after its ``dst`` factor.  The witness is the identity with factors
``(t, k)``, ``sigma = tau`` for the matrix form and the recovered vector-form
witness for the vector form; the source passes the validity gate first.

    PYTHONPATH=src python scripts/kernel_times.py [--repeat N] [--seed S]

Set ``OPENBLAS_NUM_THREADS=1`` (or your BLAS's variable) for one BLAS thread.
"""

from __future__ import annotations

import argparse
import copy
import json
import resource
import time

import numpy as np

from selftest_lab import dilation, games, linalg, metrics, naimark

SIZES = ((2, 2), (3, 2), (2, 3), (3, 3))  # (d, t): Bob D = 72, 108, 216, 324
MIXED_SIZES = ((2, 2), (4, 2), (4, 3), (4, 4))  # (t, k): d = t k = 4, 8, 12, 16
DENSE_CHECKS = (
    (linalg, "projector_defect"),
    (games, "_completeness_defect"),
    (naimark, "_compression_defect"),
)
CHOLESKY = ((linalg, "_shifted_cholesky_exists"),)
SEALED = ((games, "_sealed"),)


def _povm(rng, d: int, m: int) -> list[np.ndarray]:
    """``m`` random rank-``d`` effects ``S^-1/2 G_j S^-1/2`` with ``S = sum_j G_j``."""
    gs = [x @ x.conj().T for x in (rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d)))]
    evals, evecs = np.linalg.eigh(sum(gs))
    inv_root = (evecs / np.sqrt(evals)) @ evecs.conj().T
    return [inv_root @ g @ inv_root for g in gs]


def source(seed: int, d: int, t: int) -> games.Strategy:
    rng = np.random.default_rng([seed, d, t])
    factors = rng.normal(size=(2, d, 2)) + 1j * rng.normal(size=(2, d, 2))
    psi = (factors[0] @ factors[1].T).reshape(-1)  # Schmidt rank 2
    return games.Strategy(
        state=psi / np.linalg.norm(psi),
        dims=(d, d),
        alice=[_povm(rng, d, 2) for _ in range(2)],
        bob=[_povm(rng, d, m) for m in [2, 2] + [3] * t],
    )


def mixed_source(seed: int, t: int, k: int):
    """``(dst (x) tau, dst, tau)``: the residual rows' input of local dimension ``t k``."""
    rng = np.random.default_rng([seed, t, k, 1])
    psi = rng.normal(size=t * t) + 1j * rng.normal(size=t * t)
    psi /= np.linalg.norm(psi)
    dst = games.Strategy(state=psi, dims=(t, t), alice=[_povm(rng, t, 4) for _ in range(4)],
                         bob=[_povm(rng, t, 4) for _ in range(4)])
    g = rng.normal(size=(k * k, k * k)) + 1j * rng.normal(size=(k * k, k * k))
    tau = g @ g.conj().T / np.trace(g @ g.conj().T).real
    rho = np.kron(np.outer(psi, psi.conj()), tau)
    eye = np.eye(k)
    src = games.Strategy(
        state=linalg.permute_systems(rho, (t, t, k, k), (0, 2, 1, 3)),
        dims=(t * k, t * k),
        alice=[[np.kron(e, eye) for e in fam] for fam in dst.alice],
        bob=[[np.kron(e, eye) for e in fam] for fam in dst.bob],
    )
    return src, dst, tau


def _best_ms(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return round(best * 1e3, 3)


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _calls(fn, functions) -> list[tuple]:
    """The arguments of each call one run of ``fn`` makes to ``functions``, (module,
    name) pairs."""
    calls = []
    saved = [getattr(module, name) for module, name in functions]
    try:
        for (module, name), real in zip(functions, saved):
            setattr(module, name, lambda *a, real=real: calls.append(a) or real(*a))
        fn()
    finally:
        for (module, name), real in zip(functions, saved):
            setattr(module, name, real)
    return calls


def kernel_rows(seed: int, repeat: int) -> dict:
    rows = {}
    for d, t in SIZES:
        s = source(seed, d, t)
        if not games.validate_strategy(s).valid:
            raise SystemExit(f"the d={d}, t={t} source fails validation")
        dilated, v_a, v_b = naimark.naimark_strategy(s)
        tag = f"D={dilated.dims[1]}"
        sides = ((s.alice, dilated.alice, v_a), (s.bob, dilated.bob, v_b))
        witness = dilation.naimark_embedding(s)
        timed = {
            "naimark_strategy": lambda: naimark.naimark_strategy(s),
            "verify_dilation": lambda: [
                naimark.verify_dilation(fams, naimark.NaimarkDilation(pvms, v, v.shape[::-1]))
                for fams, pvms, v in sides
            ],
            "correlation_of": lambda: games.correlation_of(dilated),
            "strategy_metrics": lambda: metrics.strategy_metrics(dilated),
            "dilation_residuals": lambda: dilation.dilation_residuals(s, dilated, witness),
            "gate": lambda: games._is_valid(copy.copy(dilated), 1e-9),
        }
        dim = dilated.dims[1]
        shapes = _calls(lambda: [fn() for fn in timed.values()], SEALED)
        rows[f"naimark pipeline {tag} arenas/call"] = sum(
            shape[1:] == (dim, dim) for (shape,) in shapes if len(shape) == 3
        )
        for name, fn in timed.items():
            faults = _minflt()
            rows[f"{name} {tag} ms"] = _best_ms(fn, repeat)
            if name == "naimark_strategy":
                rows[f"{name} {tag} minflt/call"] = round((_minflt() - faults) / repeat, 1)
            if name == "verify_dilation":
                rows[f"{name} {tag} dense/call"] = len(_calls(fn, DENSE_CHECKS))
            if name == "gate":
                rows[f"{name} {tag} cholesky/call"] = len(_calls(fn, CHOLESKY))
    for t, k in MIXED_SIZES:
        src, dst, tau = mixed_source(seed, t, k)
        if not games.validate_strategy(src).valid:
            raise SystemExit(f"the t={t}, k={k} mixed source fails validation")
        eye = np.eye(t * k)
        w = dilation.vector_witness_from_matrix_form(src, dst, eye, eye, (t, k), (t, k))
        tag = f"d={t * k}"
        rows[f"matrix_form_residual {tag} ms"] = _best_ms(
            lambda: dilation.matrix_form_residual(src, dst, eye, eye, (t, k), (t, k), tau), repeat
        )
        rows[f"dilation_residuals {tag} ms"] = _best_ms(
            lambda: dilation.dilation_residuals(src, dst, w), repeat
        )
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rows = kernel_rows(args.seed, args.repeat)
    print(json.dumps({"seed": args.seed, "repeat": args.repeat, "rows": rows}))


if __name__ == "__main__":
    main()
