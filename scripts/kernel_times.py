"""Print one JSON line of in-process minimum times (ms) of the Naimark-path kernels.

Each input is a seeded pure strategy of Schmidt rank 2 on ``C^d (x) C^d``:
Alice has two binary questions, Bob two binary and ``t`` three-outcome ones,
so Bob dilates to ``D = 4 d 3^t`` (72, 108, 216 and 324).  The source passes
the validity gate before timing, as in a run that validates first.  Timed, per
input: ``naimark_strategy``; ``verify_dilation`` of both sides at its default
``tol``; and ``correlation_of``, ``strategy_metrics`` and ``dilation_residuals``
(against ``naimark_embedding``) on the dilated strategy.

    PYTHONPATH=src python scripts/kernel_times.py [--repeat N] [--seed S]

Set ``OPENBLAS_NUM_THREADS=1`` (or your BLAS's variable) for one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from selftest_lab import dilation, games, metrics, naimark

SIZES = ((2, 2), (3, 2), (2, 3), (3, 3))  # (d, t): Bob D = 72, 108, 216, 324


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


def _best_ms(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return round(best * 1e3, 3)


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
        }
        for name, fn in timed.items():
            rows[f"{name} {tag} ms"] = _best_ms(fn, repeat)
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
