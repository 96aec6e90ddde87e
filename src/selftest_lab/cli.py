"""Command-line interface.

Exit codes: 0 on success or a passing check, 1 when a requested check fails,
2 on malformed or invalid input.  All randomness derives from ``--seed``, so
identical invocations produce identical bytes.  Flag values are checked when
the arguments are parsed: ``--tol`` must be finite and non-negative and
``--seed`` non-negative.

Each handler imports the submodule it calls, so a fresh process compiles
only the modules its command runs.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import linalg, serialize
from .errors import LabError, ParseError
from .games import correlation_of, game_operator, validate_strategy, win_probability

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _write(payload: bytes, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            raise LabError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(payload.decode())


def _cmd_validate(args) -> int:
    s = serialize.parse_strategy_file(args.strategy, tol=None)
    report = validate_strategy(s, args.tol)
    _write(serialize.emit_report(report, args.format), args.out)
    return EXIT_OK if report.valid else EXIT_CHECK_FAILED


def _cmd_correlation(args) -> int:
    s = serialize.parse_strategy_file(args.strategy, tol=args.tol)
    corr = correlation_of(s, args.tol)
    _write(serialize.emit_report({"p": corr.table.tolist()}, args.format), args.out)
    return EXIT_OK


def _cmd_metrics(args) -> int:
    from . import metrics

    s = serialize.parse_strategy_file(args.strategy, tol=args.tol)
    _write(serialize.emit_report(metrics.strategy_metrics(s), args.format), args.out)
    return EXIT_OK


def _cmd_restrict(args) -> int:
    from . import schmidt

    s = serialize.parse_strategy_file(args.strategy, tol=args.tol)
    restricted, u_a, u_b = schmidt.restrict(s)
    payload = {
        "strategy": serialize.strategy_to_jsonable(restricted),
        "U_A": linalg.encode_complex_array(u_a),
        "U_B": linalg.encode_complex_array(u_b),
    }
    _write(serialize.emit_report(payload, args.format), args.out)
    return EXIT_OK


def _cmd_naimark(args) -> int:
    from . import naimark

    s = serialize.parse_strategy_file(args.strategy, tol=args.tol)
    dilated, v_a, v_b = naimark.naimark_strategy(s)
    payload = {
        "strategy": serialize.strategy_to_jsonable(dilated),
        "V_A": linalg.encode_complex_array(v_a),
        "V_B": linalg.encode_complex_array(v_b),
    }
    _write(serialize.emit_report(payload, args.format), args.out)
    return EXIT_OK


def _cmd_check_dilation(args) -> int:
    from . import dilation

    src = serialize.parse_strategy_file(args.src, tol=args.tol)
    dst = serialize.parse_strategy_file(args.dst, tol=args.tol)
    u_a, u_b, aux, form = serialize.witness_arrays_from_jsonable(
        serialize.load_json_file(args.witness)
    )
    d_ta, d_tb = dst.dims
    if u_a.shape[0] % d_ta or u_b.shape[0] % d_tb:
        raise ParseError("witness isometries do not factor over the dst dimensions")
    dims_a = (d_ta, u_a.shape[0] // d_ta)
    dims_b = (d_tb, u_b.shape[0] // d_tb)
    if form == "vector":
        w = dilation.DilationWitness(u_a=u_a, u_b=u_b, dims_a=dims_a, dims_b=dims_b, aux=aux)
        payload = dilation.dilation_residuals(src, dst, w)
        eps = payload.eps
    elif form == "matrix":
        sigma = np.outer(aux, aux.conj())
        eps = dilation.matrix_form_residual(src, dst, u_a, u_b, dims_a, dims_b, sigma)
        payload = {"form": "matrix", "eps": eps}
    else:
        eps = dilation.extraction_residual(src, dst, u_a, u_b)
        payload = {"form": "extraction", "eps": eps}
    _write(serialize.emit_report(payload, args.format), args.out)
    return EXIT_OK if eps <= args.tol else EXIT_CHECK_FAILED


def _repro_chsh(args):
    from . import lab

    g = lab.chsh_game()
    s = lab.canonical_chsh()
    w = game_operator(g, s)
    spec = linalg.hermitian_eig(w)
    betas = lab.beta_functionals(lab.trine_strategy())
    return {
        "omega": win_probability(g, s),
        "beta0": betas.beta0,
        "spectrum": [float(x) for x in spec.eigenvalues],
        "gap": float(spec.eigenvalues[0] - spec.eigenvalues[1]),
    }


def _repro_trine(args):
    from . import lab

    s = lab.trine_strategy()
    betas = lab.beta_functionals(s)
    return {
        "beta0": betas.beta0,
        "beta1": betas.beta1,
        "p": correlation_of(s).table.tolist(),
    }


def _repro_moments(args):
    from . import lab

    s1, s2 = lab.minimal_dilation_strategies()
    word = [(2, 0), (1, 1), (2, 0)]
    m1 = lab.higher_order_moment(s1, [], word)
    m2 = lab.higher_order_moment(s2, [], word)
    return {
        "moment_strategy1": float(m1.real),
        "moment_strategy2": float(m2.real),
        "difference": float((m1 - m2).real),
    }


def _repro_pencil(args):
    from . import lab

    rng = np.random.default_rng(args.seed)
    trials = 25
    results = []
    all_ok = True
    for d in (2, 3, 4):
        deficient = 0
        for _ in range(trials):
            phi = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
            psi = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
            _, _, rank = lab.rank_deficient_combination(phi, psi, d)
            deficient += int(rank < d)
        all_ok = all_ok and deficient == trials
        results.append({"d": d, "trials": trials, "rank_deficient": deficient})
    return {"cases": results, "all_rank_deficient": all_ok}


def _repro_robustness(args):
    from . import lab

    g = lab.chsh_game()
    s = lab.canonical_chsh()
    w = game_operator(g, s)
    spec = linalg.hermitian_eig(w)
    lam0 = float(spec.eigenvalues[0])
    gap = lam0 - float(spec.eigenvalues[1])
    magnitudes = [0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1]
    trials_per_magnitude = 8
    rows = []
    for i, magnitude in enumerate(magnitudes):
        for j in range(trials_per_magnitude):
            rng = np.random.default_rng(args.seed + 1000 * i + j)
            candidate = lab.perturb_state(s.state, magnitude, rng)
            energy = float(np.real(np.vdot(candidate, linalg.as_complex(w) @ candidate)))
            delta = max(lam0 - energy, 0.0)
            report = lab.eigengap_analysis(w, s.state, candidate, delta_eff=delta)
            rows.append({
                "magnitude": magnitude,
                "delta": delta,
                "epsilon": report.state_bound,
                "bound": float(np.sqrt(2.0 * delta / gap)),
            })
    if args.format == "csv":
        return rows
    return {"constant": lab.robustness_constant(g), "gap": gap, "rows": rows}


def _cmd_repro(args) -> int:
    handlers = {
        "chsh": _repro_chsh,
        "trine": _repro_trine,
        "moments": _repro_moments,
        "pencil": _repro_pencil,
        "robustness": _repro_robustness,
    }
    result = handlers[args.target](args)
    _write(serialize.emit_report(result, args.format), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selftest-lab",
        description="Strategy validation, restriction, Naimark dilation, "
        "dilation residual checks, and worked reproductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def tolerance(text):
        tol = float(text)
        if not math.isfinite(tol) or tol < 0:
            raise argparse.ArgumentTypeError(f"must be finite and >= 0, not {text}")
        return tol

    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, not {text}")
        return value

    def common(p):
        p.add_argument("--tol", type=tolerance, default=1e-9)
        p.add_argument("--seed", type=seed, default=0)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)

    for name, handler, info in (
        ("validate", _cmd_validate, "check POVM and state invariants of a strategy file"),
        ("correlation", _cmd_correlation, "emit the outcome table p(a,b|s,t)"),
        ("metrics", _cmd_metrics, "emit support and projectivity defects"),
        ("restrict", _cmd_restrict, "compress a pure strategy to its local supports"),
        ("naimark", _cmd_naimark, "dilate a pure strategy to a projective one"),
    ):
        p = sub.add_parser(name, help=info)
        p.add_argument("strategy")
        common(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("check-dilation", help="evaluate dilation residuals for a witness")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("witness")
    common(p)
    p.set_defaults(handler=_cmd_check_dilation)

    p = sub.add_parser("repro", help="reproduce bundled quantitative examples")
    p.add_argument("target", choices=("chsh", "trine", "moments", "pencil", "robustness"))
    common(p)
    p.set_defaults(handler=_cmd_repro)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
