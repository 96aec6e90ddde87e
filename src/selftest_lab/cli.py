"""Command-line interface.

Exit codes: 0 on success or a passing check, 1 when a requested check fails,
2 on malformed, invalid or too large input.  All randomness derives from ``repro``'s
``--seed``, so identical invocations produce identical bytes.  Each
subcommand registers only the flags it reads, and their values are checked
when the arguments are parsed: ``--tol`` must be finite and non-negative and
``--seed`` non-negative.  A flag placed before the subcommand is refused by
name.

Each handler imports the submodule it calls, so a fresh process compiles
only the modules its command runs.  A handler returns its report and exit
code; :func:`run` writes the report to ``--out`` or stdout, or returns 2 with
one ``error:`` line if it cannot.  :func:`main`, behind the ``selftest-lab``
script and ``python -m selftest_lab``, ends the process once it is flushed.
"""

from __future__ import annotations

import argparse
import math
import os
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
        try:
            sys.stdout.write(payload.decode())
            sys.stdout.flush()
        except OSError as exc:
            # what stays buffered goes to devnull, so no later flush raises again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise LabError(f"cannot write stdout: {exc}") from exc


def _strategy(args):
    return serialize.parse_strategy_file(args.strategy, tol=args.tol)


def _cmd_validate(args):
    report = validate_strategy(serialize.parse_strategy_file(args.strategy, tol=None), args.tol)
    return report, EXIT_OK if report.valid else EXIT_CHECK_FAILED


def _cmd_correlation(args):
    return {"p": correlation_of(_strategy(args), args.tol).table.tolist()}, EXIT_OK


def _cmd_metrics(args):
    from . import metrics

    return metrics.strategy_metrics(_strategy(args)), EXIT_OK


def _map_report(mapped, letter: str):
    """Report of a strategy map ``(strategy, X_A, X_B)``, with the isometries
    under the keys ``{letter}_A`` and ``{letter}_B``."""
    strategy, x_a, x_b = mapped
    return {
        "strategy": serialize.strategy_to_jsonable(strategy),
        f"{letter}_A": linalg.encode_complex_array(x_a),
        f"{letter}_B": linalg.encode_complex_array(x_b),
    }, EXIT_OK


def _cmd_restrict(args):
    from . import schmidt

    return _map_report(schmidt.restrict(_strategy(args)), "U")


def _cmd_naimark(args):
    from . import naimark

    return _map_report(naimark.naimark_strategy(_strategy(args)), "V")


def _cmd_check_dilation(args):
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
    w = dilation.DilationWitness(u_a=u_a, u_b=u_b, dims_a=dims_a, dims_b=dims_b, aux=aux)
    report = dilation.check(src, dst, w, form)
    if form == "vector":  # the rows, under the keys the vector form's report has always had
        keys = ("state_residual", "alice_residuals", "bob_residuals")
        payload = {**dict(zip(keys, report.rows)), "eps": report.eps}
    else:
        payload = {"form": form, "eps": report.eps}
    return payload, EXIT_OK if report.eps <= args.tol else EXIT_CHECK_FAILED


def _chsh_spectrum(lab):
    """The CHSH game, its canonical strategy, game operator and descending eigenvalues."""
    g = lab.chsh_game()
    s = lab.canonical_chsh()
    w = game_operator(g, s)
    return g, s, w, linalg.hermitian_eig(w).eigenvalues


def _repro_chsh(lab, args):
    g, s, _, eigenvalues = _chsh_spectrum(lab)
    betas = lab.beta_functionals(lab.trine_strategy())
    return {
        "omega": win_probability(g, s),
        "beta0": betas.beta0,
        "spectrum": [float(x) for x in eigenvalues],
        "gap": float(eigenvalues[0] - eigenvalues[1]),
    }


def _repro_trine(lab, args):
    s = lab.trine_strategy()
    betas = lab.beta_functionals(s)
    return {
        "beta0": betas.beta0,
        "beta1": betas.beta1,
        "p": correlation_of(s).table.tolist(),
    }


def _repro_moments(lab, args):
    s1, s2 = lab.minimal_dilation_strategies()
    word = [(2, 0), (1, 1), (2, 0)]
    m1 = lab.higher_order_moment(s1, [], word)
    m2 = lab.higher_order_moment(s2, [], word)
    return {
        "moment_strategy1": float(m1.real),
        "moment_strategy2": float(m2.real),
        "difference": float((m1 - m2).real),
    }


def _repro_pencil(lab, args):
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


def _repro_robustness(lab, args):
    g, s, w, eigenvalues = _chsh_spectrum(lab)
    lam0 = float(eigenvalues[0])
    gap = lam0 - float(eigenvalues[1])
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


REPRO_TARGETS = {
    "chsh": _repro_chsh,
    "trine": _repro_trine,
    "moments": _repro_moments,
    "pencil": _repro_pencil,
    "robustness": _repro_robustness,
}


def _cmd_repro(args):
    from . import lab

    return REPRO_TARGETS[args.target](lab, args), EXIT_OK


def _tolerance(text):
    tol = float(text)
    if not math.isfinite(tol) or tol < 0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, not {text}")
    return tol


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {text}")
    return value


# each subcommand's arguments, ahead of the --format and --out that all take
_TOL = {"--tol": {"type": _tolerance, "default": 1e-9}}
_STRATEGY = {"strategy": {}, **_TOL}
_COMMANDS = {
    "validate": (_cmd_validate, "check POVM and state invariants of a strategy file", _STRATEGY),
    "correlation": (_cmd_correlation, "emit the outcome table p(a,b|s,t)", _STRATEGY),
    "metrics": (_cmd_metrics, "emit support and projectivity defects", _STRATEGY),
    "restrict": (_cmd_restrict, "compress a pure strategy to its local supports", _STRATEGY),
    "naimark": (_cmd_naimark, "dilate a pure strategy to a projective one", _STRATEGY),
    "check-dilation": (_cmd_check_dilation, "evaluate dilation residuals for a witness",
                       {"src": {}, "dst": {}, "witness": {}, **_TOL}),
    "repro": (_cmd_repro, "reproduce bundled quantitative examples",
              {"target": {"choices": REPRO_TARGETS}, "--seed": {"type": _seed, "default": 0}}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selftest-lab",
        description="Strategy validation, restriction, Naimark dilation, "
        "dilation residual checks, and worked reproductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, info, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=info)
        for arg, spec in arguments.items():
            p.add_argument(arg, **spec)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)
        p.set_defaults(handler=handler, parser=p)
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    first, second = (argv + ["", ""])[:2]
    if first.startswith("-") and first not in ("-h", "--help") and second not in _COMMANDS:
        # argparse would take the token after the flag for the subcommand
        parser.error(f"flag {first} goes after the subcommand")
    args, extras = parser.parse_known_args(argv)
    if extras:
        # the subcommand's usage names its flags; one before it is the top level's
        owner = args.parser if argv[0] == args.command else parser
        owner.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        report, code = args.handler(args)
        _write(serialize.emit_report(report, args.format), args.out)
        return code
    except (LabError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main():
    """Run the command in ``sys.argv`` and end the process with its exit code.

    Both streams are flushed, then ``os._exit`` skips interpreter
    finalization (module teardown, garbage collection, freeing numpy's state):
    it writes nothing, yet costs a short command a tenth or more of its wall
    time.  The package registers no ``atexit`` handler, and ``--out`` files
    are closed by then.  An argparse exit or an uncaught exception takes the
    ordinary path.
    """
    code = run()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
