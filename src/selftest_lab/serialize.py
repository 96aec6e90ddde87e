"""JSON wire formats and deterministic report emission.

Complex matrices serialize as nested arrays of ``[re, im]`` pairs in
row-major order.  Emission is deterministic: keys are sorted and floats use
Python's shortest exact round-trip representation, so parsing an emitted file
reproduces every entry bit for bit.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from pathlib import Path

import numpy as np

from . import linalg
from .dilation import DilationWitness
from .errors import InvalidStrategy, LabError, ParseError
from .games import NonlocalGame, Strategy, _is_valid, validate_strategy
from .naimark import NaimarkDilation


def strategy_to_jsonable(s: Strategy) -> dict:
    kind = "pure" if s.is_pure else "mixed"
    return {
        "dims": {"A": s.dims[0], "B": s.dims[1]},
        "state": {"kind": kind, "data": linalg.encode_complex_array(s.state)},
        "alice": [[linalg.encode_complex_array(e) for e in fam] for fam in s.alice],
        "bob": [[linalg.encode_complex_array(e) for e in fam] for fam in s.bob],
    }


def strategy_from_jsonable(obj) -> Strategy:
    try:
        dims = (int(obj["dims"]["A"]), int(obj["dims"]["B"]))
        kind = obj["state"]["kind"]
        state = linalg.decode_complex_array(obj["state"]["data"])
        if kind not in ("pure", "mixed"):
            raise ParseError(f"unknown state kind {kind!r}")
        if kind == "pure" and state.ndim != 1:
            raise ParseError("pure state data must be a vector")
        if kind == "mixed" and state.ndim != 2:
            raise ParseError("mixed state data must be a matrix")
        alice = [[linalg.decode_complex_array(e) for e in fam] for fam in obj["alice"]]
        bob = [[linalg.decode_complex_array(e) for e in fam] for fam in obj["bob"]]
        return Strategy(state=state, dims=dims, alice=alice, bob=bob)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, LabError) as exc:
        raise ParseError(f"malformed strategy object: {exc}") from exc


def game_to_jsonable(g: NonlocalGame) -> dict:
    return {"pi": g.pi.tolist(), "predicate": g.predicate.tolist()}


def game_from_jsonable(obj) -> NonlocalGame:
    try:
        return NonlocalGame(
            pi=np.asarray(obj["pi"], dtype=np.float64),
            predicate=np.asarray(obj["predicate"], dtype=np.float64),
        )
    except (KeyError, TypeError, ValueError, LabError) as exc:
        raise ParseError(f"malformed game object: {exc}") from exc


def witness_to_jsonable(w: DilationWitness, form: str = "vector") -> dict:
    return {
        "U_A": linalg.encode_complex_array(w.u_a),
        "U_B": linalg.encode_complex_array(w.u_b),
        "aux": linalg.encode_complex_array(w.aux),
        "form": form,
    }


def witness_arrays_from_jsonable(obj) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Decode the raw witness arrays; factorizations are derived by callers
    from the destination strategy's dimensions."""
    try:
        u_a = linalg.decode_complex_array(obj["U_A"])
        u_b = linalg.decode_complex_array(obj["U_B"])
        aux = linalg.decode_complex_array(obj["aux"])
        form = obj.get("form", "vector")
        if form not in ("vector", "matrix", "extraction"):
            raise ParseError(f"unknown witness form {form!r}")
        return u_a, u_b, aux, form
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed witness object: {exc}") from exc


def dilation_to_jsonable(d: NaimarkDilation) -> dict:
    return {
        "dims": {"in": d.dims[0], "out": d.dims[1]},
        "isometry": linalg.encode_complex_array(d.isometry),
        "pvms": [[linalg.encode_complex_array(p) for p in fam] for fam in d.pvms],
    }


def dilation_from_jsonable(obj) -> NaimarkDilation:
    try:
        return NaimarkDilation(
            pvms=tuple(
                tuple(linalg.decode_complex_array(p) for p in fam) for fam in obj["pvms"]
            ),
            isometry=linalg.decode_complex_array(obj["isometry"]),
            dims=(int(obj["dims"]["in"]), int(obj["dims"]["out"])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed dilation object: {exc}") from exc


def _plain(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _plain(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def dumps_json(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n"


def dumps_csv(rows) -> str:
    """CSV with the key order of the first row; floats use repr round-trip."""
    if not rows:
        return "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    fields = list(rows[0].keys())
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_format_cell(row[f]) for f in fields])
    return out.getvalue()


def _format_cell(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (np.floating, np.integer)):
        return repr(v.item())
    return v


def emit_report(result, fmt: str = "json") -> bytes:
    """Deterministic serialization of a report object."""
    if fmt == "json":
        return dumps_json(result).encode()
    if fmt == "csv":
        plain = _plain(result)
        if isinstance(plain, list):
            return dumps_csv(plain).encode()
        if isinstance(plain, dict):
            rows = [{"key": k, "value": plain[k]} for k in sorted(plain)]
            return dumps_csv(rows).encode()
        raise LabError("csv emission needs a mapping or a list of rows")
    raise LabError(f"unknown format {fmt!r}")


def load_json_file(path) -> object:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc


def parse_strategy_file(path, tol: float | None = linalg.DEFAULT_TOL) -> Strategy:
    """Load a strategy JSON file, optionally validating it at ``tol``.

    Malformed files raise :class:`ParseError`; semantic defects raise
    :class:`~selftest_lab.errors.InvalidStrategy` carrying the per-family
    defect summary, which is computed only once the validity gate (the one
    behind ``validate_strategy``'s verdict) has failed.  Pass ``tol=None`` to
    skip validation.
    """
    s = strategy_from_jsonable(load_json_file(path))
    if tol is not None and not _is_valid(s, tol):
        report = validate_strategy(s, tol)
        raise InvalidStrategy(
            f"{path} fails validation at tol {tol}: "
            f"completeness defects alice={list(report.alice_completeness)} "
            f"bob={list(report.bob_completeness)}, "
            f"min eigenvalues alice={[min(t) for t in report.alice_min_eigenvalues]} "
            f"bob={[min(t) for t in report.bob_min_eigenvalues]}, "
            f"state trace defect={report.state_trace_defect}"
        )
    return s
