"""JSON wire formats and deterministic report emission.

Complex matrices serialize as nested arrays of ``[re, im]`` pairs in
row-major order.  Emission is deterministic: keys are sorted and floats use
Python's shortest exact round-trip representation, so parsing an emitted file
reproduces every entry bit for bit.  The JSON text of a report equals
``json.dumps(report, sort_keys=True, indent=2)`` plus a newline, byte for
byte: ASCII only (other characters escaped as ``\\uXXXX``), with NaN and the
infinities spelled ``NaN``, ``Infinity`` and ``-Infinity`` as the standard
library spells them.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import operator
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import linalg
from .errors import InvalidStrategy, LabError, ParseError
from .games import Strategy, _is_valid, _ProvenFamily, validate_strategy

if TYPE_CHECKING:
    from .dilation import DilationWitness
    from .naimark import NaimarkDilation


def strategy_to_jsonable(s: Strategy) -> dict:
    kind = "pure" if s.is_pure else "mixed"
    return {
        "dims": {"A": s.dims[0], "B": s.dims[1]},
        "state": {"kind": kind, "data": linalg.encode_complex_array(s.state)},
        "alice": [[linalg.encode_complex_array(e) for e in fam] for fam in s.alice],
        "bob": [[linalg.encode_complex_array(e) for e in fam] for fam in s.bob],
    }


def _field(obj, path: str, kind: str = "strategy"):
    """``obj[k1][k2]...`` for ``path = "k1.k2..."``; a :class:`ParseError` naming
    the ``kind`` of object and ``path`` when a level is missing or not an object."""
    try:
        return functools.reduce(operator.getitem, path.split("."), obj)
    except (KeyError, TypeError, IndexError):
        raise ParseError(f"malformed {kind} object: missing field {path}") from None


@contextlib.contextmanager
def _malformed(kind: str):
    """Any error of reading a ``kind`` object, a matrix that
    :func:`linalg.decode_complex_array` refuses among them, as a :class:`ParseError`
    that begins ``malformed {kind} object:``; a :class:`ParseError` as it is."""
    try:
        yield
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, LabError) as exc:
        raise ParseError(f"malformed {kind} object: {exc}") from exc


def strategy_from_jsonable(obj) -> Strategy:
    with _malformed("strategy"):
        dims = (_field(obj, "dims.A"), _field(obj, "dims.B"))
        if not all(type(d) is int for d in dims):  # bool, float and str are refused
            raise ParseError(f"malformed strategy object: dims must be integers, not {dims!r}")
        kind = _field(obj, "state.kind")
        state = linalg.decode_complex_array(_field(obj, "state.data"))
        if kind not in ("pure", "mixed"):
            raise ParseError(f"unknown state kind {kind!r}")
        if kind == "pure" and state.ndim != 1:
            raise ParseError("pure state data must be a vector")
        if kind == "mixed" and state.ndim != 2:
            raise ParseError("mixed state data must be a matrix")
        alice = [[linalg.decode_complex_array(e) for e in fam] for fam in _field(obj, "alice")]
        bob = [[linalg.decode_complex_array(e) for e in fam] for fam in _field(obj, "bob")]
        return Strategy(state=state, dims=dims, alice=alice, bob=bob)


def witness_to_jsonable(w: DilationWitness, form: str = "vector") -> dict:
    return {
        "U_A": linalg.encode_complex_array(w.u_a),
        "U_B": linalg.encode_complex_array(w.u_b),
        "aux": linalg.encode_complex_array(w.aux),
        "form": form,
    }


def witness_arrays_from_jsonable(obj) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Decode the raw witness arrays; factorizations are derived by callers
    from the destination strategy's dimensions.  A malformed array or entry,
    and a non-finite entry, is a :class:`ParseError`."""
    with _malformed("witness"):
        field = functools.partial(_field, obj, kind="witness")
        u_a, u_b, aux = (linalg.decode_complex_array(field(key)) for key in ("U_A", "U_B", "aux"))
        for key, arr in (("U_A", u_a), ("U_B", u_b), ("aux", aux)):
            if not np.all(np.isfinite(arr)):
                raise ParseError(f"witness {key} contains non-finite entries")
        form = obj.get("form", "vector")
        if form not in ("vector", "matrix", "extraction"):
            raise ParseError(f"unknown witness form {form!r}")
        return u_a, u_b, aux, form


def dilation_to_jsonable(d: NaimarkDilation) -> dict:
    return {
        "dims": {"in": d.dims[0], "out": d.dims[1]},
        "isometry": linalg.encode_complex_array(d.isometry),
        "pvms": [[linalg.encode_complex_array(p) for p in fam] for fam in d.pvms],
    }


def dilation_from_jsonable(obj) -> NaimarkDilation:
    """Decode a Naimark-dilation file, whose ``dims.in`` and ``dims.out`` must be the
    isometry's columns and rows as JSON integers (else :class:`ParseError`)."""
    from .naimark import NaimarkDilation

    field = functools.partial(_field, obj, kind="dilation")
    with _malformed("dilation"):
        pvms = tuple(tuple(linalg.decode_complex_array(p) for p in fam) for fam in field("pvms"))
        isometry = linalg.decode_complex_array(field("isometry"))
        declared = (field("dims.in"), field("dims.out"))
        dims = isometry.shape[::-1]
        if isometry.ndim != 2 or any(type(d) is not int or d != n for d, n in zip(declared, dims)):
            raise ParseError(
                f"malformed dilation object: dims {declared!r} do not match "
                f"the isometry of shape {isometry.shape}"
            )
        return NaimarkDilation(pvms=pvms, isometry=isometry, dims=dims)


def _plain(obj):
    """Plain Python values for CSV cells: dataclasses and dicts become dicts,
    sequences and arrays lists, numpy scalars Python scalars."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _plain(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, _ProvenFamily)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


_escape = json.encoder.encode_basestring_ascii
# float.__repr__ spells the non-finite values these ways; JSON as the stdlib writes it
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_reprs(xs) -> list:
    """Shortest round-trip text of each float in ``xs``."""
    out = list(map(float.__repr__, xs))
    if not math.isfinite(sum(xs)):  # a NaN or infinity is present (or the sum overflowed)
        out = [_NON_FINITE.get(x, x) for x in out]
    return out


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, (int, float)) or k is None:  # bool is an int
        return _value(k, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _dict(d, nl: str) -> str:
    if not d:
        return "{}"
    inner = nl + "  "
    items = [_escape(_key(k)) + ": " + _value(v, inner) for k, v in sorted(d.items())]
    return "{" + inner + ("," + inner).join(items) + nl + "}"


def _list(xs, nl: str) -> str:
    if not xs:
        return "[]"
    inner = nl + "  "
    kinds = set(map(type, xs))
    if kinds == {float}:
        items = _float_reprs(xs)
    elif kinds == {list} and set(map(len, xs)) == {2}:
        flat = list(itertools.chain.from_iterable(xs))
        if set(map(type, flat)) == {float}:
            # a list of [re, im] pairs: one format call per pair
            reprs = _float_reprs(flat)
            pair = "[" + inner + "  {}," + inner + "  {}" + inner + "]"
            items = map(pair.format, reprs[0::2], reprs[1::2])
        else:
            items = [_list(x, inner) for x in xs]
    else:
        items = [_value(x, inner) for x in xs]
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def _value(obj, nl: str) -> str:
    """JSON text of ``obj`` whose first line is indented by the caller and
    whose later lines start with ``nl``.

    Types are tested in the order of :func:`_plain`, then of the stdlib
    encoder, so that an object of several kinds is written as they write it.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _dict({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, nl)
    if isinstance(obj, dict):
        return _dict(obj, nl)
    if isinstance(obj, (list, tuple, _ProvenFamily)):
        return _list(obj, nl)
    if isinstance(obj, (np.ndarray, np.generic)):  # numpy arrays and scalars
        return _value(obj.tolist(), nl)
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_reprs([obj])[0]
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def dumps_json(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    Byte for byte ``json.dumps(x, sort_keys=True, indent=2) + "\\n"``, where
    ``x`` is ``obj`` with dataclasses turned into dicts, tuples and arrays into
    lists and numpy scalars into Python scalars.  Written in one pass without
    that copy; lists of floats and of ``[re, im]`` pairs are formatted by
    C-level joins.
    """
    return _value(obj, "\n") + "\n"


def dumps_csv(rows) -> str:
    """CSV with the key order of the first row; floats use repr round-trip.

    A cell holding a list or a dict is written as its JSON text (sorted keys),
    so a reader can parse it back with ``json.loads``.
    """
    if not rows:
        return "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    fields = list(rows[0].keys())
    writer.writerow(fields)
    for row in rows:
        cells = (row[f] for f in fields)
        writer.writerow(
            json.dumps(v, sort_keys=True) if isinstance(v, (list, dict)) else v for v in cells
        )
    return out.getvalue()


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
    """The JSON value in the file at ``path``; a :class:`ParseError` when the file
    cannot be read or decoded, or is not JSON that ``json.loads`` can parse (an
    integer literal over its digit limit, or arrays nested past the recursion
    limit)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot decode {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


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
