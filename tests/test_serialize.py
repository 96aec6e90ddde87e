import dataclasses
import json
import math
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from selftest_lab import linalg, serialize
from selftest_lab.cli import run
from selftest_lab.dilation import ResidualReport
from selftest_lab.errors import LabError
from selftest_lab.games import ValidationReport
from selftest_lab.lab import minimal_trine_dilation
from selftest_lab.metrics import StrategyMetrics
from selftest_lab.naimark import DilationCheck, naimark_strategy

from helpers import random_strategy

GOLDEN = Path(__file__).resolve().parent / "golden"


def old_plain(obj):
    """The deep copy that preceded ``json.dumps`` in the earlier emitter."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: old_plain(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: old_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [old_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return old_plain(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def oracle_dumps(obj) -> str:
    return json.dumps(old_plain(obj), sort_keys=True, indent=2) + "\n"


def outcome(fn, obj):
    """The text ``fn`` returns, or the type of the exception it raises."""
    try:
        return fn(obj)
    except Exception as exc:  # the oracle and the emitter must fail alike
        return type(exc)


def old_encode_complex_array(a):
    a = linalg.as_complex(a)
    if a.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in a]
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


Pair = namedtuple("Pair", "re im")

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2e-308 / 3, 1e16, 1e-7, 0.1]
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
# non-ASCII (BMP and astral), control characters, quotes and backslashes
text = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f é😀')), max_size=6)
numpy_scalars = st.one_of(
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
arrays = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3), elements=floats),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3)),
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    floats,
    text,
    numpy_scalars,
    arrays,
)
small_tuples = st.lists(st.lists(floats, max_size=3).map(tuple), max_size=3).map(tuple)
reports = st.one_of(
    st.builds(
        ValidationReport,
        tol=floats,
        alice_completeness=st.lists(floats, max_size=3).map(tuple),
        bob_completeness=st.lists(floats, max_size=3).map(tuple),
        alice_min_eigenvalues=small_tuples,
        bob_min_eigenvalues=small_tuples,
        alice_hermiticity=small_tuples,
        bob_hermiticity=small_tuples,
        state_trace_defect=floats,
        state_min_eigenvalue=floats,
        state_hermiticity=floats,
        valid=st.booleans(),
    ),
    st.builds(
        StrategyMetrics,
        support_eps=floats,
        projective_eps=floats,
        alice_commutator_norms=small_tuples,
        bob_commutator_norms=small_tuples,
        alice_overlaps=small_tuples,
        bob_overlaps=small_tuples,
    ),
    st.builds(
        ResidualReport,
        form=st.sampled_from(["vector", "matrix", "extraction"]),
        # (state, alice, bob) rows, or the matrix form's [s][a][t][b]
        rows=st.one_of(
            st.tuples(floats, small_tuples, small_tuples),
            st.lists(st.lists(small_tuples, max_size=2).map(tuple), max_size=2).map(tuple),
        ),
        eps=floats,
    ),
    st.builds(
        DilationCheck,
        tol=floats,
        isometry_defect=floats,
        element_defects=small_tuples,
        projection_defects=small_tuples,
        completeness_defects=st.lists(floats, max_size=3).map(tuple),
        passed=st.booleans(),
    ),
)
# keys the stdlib converts (int, float, bool, None) and ones it rejects
odd_keys = st.one_of(
    st.integers(-5, 5),
    floats,
    st.booleans(),
    st.none(),
    st.integers(0, 3).map(np.int64),
    st.tuples(st.integers(0, 2)),
)
values = st.recursive(
    st.one_of(leaves, reports),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.builds(Pair, children, children),
        st.lists(st.lists(floats, min_size=2, max_size=2), max_size=4),
        st.dictionaries(text, children, max_size=4),
        st.dictionaries(odd_keys, children, max_size=3),
    ),
    max_leaves=12,
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(values)
@example({"b": [math.nan, math.inf, -math.inf], "a": [[math.nan, -0.0], [1e16, 5e-324]]})
@example([np.float32(0.1), np.float32(1e-8)])
@example({"é\x00\"": [], "": {}, "z": [[], {}, [[]]]})
def test_dumps_json_matches_stdlib_oracle(obj):
    assert outcome(serialize.dumps_json, obj) == outcome(oracle_dumps, obj)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_golden_files_reemit_to_their_bytes(path):
    data = path.read_bytes()
    assert serialize.emit_report(json.loads(data)) == data


def test_cli_naimark_report_matches_oracle(tmp_path):
    s = random_strategy(np.random.default_rng(404), 4, 4, outcomes=3, rank=2)
    src = tmp_path / "mid.json"
    src.write_text(json.dumps(serialize.strategy_to_jsonable(s)))
    out = tmp_path / "naimark.json"
    assert run(["naimark", str(src), "--out", str(out)]) == 0
    dilated, v_a, v_b = naimark_strategy(serialize.parse_strategy_file(src))
    payload = {
        "strategy": serialize.strategy_to_jsonable(dilated),
        "V_A": linalg.encode_complex_array(v_a),
        "V_B": linalg.encode_complex_array(v_b),
    }
    assert out.read_text() == oracle_dumps(payload)


def test_encode_complex_array_matches_per_entry_conversion():
    tiny = 5e-324
    entries = np.array(
        [complex(-0.0, 0.0), complex(0.0, -0.0), complex(tiny, -tiny),
         complex(2.2e-308 / 3, 1.0), complex(-1e16, 0.1), complex(math.inf, -math.nan)]
    )
    rng = np.random.default_rng(5)
    matrix = np.concatenate([entries, rng.normal(size=6) + 1j * rng.normal(size=6)]).reshape(3, 4)
    for a in (entries, matrix, matrix.real, np.zeros((0, 2))):
        got = linalg.encode_complex_array(a)
        assert repr(got) == repr(old_encode_complex_array(a))
        flat = np.asarray(got, dtype=object).ravel().tolist()
        assert all(type(x) is float for x in flat)


@pytest.mark.parametrize(
    "deleted, named",
    [("dims", "dims.A"), ("dims.A", "dims.A"), ("dims.B", "dims.B"), ("state", "state.kind"),
     ("state.kind", "state.kind"), ("state.data", "state.data"), ("alice", "alice"), ("bob", "bob")],
)
def test_strategy_parse_error_names_the_missing_field(deleted, named):
    obj = serialize.strategy_to_jsonable(random_strategy(np.random.default_rng(5), 2, 2))
    *parents, last = deleted.split(".")
    del (obj[parents[0]] if parents else obj)[last]
    with pytest.raises(serialize.ParseError) as info:
        serialize.strategy_from_jsonable(obj)
    assert str(info.value) == f"malformed strategy object: missing field {named}"


def test_strategy_parse_error_on_a_non_object():
    with pytest.raises(serialize.ParseError, match="missing field dims.A"):
        serialize.strategy_from_jsonable([1, 2])


def identity_witness_jsonable():
    eye = linalg.encode_complex_array(np.eye(2, dtype=complex))
    return {"U_A": eye, "U_B": eye, "aux": linalg.encode_complex_array(np.ones(1, dtype=complex))}


PARSERS = {
    "witness": (identity_witness_jsonable, serialize.witness_arrays_from_jsonable),
    "dilation": (
        lambda: serialize.dilation_to_jsonable(minimal_trine_dilation()),
        serialize.dilation_from_jsonable,
    ),
}


@pytest.mark.parametrize(
    "kind, deleted",
    [("witness", "U_A"), ("witness", "U_B"), ("witness", "aux"), ("dilation", "pvms"),
     ("dilation", "isometry"), ("dilation", "dims.in"), ("dilation", "dims.out")],
)
def test_parse_error_names_the_missing_field(kind, deleted):
    build, parse = PARSERS[kind]
    obj = build()
    parse(obj)  # complete, it parses
    *parents, last = deleted.split(".")
    del (obj[parents[0]] if parents else obj)[last]
    with pytest.raises(serialize.ParseError) as info:
        parse(obj)
    assert str(info.value) == f"malformed {kind} object: missing field {deleted}"


@pytest.mark.parametrize("field", ["in", "out"])
@pytest.mark.parametrize("value", [2.7, True, "2", 5, 2.0, None])
def test_dilation_dims_must_repeat_the_isometry_shape(field, value):
    # the isometry is 3 x 2, so dims must read in 2, out 3
    obj = serialize.dilation_to_jsonable(minimal_trine_dilation())
    assert serialize.dilation_from_jsonable(obj).dims == (2, 3)
    obj["dims"][field] = value
    with pytest.raises(serialize.ParseError, match=r"the isometry of shape \(3, 2\)"):
        serialize.dilation_from_jsonable(obj)


@pytest.mark.parametrize("kind, array", [("witness", "U_A"), ("dilation", "isometry")])
def test_an_integer_beyond_the_float_range_is_a_parse_error(kind, array):
    # json.loads keeps a 401-digit literal as an int, which no float holds
    obj = PARSERS[kind][0]()
    obj[array][0][0][0] = 10**400
    with pytest.raises(serialize.ParseError, match=f"malformed {kind} object: int too large"):
        PARSERS[kind][1](obj)


@pytest.mark.parametrize("entry", ["1.0", True, False, None], ids=repr)
@pytest.mark.parametrize("kind, array", [("witness", "U_A"), ("dilation", "isometry")])
def test_a_matrix_entry_that_is_not_a_number_is_a_parse_error(kind, array, entry):
    # numpy reads each of these as a float; a JSON integer is a number and parses
    build, parse = PARSERS[kind]
    obj = build()
    assert obj[array][0][0][0] == 1.0
    obj[array][0][0][0] = 1
    parse(obj)
    obj[array][0][0][0] = entry
    with pytest.raises(serialize.ParseError) as info:
        parse(obj)
    assert str(info.value) == f"malformed {kind} object: matrix entries must be numbers, not {entry!r}"


@pytest.mark.parametrize(
    "kind, edit",
    [("witness", lambda obj: obj.update(U_A=1)), ("witness", lambda obj: obj.update(aux=[1.0])),
     ("dilation", lambda obj: obj["pvms"][0].__setitem__(0, 5)),
     ("dilation", lambda obj: obj.update(isometry=[[[1.0, 0.0]], [[0.0]]]))],
    ids=["witness-scalar", "witness-flat", "dilation-scalar", "dilation-ragged"],
)
def test_a_malformed_matrix_is_a_parse_error(kind, edit):
    obj = PARSERS[kind][0]()
    edit(obj)
    with pytest.raises(serialize.ParseError, match=f"^malformed {kind} object: "):
        PARSERS[kind][1](obj)


@pytest.mark.parametrize(
    "kind, data, message",
    [("weird", [[1.0, 0.0]] * 4, "unknown state kind 'weird'"),
     ("pure", [[[1.0, 0.0]] * 4] * 4, "pure state data must be a vector"),
     ("mixed", [[1.0, 0.0]] * 4, "mixed state data must be a matrix")],
    ids=["weird", "pure-matrix", "mixed-vector"],
)
def test_strategy_state_kind_must_fit_its_data(kind, data, message):
    obj = serialize.strategy_to_jsonable(random_strategy(np.random.default_rng(5), 2, 2))
    obj["state"] = {"kind": kind, "data": data}
    with pytest.raises(serialize.ParseError) as info:
        serialize.strategy_from_jsonable(obj)
    assert str(info.value) == message


def test_unknown_witness_form_is_a_parse_error():
    obj = {**identity_witness_jsonable(), "form": "bogus"}
    with pytest.raises(serialize.ParseError) as info:
        serialize.witness_arrays_from_jsonable(obj)
    assert str(info.value) == "unknown witness form 'bogus'"


@pytest.mark.parametrize("kind, first", [("witness", "U_A"), ("dilation", "pvms")])
def test_parse_error_on_a_non_object_names_the_first_field(kind, first):
    with pytest.raises(serialize.ParseError) as info:
        PARSERS[kind][1]([1, 2])
    assert str(info.value) == f"malformed {kind} object: missing field {first}"


def test_csv_reports_write_numpy_values_as_python_ones():
    mixed = serialize.emit_report({"a": np.array([1.0, 2.0]), "b": np.float64(0.5)}, "csv")
    assert mixed == serialize.emit_report({"a": [1.0, 2.0], "b": 0.5}, "csv")
    assert mixed == b'key,value\na,"[1.0, 2.0]"\nb,0.5\n'


def test_dumps_json_refuses_an_object_it_cannot_write():
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        serialize.dumps_json(object())


def test_dumps_csv_of_no_rows_is_one_newline():
    assert serialize.dumps_csv([]) == "\n"


@pytest.mark.parametrize(
    "obj, fmt, message",
    [
        (1.5, "csv", "csv emission needs a mapping or a list of rows"),
        ({}, "xml", "unknown format 'xml'"),
    ],
)
def test_emit_report_refuses_an_unwritable_report(obj, fmt, message):
    with pytest.raises(LabError, match=message):
        serialize.emit_report(obj, fmt)
