"""Every file-reading subcommand at the float limits.

Strategy, witness and Naimark files get entries from {+-1e-320, NaN, +-inf},
in a real or an imaginary part, at random positions.  Whatever the input, a
command exits 0, 1 or 2, raises no warning, and writes nothing to stderr but
one ``error:`` line.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from selftest_lab import linalg, serialize
from selftest_lab.cli import run
from selftest_lab.naimark import naimark_strategy

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
LIMITS = (1e-320, -1e-320, float("nan"), float("inf"), float("-inf"))
STRATEGY_COMMANDS = ("validate", "correlation", "metrics", "restrict", "naimark")


def _load(name):
    return json.loads((FIXTURES / name).read_text())


def _files():
    """The JSON objects of the inputs, by name: strategies, witnesses, and the
    Naimark files (the fixture dilation, and ``naimark``'s dilated trine with
    its isometries as a witness)."""
    dilated, v_a, v_b = naimark_strategy(serialize.parse_strategy_file(FIXTURES / "trine.json"))
    eye = linalg.encode_complex_array(np.eye(2, dtype=complex))
    return {
        "chsh": _load("chsh.json"),
        "trine": _load("trine.json"),
        "minimal_naimark": _load("trine_minimal_naimark.json"),
        "trine_naimark": serialize.strategy_to_jsonable(dilated),
        "w_identity": {"U_A": eye, "U_B": eye, "aux": [[1.0, 0.0]]},
        "w_naimark": {
            "U_A": linalg.encode_complex_array(v_a),
            "U_B": linalg.encode_complex_array(v_b),
            "aux": [[1.0, 0.0]],
        },
    }


FILES = _files()
# (command, the input files in argument order, the witness form if any); no
# `naimark` of the dilated trine, whose 288-dimensional report takes seconds
CASES = [
    (command, (name,), None)
    for command in STRATEGY_COMMANDS
    for name in ("chsh", "trine", "trine_naimark", "minimal_naimark")
    if (command, name) != ("naimark", "trine_naimark")
] + [
    ("check-dilation", files, form)
    for files in (("chsh", "chsh", "w_identity"), ("trine", "trine_naimark", "w_naimark"))
    for form in ("vector", "matrix", "extraction")
]


def _pairs(obj, path=()):
    """The paths of the ``[re, im]`` pairs in a JSON object."""
    if isinstance(obj, list) and len(obj) == 2 and all(type(x) is float for x in obj):
        yield path
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _pairs(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _pairs(value, path + (i,))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(CASES),
    st.integers(0, 2),
    st.lists(
        st.tuples(st.integers(0, 2**20), st.booleans(), st.sampled_from(LIMITS)),
        min_size=1,
        max_size=3,
    ),
)
def test_every_command_at_the_float_limits(case, which, edits):
    command, names, form = case
    objs = [copy.deepcopy(FILES[name]) for name in names]
    target = objs[which % len(objs)]
    pairs = list(_pairs(target))
    for index, imaginary, value in edits:
        *path, last = pairs[index % len(pairs)]
        parent = target
        for key in path:
            parent = parent[key]
        parent[last][imaginary] = value
    if form is not None:
        objs[-1]["form"] = form
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, obj in enumerate(objs):
            paths.append(str(Path(tmp) / f"{i}.json"))
            Path(paths[-1]).write_text(serialize.dumps_json(obj))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run([command, *paths])
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error:")), lines
