import copy
import csv
import io
import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from selftest_lab import cli, linalg, serialize
from selftest_lab.cli import run
from selftest_lab.dilation import DilationWitness, scalar_aux
from selftest_lab.games import Strategy, conjugate_strategy, correlation_of
from selftest_lab.lab import canonical_chsh, minimal_trine_dilation, trine_strategy

from helpers import random_strategy

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
RNG = np.random.default_rng(808)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(serialize.dumps_json(payload))
    return str(path)


def test_strategy_roundtrip_bit_for_bit():
    for s in (canonical_chsh(), trine_strategy(), random_strategy(RNG, 2, 3, outcomes=3)):
        encoded = serialize.strategy_to_jsonable(s)
        text = serialize.dumps_json(encoded)
        decoded = serialize.strategy_from_jsonable(json.loads(text))
        assert np.array_equal(decoded.state, s.state)
        for fam_a, fam_b in zip(decoded.alice + decoded.bob, s.alice + s.bob):
            for e_a, e_b in zip(fam_a, fam_b):
                assert np.array_equal(e_a, e_b)


def test_emit_deterministic():
    payload = {"b": 1 / 3, "a": [1.0, 2.0]}
    assert serialize.emit_report(payload) == serialize.emit_report(payload)
    # shortest round-trip float text survives a parse exactly
    text = serialize.dumps_json({"x": 0.1 + 0.2})
    assert json.loads(text)["x"] == 0.1 + 0.2


def test_bundled_fixtures_parse_and_validate():
    chsh = serialize.parse_strategy_file(FIXTURES / "chsh.json")
    reference = canonical_chsh()
    assert np.array_equal(chsh.state, reference.state)
    trine = serialize.parse_strategy_file(FIXTURES / "trine.json")
    p_fixture = correlation_of(trine).table
    p_reference = correlation_of(trine_strategy()).table
    assert np.array_equal(p_fixture, p_reference)
    dil = serialize.dilation_from_jsonable(
        serialize.load_json_file(FIXTURES / "trine_minimal_naimark.json")
    )
    want = minimal_trine_dilation()
    assert np.array_equal(dil.isometry, want.isometry)


def test_cli_validate_ok(capsys):
    code = run(["validate", str(FIXTURES / "chsh.json")])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True


def test_cli_validate_invalid_strategy(tmp_path, capsys):
    one = np.eye(2, dtype=complex)
    bad = Strategy(
        state=canonical_chsh().state, dims=(2, 2),
        alice=[[one, one]], bob=[[one / 2, one / 2]],
    )
    path = write_json(tmp_path, "bad.json", serialize.strategy_to_jsonable(bad))
    assert run(["validate", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False


def test_cli_validate_broken_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dims": {"A": 2')  # truncated
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_cli_missing_file():
    assert run(["metrics", "/nonexistent/strategy.json"]) == 2


@pytest.mark.parametrize("message", ["Unable to allocate 1.00 TiB for an array", ""])
def test_cli_turns_a_memory_error_into_exit_2(monkeypatch, capsys, message):
    # a handler that runs out of memory (as numpy's allocation of a too large
    # matrix does) exits 2 with one error line; nothing is allocated here
    def handler(args):
        raise MemoryError(message)

    _, info, arguments = cli._COMMANDS["validate"]
    monkeypatch.setitem(cli._COMMANDS, "validate", (handler, info, arguments))
    assert run(["validate", str(FIXTURES / "chsh.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message or 'out of memory'}\n"


def test_cli_restrict_rejects_mixed_input(tmp_path, capsys):
    zfam = [np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)]
    s = Strategy(
        state=np.eye(4, dtype=complex) / 4, dims=(2, 2), alice=[zfam], bob=[zfam]
    )
    path = write_json(tmp_path, "mixed.json", serialize.strategy_to_jsonable(s))
    assert run(["restrict", path]) == 2
    assert run(["naimark", path]) == 2
    capsys.readouterr()


def test_cli_metrics_trine(capsys):
    assert run(["metrics", str(FIXTURES / "trine.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["projective_eps"] == pytest.approx(1 / 3, abs=1e-12)
    assert out["support_eps"] == 0.0


def test_cli_correlation(capsys):
    assert run(["correlation", str(FIXTURES / "chsh.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    p = np.asarray(out["p"])
    assert p.shape == (2, 2, 2, 2)
    assert p[0, 0, 0, 0] == pytest.approx((2 + np.sqrt(2)) / 8, abs=1e-12)


def test_cli_restrict_and_naimark(tmp_path, capsys):
    assert run(["restrict", str(FIXTURES / "chsh.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["strategy"]["dims"] == {"A": 2, "B": 2}

    out_path = tmp_path / "dilated.json"
    assert run(["naimark", str(FIXTURES / "trine.json"), "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    dilated = serialize.strategy_from_jsonable(payload["strategy"])
    p0 = correlation_of(trine_strategy()).table
    p1 = correlation_of(dilated).table
    assert np.max(np.abs(p0 - p1)) <= 1e-12


def test_cli_naimark_dilates_what_validate_accepts_at_tol(tmp_path, capsys):
    # chsh.json with one of Bob's eigenvalues at -5e-7 (completeness kept):
    # refused at the default --tol by both commands, accepted by both at 1e-6
    s = serialize.parse_strategy_file(FIXTURES / "chsh.json")
    e0, e1 = s.bob[0]
    v = linalg.hermitian_eig(e1).eigenvectors[:, 0]  # e0 v = 0, e1 v = v
    dust = 5e-7 * np.outer(v, v.conj())
    bob = [[e0 - dust, e1 + dust], list(s.bob[1])]
    src = Strategy(state=s.state, dims=s.dims, alice=s.alice, bob=bob)
    path = write_json(tmp_path, "dusty.json", serialize.strategy_to_jsonable(src))
    assert run(["validate", path]) == 1
    assert run(["naimark", path]) == 2
    assert run(["validate", path, "--tol", "1e-6"]) == 0
    out_path = tmp_path / "dilated.json"
    assert run(["naimark", path, "--tol", "1e-6", "--out", str(out_path)]) == 0
    capsys.readouterr()
    dilated = serialize.strategy_from_jsonable(json.loads(out_path.read_text())["strategy"])
    p0 = correlation_of(src, 1e-6).table
    p1 = correlation_of(dilated, 1e-6).table
    assert np.max(np.abs(p0 - p1)) <= 1e-6


def test_cli_check_dilation_exact_witness(tmp_path, capsys):
    s = canonical_chsh()
    w = DilationWitness(
        u_a=np.eye(2, dtype=complex), u_b=np.eye(2, dtype=complex),
        dims_a=(2, 1), dims_b=(2, 1), aux=scalar_aux(),
    )
    src = write_json(tmp_path, "src.json", serialize.strategy_to_jsonable(s))
    dst = write_json(tmp_path, "dst.json", serialize.strategy_to_jsonable(s))
    wit = write_json(tmp_path, "w.json", serialize.witness_to_jsonable(w))
    assert run(["check-dilation", src, dst, wit, "--tol", "1e-8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["eps"] <= 1e-12


def test_cli_check_dilation_failing_witness(tmp_path, capsys):
    t = trine_strategy()
    # same question structure is required; compare trine against itself with a
    # witness that lands on the wrong state
    rot = np.array([[0, 1], [1, 0]], dtype=complex)
    w = DilationWitness(
        u_a=rot, u_b=np.eye(2, dtype=complex),
        dims_a=(2, 1), dims_b=(2, 1), aux=scalar_aux(),
    )
    src = write_json(tmp_path, "src.json", serialize.strategy_to_jsonable(t))
    dst = write_json(tmp_path, "dst.json", serialize.strategy_to_jsonable(t))
    wit = write_json(tmp_path, "w.json", serialize.witness_to_jsonable(w))
    assert run(["check-dilation", src, dst, wit, "--tol", "1e-8"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["eps"] > 0.1


def test_cli_check_dilation_extraction_form(tmp_path, capsys):
    s = canonical_chsh()
    w = DilationWitness(
        u_a=np.eye(2, dtype=complex), u_b=np.eye(2, dtype=complex),
        dims_a=(2, 1), dims_b=(2, 1), aux=scalar_aux(),
    )
    src = write_json(tmp_path, "src.json", serialize.strategy_to_jsonable(s))
    dst = write_json(tmp_path, "dst.json", serialize.strategy_to_jsonable(s))
    wit = write_json(
        tmp_path, "w.json", serialize.witness_to_jsonable(w, form="extraction")
    )
    assert run(["check-dilation", src, dst, wit, "--tol", "1e-8"]) == 0
    assert json.loads(capsys.readouterr().out)["form"] == "extraction"


def test_bundled_trine_beta_check():
    from selftest_lab.lab import beta_functionals

    s = serialize.parse_strategy_file(FIXTURES / "trine.json")
    betas = beta_functionals(s)
    assert betas.beta0 == pytest.approx(2 * np.sqrt(2), abs=1e-12)
    assert betas.beta1 == pytest.approx(1.0, abs=1e-12)


def test_witness_json_roundtrip(tmp_path):
    from selftest_lab.dilation import dilation_residuals, naimark_embedding
    from selftest_lab.naimark import naimark_strategy

    s = trine_strategy()
    w = naimark_embedding(s)
    dst, _, _ = naimark_strategy(s)
    payload = json.loads(serialize.dumps_json(serialize.witness_to_jsonable(w)))
    u_a, u_b, aux, form = serialize.witness_arrays_from_jsonable(payload)
    rebuilt = DilationWitness(
        u_a=u_a, u_b=u_b, dims_a=w.dims_a, dims_b=w.dims_b, aux=aux
    )
    assert form == "vector"
    assert dilation_residuals(s, dst, rebuilt).eps == pytest.approx(1 / 3, abs=1e-10)


def test_cli_check_dilation_mixed_source(tmp_path, capsys):
    # mixed source: dst (x) sigma_aux reordered, identity isometries; the aux
    # carries the rank-2 purifier factor
    from helpers import random_density
    from selftest_lab import linalg
    from selftest_lab.dilation import vector_witness_from_matrix_form
    from selftest_lab.games import Strategy

    rng = np.random.default_rng(17)
    dst = canonical_chsh()
    sigma = random_density(rng, 4, rank=2)
    rho = linalg.permute_systems(
        np.kron(np.outer(dst.state, dst.state.conj()), sigma), (2, 2, 2, 2), (0, 2, 1, 3)
    )
    alice = [[np.kron(e, np.eye(2)) for e in fam] for fam in dst.alice]
    bob = [[np.kron(e, np.eye(2)) for e in fam] for fam in dst.bob]
    src = Strategy(state=rho, dims=(4, 4), alice=alice, bob=bob)
    w = vector_witness_from_matrix_form(
        src, dst, np.eye(4, dtype=complex), np.eye(4, dtype=complex), (2, 2), (2, 2)
    )
    src_path = write_json(tmp_path, "src.json", serialize.strategy_to_jsonable(src))
    dst_path = write_json(tmp_path, "dst.json", serialize.strategy_to_jsonable(dst))
    wit_path = write_json(tmp_path, "w.json", serialize.witness_to_jsonable(w))
    assert run(["check-dilation", src_path, dst_path, wit_path, "--tol", "1e-8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["eps"] <= 1e-10


def _mixed_source_case(tmp_path, scale=1.0):
    """A mixed source ``dst (x) sigma`` (sigma of rank 2 on the ancillas), the
    canonical CHSH destination and the vector witness whose aux carries the
    purifier factor, each written to ``tmp_path``; the source file holds the
    density matrix times ``scale``."""
    from helpers import random_density
    from selftest_lab.dilation import vector_witness_from_matrix_form

    rng = np.random.default_rng(17)
    dst = canonical_chsh()
    sigma = random_density(rng, 4, rank=2)
    rho = linalg.permute_systems(
        np.kron(np.outer(dst.state, dst.state.conj()), sigma), (2, 2, 2, 2), (0, 2, 1, 3)
    )
    alice = [[np.kron(e, np.eye(2)) for e in fam] for fam in dst.alice]
    bob = [[np.kron(e, np.eye(2)) for e in fam] for fam in dst.bob]
    src = Strategy(state=rho, dims=(4, 4), alice=alice, bob=bob)
    w = vector_witness_from_matrix_form(
        src, dst, np.eye(4, dtype=complex), np.eye(4, dtype=complex), (2, 2), (2, 2)
    )
    assert w.purifier_dim == 2
    src = Strategy(state=rho * scale, dims=(4, 4), alice=alice, bob=bob)
    return (write_json(tmp_path, "src.json", serialize.strategy_to_jsonable(src)),
            write_json(tmp_path, "dst.json", serialize.strategy_to_jsonable(dst)),
            serialize.witness_to_jsonable(w))


def test_cli_check_dilation_matrix_form_traces_out_the_purifier(tmp_path, capsys):
    # the witness of test_cli_check_dilation_mixed_source passes the matrix
    # form too: its ancilla state is |aux><aux| with the purifier traced out
    src, dst, payload = _mixed_source_case(tmp_path)
    wit = write_json(tmp_path, "w.json", {**payload, "form": "matrix"})
    assert run(["check-dilation", src, dst, wit, "--tol", "1e-8"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["eps"] <= 1e-10


def test_cli_check_dilation_mixed_source_at_the_parse_tol(tmp_path, capsys):
    # a trace defect of 1e-7 passes the parse gate at 1e-6; the purification
    # applies no fixed unit-trace check of its own
    src, dst, payload = _mixed_source_case(tmp_path, scale=1 + 1e-7)
    wit = write_json(tmp_path, "w.json", payload)
    assert run(["validate", src, "--tol", "1e-6"]) == 0
    assert run(["check-dilation", src, dst, wit, "--tol", "1e-9"]) == 2
    capsys.readouterr()
    assert run(["check-dilation", src, dst, wit, "--tol", "1e-6"]) in (0, 1)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["eps"] <= 1e-6


@pytest.mark.parametrize("form", ["matrix", "extraction"])
def test_cli_check_dilation_checks_aux_in_every_form(tmp_path, capsys, form):
    # aux of norm 2 is refused as input, as the vector form refuses it, not
    # turned into a residual or ignored
    chsh = str(FIXTURES / "chsh.json")
    eye = linalg.encode_complex_array(np.eye(2, dtype=complex))
    wit = write_json(tmp_path, "w.json",
                     {"U_A": eye, "U_B": eye, "aux": [[2.0, 0.0]], "form": form})
    assert run(["check-dilation", chsh, chsh, wit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: aux must be a normalized vector\n"


@pytest.mark.parametrize("form", ["vector", "matrix", "extraction"])
def test_cli_check_dilation_checks_the_purifier_in_every_form(tmp_path, capsys, form):
    # a pure source needs no purifier factor; an aux of size 2 over one-dimensional
    # hat factors claims one of 2, which no form may certify
    chsh = str(FIXTURES / "chsh.json")
    eye = linalg.encode_complex_array(np.eye(2, dtype=complex))
    wit = write_json(tmp_path, "w.json",
                     {"U_A": eye, "U_B": eye, "aux": [[1.0, 0.0], [0.0, 0.0]], "form": form})
    assert run(["check-dilation", chsh, chsh, wit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: aux purifier factor is 2, purification needs 1\n"


def test_cli_repro_targets_deterministic(capsys):
    assert run(["repro", "trine"]) == 0
    first = capsys.readouterr().out
    out = json.loads(first)
    assert out["beta0"] == pytest.approx(2 * np.sqrt(2), abs=1e-12)
    assert out["beta1"] == pytest.approx(1.0, abs=1e-12)
    assert run(["repro", "trine"]) == 0
    assert capsys.readouterr().out == first

    assert run(["repro", "moments"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["difference"] == pytest.approx(1 / 9, abs=1e-12)

    assert run(["repro", "pencil", "--seed", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_rank_deficient"] is True


def test_cli_repro_robustness_csv(capsys):
    assert run(["repro", "robustness", "--format", "csv", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "magnitude,delta,epsilon,bound"
    for line in lines[1:]:
        magnitude, delta, epsilon, bound = (float(x) for x in line.split(","))
        assert epsilon <= bound + 1e-9


def test_cli_repro_robustness_json_reports_constant(capsys):
    assert run(["repro", "robustness"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["constant"] == pytest.approx(8.0)
    assert len(out["rows"]) > 0


@pytest.mark.parametrize("form", ["vector", "matrix", "extraction"])
@pytest.mark.parametrize("src,dst", [("chsh", "trine"), ("trine", "chsh")])
def test_cli_check_dilation_rejects_mismatched_questions(tmp_path, capsys, form, src, dst):
    # trine has a third Bob question; every form refuses the pair as input
    w = DilationWitness(
        u_a=np.eye(2, dtype=complex), u_b=np.eye(2, dtype=complex),
        dims_a=(2, 1), dims_b=(2, 1), aux=scalar_aux(),
    )
    wit = write_json(tmp_path, "w.json", serialize.witness_to_jsonable(w, form=form))
    argv = ["check-dilation", str(FIXTURES / f"{src}.json"), str(FIXTURES / f"{dst}.json"), wit]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_correlation_rejects_empty_side(tmp_path, capsys):
    s = canonical_chsh()
    empty = Strategy(state=s.state, dims=s.dims, alice=[], bob=s.bob)
    path = write_json(tmp_path, "empty.json", serialize.strategy_to_jsonable(empty))
    assert run(["correlation", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("side, key", [("alice", "V_A"), ("bob", "V_B")])
def test_cli_naimark_dilates_a_side_with_no_questions(tmp_path, capsys, side, key):
    # validate accepts a side with no questions, so naimark dilates it: by
    # the identity of that side's dimension, with no families
    obj = json.loads((FIXTURES / "chsh.json").read_text())
    obj[side] = []
    path = write_json(tmp_path, "empty.json", obj)
    assert run(["validate", path]) == 0
    capsys.readouterr()
    assert run(["naimark", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert np.array_equal(linalg.decode_complex_array(out[key]), np.eye(2))
    dilated = serialize.strategy_from_jsonable(out["strategy"])
    assert getattr(dilated, side) == ()
    assert dilated.dims[side == "bob"] == 2


@pytest.mark.parametrize("name", ["chsh", "trine"])
def test_cli_validate_report_bytes(name, capsys):
    # every byte is pinned, the diagnostic eigenvalue tables included; how
    # validity is decided must not show in the report
    assert run(["validate", str(FIXTURES / f"{name}.json")]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"validate_{name}.json").read_text()


def assert_matches_golden(got, want, where="report"):
    """Same structure, keys, strings, ints and bools; each float within 1e-15."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for k in want:
            assert_matches_golden(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches_golden(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-15, f"{where}: {got!r} vs {want!r}"
    else:
        assert got == want, where


GOLDEN_REPORTS = [
    *(
        (f"{cmd}_{name}.json", [cmd, str(FIXTURES / f"{name}.json")])
        for cmd in ("correlation", "metrics", "restrict")
        for name in ("chsh", "trine")
    ),
    ("naimark_chsh.json", ["naimark", str(FIXTURES / "chsh.json")]),
    *(
        (f"repro_{target}.json", ["repro", target, "--seed", "0"])
        for target in ("chsh", "trine", "moments", "pencil", "robustness")
    ),
    ("validate_trine.csv", ["validate", str(FIXTURES / "trine.json"), "--format", "csv"]),
    ("repro_robustness.csv", ["repro", "robustness", "--format", "csv", "--seed", "0"]),
]


@pytest.mark.parametrize("golden,argv", GOLDEN_REPORTS, ids=[g for g, _ in GOLDEN_REPORTS])
def test_cli_report_matches_golden(golden, argv, capsys):
    # JSON reports up to float round-off, CSV reports byte for byte
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    want = (GOLDEN / golden).read_text()
    if golden.endswith(".csv"):
        assert captured.out == want
    else:
        assert_matches_golden(json.loads(captured.out), json.loads(want))


def dilation_case(name):
    """(src, dst, witness, form) of a ``check-dilation`` golden, built from the
    trine fixture with no randomness: the restriction and Naimark vector
    witnesses, or a fixed local unitary of trine in the matrix or extraction form."""
    from selftest_lab import dilation, naimark, schmidt

    trine = serialize.parse_strategy_file(FIXTURES / "trine.json")
    if name == "restriction":
        return schmidt.restrict(trine)[0], trine, dilation.restriction_embedding(trine), "vector"
    if name == "naimark":
        dilated = naimark.naimark_strategy(trine)[0]
        return trine, dilated, dilation.naimark_embedding(trine), "vector"
    c, s = np.cos(0.3), np.sin(0.3)
    u_a = np.array([[c, -s], [s, c]], dtype=complex)
    u_b = np.diag([1.0, 1j]) @ u_a
    w = DilationWitness(u_a=u_a, u_b=u_b, dims_a=(2, 1), dims_b=(2, 1), aux=scalar_aux())
    return trine, conjugate_strategy(trine, u_a, u_b), w, name


@pytest.mark.parametrize(
    "name, code", [("restriction", 0), ("naimark", 1), ("matrix", 0), ("extraction", 0)]
)
def test_cli_check_dilation_matches_golden(name, code, tmp_path, capsys):
    # the Naimark witness fails at 1e-8: its eps is trine's projectivity defect, 1/3
    src, dst, w, form = dilation_case(name)
    argv = [
        write_json(tmp_path, "src.json", serialize.strategy_to_jsonable(src)),
        write_json(tmp_path, "dst.json", serialize.strategy_to_jsonable(dst)),
        write_json(tmp_path, "w.json", serialize.witness_to_jsonable(w, form=form)),
    ]
    assert run(["check-dilation", *argv, "--tol", "1e-8"]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    want = (GOLDEN / f"check_dilation_{name}.json").read_text()
    assert_matches_golden(json.loads(captured.out), json.loads(want))


def chsh_with_bob_entry(tmp_path, question, answer, edit):
    obj = json.loads((FIXTURES / "chsh.json").read_text())
    edit(obj["bob"][question][answer])
    return write_json(tmp_path, "edited.json", obj)


@pytest.mark.parametrize("bad", [[float("nan"), 0.0], [float("inf"), 0.0], [float("nan"), float("nan")]])
@pytest.mark.parametrize("command", ["validate", "correlation", "metrics"])
def test_cli_rejects_non_finite_element(tmp_path, capsys, command, bad):
    def put(element):
        element[0][1] = bad

    path = chsh_with_bob_entry(tmp_path, 1, 1, put)
    assert run([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "non-finite" in captured.err
    assert "Traceback" not in captured.err


def test_cli_infinite_imaginary_part_is_one_error_line(tmp_path):
    # a fresh process with default warning filters, as a user runs the CLI
    def put(element):
        element[0][1] = [0.0, float("inf")]

    path = chsh_with_bob_entry(tmp_path, 1, 1, put)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-m", "selftest_lab", "validate", path],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error:") and "non-finite" in lines[0]


def chsh_with_a_huge_entry(tmp_path, where):
    obj = json.loads((FIXTURES / "chsh.json").read_text())
    if where == "state":
        obj["state"]["data"] = [[1e200, 0.0] for _ in obj["state"]["data"]]
    elif where == "alice":
        obj["alice"][0][0][0][0] = [1e200, 0.0]
    else:  # h + h* of this element overflows unless each term is halved first
        obj["bob"][0][0][0][0] = [1e308, 0.0]
    return write_json(tmp_path, "huge.json", obj)


@pytest.mark.parametrize("where", ["state", "alice", "bob at the float limit"])
@pytest.mark.parametrize(
    "command, code",
    [("validate", 1), ("correlation", 2), ("metrics", 2), ("restrict", 2), ("naimark", 2)],
)
def test_cli_huge_finite_entry_fails_without_a_warning(tmp_path, capsys, command, code, where):
    # (1e200)^2 overflows inside a defect's norm, and 1e308 reads inf in a
    # completeness defect: the defect fails the gate, and no RuntimeWarning
    # escapes (the suite makes warnings errors)
    assert run([command, chsh_with_a_huge_entry(tmp_path, where)]) == code
    captured = capsys.readouterr()
    if code == 1:
        assert captured.err == ""
    else:
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "fails validation" in captured.err


@pytest.mark.parametrize("part", ["real", "imaginary"])
@pytest.mark.parametrize(
    "array, value",
    [("U_B", 1e308), ("U_B", -1e308), ("U_B", 1e154), ("aux", 1e308), ("aux", -1e308)],
)
@pytest.mark.parametrize("form", ["vector", "matrix", "extraction"])
def test_cli_huge_finite_witness_entry_fails_without_a_warning(
    tmp_path, capsys, form, array, value, part
):
    # one entry of chsh's identity witness at a huge finite value: U_B's Gram
    # product overflows (to inf or NaN), and so does aux's norm; each fails as
    # a witness mismatch, and no RuntimeWarning escapes
    eye = linalg.encode_complex_array(np.eye(2, dtype=complex))
    payload = {"U_A": eye, "U_B": copy.deepcopy(eye), "aux": [[1.0, 0.0]], "form": form}
    entry = payload["U_B"][0][0] if array == "U_B" else payload["aux"][0]
    entry[part == "imaginary"] = value
    wit = write_json(tmp_path, "w.json", payload)
    chsh = str(FIXTURES / "chsh.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["check-dilation", chsh, chsh, wit]) == 2
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_cli_names_the_missing_strategy_field(capsys):
    # a Naimark-dilation file has dims {"in", "out"}, not a strategy's {"A", "B"}
    assert run(["validate", str(FIXTURES / "trine_minimal_naimark.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: malformed strategy object: missing field dims.A\n"


def test_cli_correlation_honours_tol(tmp_path, capsys):
    def scale(element):
        for row in element:
            for z in row:
                z[0] *= 1 + 1e-7
                z[1] *= 1 + 1e-7

    path = chsh_with_bob_entry(tmp_path, 0, 0, scale)
    assert run(["correlation", path, "--tol", "1e-6"]) == 0
    p = np.asarray(json.loads(capsys.readouterr().out)["p"])
    assert p.shape == (2, 2, 2, 2)
    assert run(["correlation", path]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("scale", [1.0, 2.0, 0.0])
@pytest.mark.parametrize("form", ["vector", "matrix", "extraction"])
def test_cli_check_dilation_rejects_non_isometric_witness(tmp_path, capsys, form, scale):
    # the witness undoes a local unitary on Alice's side; with U_A scaled by 2
    # or zeroed every form exits 2 with one error line, not a residual
    u = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    s = canonical_chsh()
    payload = serialize.witness_to_jsonable(
        DilationWitness(u_a=u.conj().T, u_b=np.eye(2, dtype=complex),
                        dims_a=(2, 1), dims_b=(2, 1), aux=scalar_aux()),
        form=form,
    )
    payload["U_A"] = (scale * np.asarray(payload["U_A"])).tolist()
    src = write_json(tmp_path, "src.json",
                     serialize.strategy_to_jsonable(conjugate_strategy(s, u, np.eye(2))))
    dst = write_json(tmp_path, "dst.json", serialize.strategy_to_jsonable(s))
    wit = write_json(tmp_path, "w.json", payload)
    code = run(["check-dilation", src, dst, wit])
    captured = capsys.readouterr()
    if scale == 1.0:
        assert code == 0 and captured.err == ""
        return
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: U_A is not an isometry")
    assert captured.err.count("\n") == 1


def test_cli_check_dilation_matrix_form_rejects_wrong_domain(tmp_path, capsys):
    # a 4 x 3 isometry cannot act on the 2-dimensional source space
    u_a = np.eye(4, 3, dtype=complex)
    payload = {
        "U_A": linalg.encode_complex_array(u_a),
        "U_B": linalg.encode_complex_array(np.eye(2, dtype=complex)),
        "aux": linalg.encode_complex_array(np.ones(2, dtype=complex) / np.sqrt(2)),
        "form": "matrix",
    }
    wit = write_json(tmp_path, "w.json", payload)
    chsh = str(FIXTURES / "chsh.json")
    assert run(["check-dilation", chsh, chsh, wit]) == 2
    err = capsys.readouterr().err
    assert err == "error: U_A has shape (4, 3), expected (4, 2)\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("array", ["U_A", "U_B", "aux"])
@pytest.mark.parametrize("form", ["vector", "matrix", "extraction"])
def test_cli_check_dilation_rejects_non_finite_witness(tmp_path, capsys, form, array, value):
    # every form refuses the witness as input, the extraction form's unused
    # aux included, rather than reporting a residual of 0 or NaN
    u = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    s = canonical_chsh()
    payload = serialize.witness_to_jsonable(
        DilationWitness(u_a=u.conj().T, u_b=np.eye(2, dtype=complex),
                        dims_a=(2, 1), dims_b=(2, 1), aux=scalar_aux()),
        form=form,
    )
    payload[array] = np.full(np.shape(payload[array]), float(value)).tolist()
    src = write_json(tmp_path, "src.json",
                     serialize.strategy_to_jsonable(conjugate_strategy(s, u, np.eye(2))))
    dst = write_json(tmp_path, "dst.json", serialize.strategy_to_jsonable(s))
    wit = write_json(tmp_path, "w.json", payload)
    assert run(["check-dilation", src, dst, wit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: witness {array} contains non-finite entries\n"


@pytest.mark.parametrize("entry", [["1.0", False], [True, 0.0], [None, 0.0]],
                         ids=["string", "bool", "null"])
def test_cli_refuses_a_strategy_entry_that_is_not_a_number(tmp_path, capsys, entry):
    obj = json.loads((FIXTURES / "chsh.json").read_text())
    obj["alice"][0][0][0] = entry
    assert run(["validate", write_json(tmp_path, "entry.json", obj)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: malformed strategy object: matrix entries must be numbers, not {entry[0]!r}\n"
    )


@pytest.mark.parametrize("entry", [True, "1", None], ids=repr)
def test_cli_refuses_a_witness_entry_that_is_not_a_number(tmp_path, capsys, entry):
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    bad = copy.deepcopy(eye)
    bad[0][0][0] = entry
    wit = write_json(tmp_path, "w.json", {"U_A": bad, "U_B": eye, "aux": [[1.0, 0.0]]})
    chsh = str(FIXTURES / "chsh.json")
    assert run(["check-dilation", chsh, chsh, wit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: malformed witness object: matrix entries must be numbers, not {entry!r}\n"
    )


def test_cli_refuses_a_witness_that_does_not_factor_over_dst(tmp_path, capsys):
    # U_A has 3 rows, which the 2-dimensional dst factor does not divide
    u_a = linalg.encode_complex_array(np.eye(3, 2, dtype=complex))
    u_b = linalg.encode_complex_array(np.eye(2, dtype=complex))
    wit = write_json(tmp_path, "w.json", {"U_A": u_a, "U_B": u_b, "aux": [[1.0, 0.0]]})
    chsh = str(FIXTURES / "chsh.json")
    assert run(["check-dilation", chsh, chsh, wit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: witness isometries do not factor over the dst dimensions\n"


def test_cli_unwritable_out_is_one_error_line(capsys):
    out = "/nonexistent/dir/x.json"
    assert run(["validate", str(FIXTURES / "chsh.json"), "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["repro", "pencil", "--seed", "-5"], ["repro", "robustness", "--seed", "-3"],
     ["validate", str(FIXTURES / "chsh.json"), "--tol", "nan"],
     ["correlation", str(FIXTURES / "chsh.json"), "--tol", "inf"],
     ["validate", str(FIXTURES / "chsh.json"), "--tol=-1e-12"],
     ["check-dilation", *(str(FIXTURES / "trine.json"),) * 3, "--tol", "-1"],
     ["repro", "chsh", "--seed", "-1"],
     *([cmd, str(FIXTURES / "chsh.json"), "--tol", "-1"]
       for cmd in ("metrics", "restrict", "naimark"))],
    ids=["seed-pencil", "seed-robustness", "tol-nan", "tol-inf", "tol-tiny-negative",
         "tol-negative", "seed-chsh", "tol-metrics", "tol-restrict", "tol-naimark"],
)
def test_cli_rejects_flag_values_when_parsing(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    flag = next(a.split("=")[0] for a in argv if a.startswith("--"))
    assert f"error: argument {flag}: must be " in captured.err


def test_cli_tol_zero_is_accepted(capsys):
    # the bound is tol >= 0, so the check runs; at 0 the fixture's round-off fails it
    assert run(["validate", str(FIXTURES / "chsh.json"), "--tol", "0"]) == 1
    assert json.loads(capsys.readouterr().out)["valid"] is False


MALFORMED_JSON = {
    "not UTF-8": lambda text: b"\xff\xfe{}",
    "over the int digit limit": lambda text: b"[" + b"1" * 4301 + b"]",
    "nested past the recursion limit": lambda text: b"[" * 200000,
    # the file's first entry as a 401-digit integer, which no float holds
    "beyond the float range": lambda text: text.replace("1.0", "1" + "0" * 400, 1).encode(),
}


@pytest.mark.parametrize("role", ["strategy", "witness"])
@pytest.mark.parametrize("case", MALFORMED_JSON)
def test_cli_refuses_malformed_json_in_one_line(tmp_path, capsys, role, case):
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    witness = serialize.dumps_json({"U_A": eye, "U_B": eye, "aux": [[1.0, 0.0]]})
    valid = (FIXTURES / "chsh.json").read_text() if role == "strategy" else witness
    path = tmp_path / "bad.json"
    chsh = str(FIXTURES / "chsh.json")
    argv = ["validate"] if role == "strategy" else ["check-dilation", chsh, chsh]
    argv.append(str(path))
    path.write_text(valid)
    assert run(argv) == 0  # the file parses before it is broken
    capsys.readouterr()
    path.write_bytes(MALFORMED_JSON[case](valid))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_cli_names_the_missing_witness_field(capsys):
    # a strategy file given as the witness
    trine, chsh = str(FIXTURES / "trine.json"), str(FIXTURES / "chsh.json")
    assert run(["check-dilation", trine, trine, chsh]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: malformed witness object: missing field U_A\n"


CHSH = str(FIXTURES / "chsh.json")
STRATEGY_COMMANDS = ("validate", "correlation", "metrics", "restrict", "naimark")


@pytest.mark.parametrize(
    "argv",
    [*([cmd, CHSH, "--seed", "0"] for cmd in STRATEGY_COMMANDS),
     ["check-dilation", CHSH, CHSH, CHSH, "--seed", "0"],
     ["repro", "chsh", "--tol", "1e-9"]],
    ids=[*STRATEGY_COMMANDS, "check-dilation", "repro"],
)
def test_cli_refuses_a_flag_its_subcommand_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: selftest-lab ")
    assert captured.err.split()[:3] == ["usage:", "selftest-lab", argv[0]]
    flag = next(a for a in argv if a.startswith("--"))
    assert f"error: unrecognized arguments: {flag} " in captured.err


def test_cli_flag_before_the_subcommand_gets_the_top_level_usage(capsys):
    with pytest.raises(SystemExit) as info:
        run(["--bogus", "validate", CHSH, "--seed", "0"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    commands = "{validate,correlation,metrics,restrict,naimark,check-dilation,repro}"
    assert err.split()[:4] == ["usage:", "selftest-lab", "[-h]", commands]
    assert err.endswith("error: unrecognized arguments: --bogus --seed 0\n")


@pytest.mark.parametrize(
    "argv",
    [*([cmd, CHSH, "--tol", "1e-8"] for cmd in STRATEGY_COMMANDS),
     *(["repro", target, "--seed", "5"]
       for target in ("chsh", "trine", "moments", "pencil", "robustness"))],
    ids=lambda argv: "-".join(a for a in argv if not a.endswith(".json")),
)
def test_cli_accepts_the_flags_its_subcommand_reads(argv, capsys):
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    json.loads(captured.out)


NESTED_CSV_CELLS = [
    (["restrict", CHSH], "strategy"),
    (["naimark", str(FIXTURES / "trine.json")], "strategy"),
    (["repro", "pencil", "--seed", "2"], "cases"),
]


@pytest.mark.parametrize("argv, field", NESTED_CSV_CELLS, ids=[a[0] for a, _ in NESTED_CSV_CELLS])
def test_cli_csv_writes_nested_cells_as_json(argv, field, capsys):
    assert run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert run([*argv, "--format", "csv"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == ["key", "value"]
    cells = dict(rows)
    assert sorted(cells) == sorted(report)
    assert json.loads(cells[field]) == report[field]


def chsh_with_dims(tmp_path, dims, families=True):
    obj = json.loads((FIXTURES / "chsh.json").read_text())
    obj["dims"] = {"A": dims[0], "B": dims[1]}
    if not families:
        obj["alice"], obj["bob"] = [], []
    return write_json(tmp_path, "dims.json", obj)


@pytest.mark.parametrize(
    "dims, families, message",
    [((-2, -2), False, "local dimensions must be >= 1, not (-2, -2)"),
     ((-2, -2), True, "local dimensions must be >= 1, not (-2, -2)"),
     (("2", 2), True, "dims must be integers, not ('2', 2)"),
     ((2.7, 2), True, "dims must be integers, not (2.7, 2)"),
     ((2, 2.0), True, "dims must be integers, not (2, 2.0)"),
     ((True, 4), True, "dims must be integers, not (True, 4)")],
    ids=["negative-empty", "negative", "string", "fraction", "float", "bool"],
)
@pytest.mark.parametrize("command", ["validate", "metrics", "restrict"])
def test_cli_refuses_strategy_dims_that_are_not_positive_integers(
    tmp_path, capsys, command, dims, families, message
):
    assert run([command, chsh_with_dims(tmp_path, dims, families)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed strategy object: {message}\n"


def readme_examples():
    text = (FIXTURES.parent / "README.md").read_text()
    block = text.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line.split("#")[0]) for line in block.splitlines() if line.strip()]
    assert lines and all(words[0] == "selftest-lab" for words in lines)
    return [words[1:] for words in lines]


@pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
def test_cli_readme_examples_run(argv, monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES.parent)
    assert run(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv", [["--tol", "1e-9", "validate", CHSH], ["--seed", "0", "repro", "chsh"]],
    ids=["tol", "seed"],
)
def test_cli_names_a_flag_placed_before_the_subcommand(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[0] in captured.err.splitlines()[-1]
    assert "invalid choice" not in captured.err


def test_cli_accepts_a_state_normalized_within_tol(tmp_path, capsys):
    # the validity gate decides normalization at --tol; no kernel re-decides it
    obj = json.loads((FIXTURES / "trine.json").read_text())
    obj["state"]["data"] = [[x * (1 + 1e-10) for x in pair] for pair in obj["state"]["data"]]
    path = write_json(tmp_path, "scaled.json", obj)
    for command in STRATEGY_COMMANDS:
        assert run([command, path]) == 0, command
        assert capsys.readouterr().err == ""


def chsh_with_bob_family(tmp_path, family):
    obj = json.loads((FIXTURES / "chsh.json").read_text())
    obj["bob"][1] = family
    return write_json(tmp_path, "family.json", obj)


@pytest.mark.parametrize(
    "family, message",
    [([linalg.encode_complex_array(np.eye(3) / 2)] * 2,
      "bob element has shape (3, 3), expected (2, 2)"),
     ([], "bob question 1 has an empty measurement family")],
    ids=["3x3-element", "empty-family"],
)
@pytest.mark.parametrize(
    "command", [*STRATEGY_COMMANDS, "check-dilation-src", "check-dilation-dst"]
)
def test_cli_refuses_a_malformed_family_in_one_line(tmp_path, capsys, command, family, message):
    path = chsh_with_bob_family(tmp_path, family)
    if command == "check-dilation-src":
        argv = ["check-dilation", path, CHSH, CHSH]
    elif command == "check-dilation-dst":
        argv = ["check-dilation", CHSH, path, CHSH]
    else:
        argv = [command, path]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed strategy object: {message}\n"
