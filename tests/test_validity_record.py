"""The facts kept of a Strategy (``games._remember``, ``games._recall``), the
proof records that answer the validity gate on what ``naimark_strategy``
builds, and one tolerance per CLI run."""

import copy
import dataclasses
import json
import os
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selftest_lab import cli, dilation, games, serialize
from selftest_lab.games import (
    Strategy,
    attach_product_ancilla,
    conjugate_strategy,
    correlation_of,
)
from selftest_lab.lab import canonical_chsh
from selftest_lab.metrics import strategy_metrics
from selftest_lab.naimark import naimark_strategy
from selftest_lab.schmidt import restrict

from helpers import (
    haar_unitary,
    random_bipartite_state,
    random_povm,
    random_pvm,
    random_strategy,
)

TOLS = (1e-12, 1e-9, 1e-6)


def _fresh(s):
    """A strategy on copies of the arrays of ``s``: it, its families and its
    elements hold no fact, so its gate is the dense one."""
    return Strategy(
        state=np.array(s.state),
        dims=s.dims,
        alice=[[np.array(e) for e in fam] for fam in s.alice],
        bob=[[np.array(e) for e in fam] for fam in s.bob],
    )


def _with_defect(family, kind, size):
    """``family`` with a completeness excess of ``size`` on one direction, or
    with that direction moved from element 0 to element 1 until element 0 has
    eigenvalue ``-size`` there (completeness kept)."""
    family = [np.array(e) for e in family]
    evals, evecs = np.linalg.eigh(family[0])
    v = evecs[:, :1]
    if kind == "completeness":
        family[0] += size * (v @ v.conj().T)
    elif kind == "positivity" and len(family) > 1:
        shift = (evals[0] + size) * (v @ v.conj().T)
        family[0] -= shift
        family[1] += shift
    return family


@st.composite
def defective_sources(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tol = draw(st.sampled_from(TOLS))
    dims = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    sides = [
        [random_povm(rng, d, draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, 3)))]
        for d in dims
    ]
    kind = draw(st.sampled_from(["none", "completeness", "positivity"]))
    side = sides[draw(st.integers(0, 1))]
    q = draw(st.integers(0, len(side) - 1))
    side[q] = _with_defect(side[q], kind, draw(st.floats(0.05, 20.0)) * tol)
    state = random_bipartite_state(rng, *dims)
    return Strategy(state=state, dims=dims, alice=sides[0], bob=sides[1]), tol


@settings(max_examples=150, deadline=None, derandomize=True)
@given(defective_sources())
def test_proof_accepts_only_what_the_dense_gate_accepts(case):
    s, tol = case
    # a loose pass, so naimark_strategy dilates the defective families too
    assert games._is_valid(s, 1e-3)
    dilated, _, _ = naimark_strategy(s)
    assert games._recall(dilated, "valid_tol") is None
    # what the records prove, with the state's norm the gate still measures
    families = dilated.alice + dilated.bob
    proven = max([games._record(fam).gate for fam in families]
                 + [abs(np.linalg.norm(dilated.state) - 1.0)])
    dense = games._is_valid(_fresh(dilated), tol)
    if tol >= proven:
        assert dense, (proven, tol)
    assert games._is_valid(dilated, tol) == dense


def _counting_gate(monkeypatch):
    calls = []
    real = games._family_valid

    def counted(family, tol):
        calls.append(tol)
        return real(family, tol)

    monkeypatch.setattr(games, "_family_valid", counted)
    return calls


def _dusty_chsh(eigenvalue):
    """The canonical CHSH strategy with one of Bob's eigenvalues at ``eigenvalue``."""
    s = canonical_chsh()
    bob = _with_defect(s.bob[0], "positivity", -eigenvalue)
    return Strategy(state=s.state, dims=s.dims, alice=s.alice, bob=[bob, s.bob[1]])


def test_a_failed_gate_records_nothing():
    s = _dusty_chsh(-5e-7)
    assert not games._is_valid(s, 1e-9)
    assert games._recall(s, "valid_tol") is None


@pytest.mark.parametrize("t", TOLS[1:])
def test_a_pass_at_t_answers_every_tol_from_t_up(monkeypatch, t):
    s = _dusty_chsh(-t / 2)
    calls = _counting_gate(monkeypatch)
    assert games._is_valid(s, t)
    assert games._recall(s, "valid_tol") == t
    ran = len(calls)
    for above in (t, 2 * t, 1.0):
        assert games._is_valid(s, above)
    assert len(calls) == ran  # answered by the record
    assert not games._is_valid(s, t / 10)
    assert len(calls) > ran  # below t the gate runs again
    assert games._recall(s, "valid_tol") == t


def test_a_lower_pass_lowers_the_record():
    s = canonical_chsh()
    assert games._is_valid(s, 1e-6)
    assert games._is_valid(s, 1e-12)
    assert games._recall(s, "valid_tol") == 1e-12


def test_no_stored_array_can_be_made_writable():
    # an element made writable, edited by 0.5 and made read-only again once
    # left a stale valid_tol behind; sealed, it cannot be made writable at all
    s = canonical_chsh()
    assert games._is_valid(s, 1e-9)
    dilated, _, _ = naimark_strategy(s)
    w = dilation.restriction_embedding(s)
    for a in (s.bob[0][0], dilated.bob[0][1], w.u_a, w.aux):
        with pytest.raises(ValueError):
            a.setflags(write=True)
    assert games._recall(s, "valid_tol") == 1e-9 and games._recall(s, "naimark_isometries")
    assert games._is_valid(_fresh(s), 1e-9)


def test_the_record_is_not_a_field():
    s = canonical_chsh()
    dilated, _, _ = naimark_strategy(s)
    correlation_of(s)
    names = ["state", "dims", "alice", "bob"]
    for x in (s, dilated):
        assert [f.name for f in dataclasses.fields(x)] == names
        assert list(dataclasses.asdict(x)) == names
        assert repr(x) == repr(_fresh(x))
        assert list(vars(x)) == names


def test_a_copy_recalls_nothing():
    s = canonical_chsh()
    assert games._is_valid(s, 1e-9)
    naimark_strategy(s)
    c = copy.copy(s)
    assert c == s and c.bob[0][0] is s.bob[0][0]
    assert games._recall(c, "valid_tol") is None
    assert games._recall(c, "naimark_isometries") is None
    assert games._recall(s, "valid_tol") == 1e-9


def _as_input(a, kind):
    """``a`` as an input array of ``kind``, with the same entries."""
    if kind == "writable":
        return np.array(a)
    if kind == "read-only owner":
        a = np.array(a)
        a.setflags(write=False)
        return a
    if kind == "strided":
        wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), dtype=a.dtype)
        wide[..., ::2] = a
        return wide[..., ::2]
    return a.real  # "real dtype": the caller passes a real-valued a


@st.composite
def input_strategies(draw):
    """A :func:`random_strategy` rebuilt from inputs of one kind: for "real dtype",
    from the real parts of its arrays (a real part of a POVM is a POVM)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    s = random_strategy(rng, *dims, draw(st.integers(1, 2)), draw(st.integers(1, 2)),
                        outcomes=draw(st.integers(1, 3)))
    kind = draw(st.sampled_from(["writable", "read-only owner", "strided", "real dtype"]))
    state, sides = s.state, (s.alice, s.bob)
    if kind == "real dtype":
        state = state.real / np.linalg.norm(state.real)
        sides = [[[e.real for e in fam] for fam in side] for side in sides]
    return Strategy(
        state=_as_input(state, kind),
        dims=s.dims,
        alice=[[_as_input(e, kind) for e in fam] for fam in sides[0]],
        bob=[[_as_input(e, kind) for e in fam] for fam in sides[1]],
    )


def _derived(s):
    """``s`` and what the library builds from it: strategies, then witnesses."""
    rng = np.random.default_rng(0)
    d_a, d_b = s.dims
    dilated = naimark_strategy(s)[0]
    # naimark_strategy stores the projections it built, each with its family's record
    assert all(games._recall(p, "family") is not None
               for fam in dilated.alice + dilated.bob for p in fam)
    strategies = [
        s,
        Strategy(state=s.density(), dims=s.dims, alice=s.alice, bob=s.bob),
        restrict(s)[0],
        dilated,
        conjugate_strategy(s, haar_unitary(rng, d_a), haar_unitary(rng, d_b)),
        attach_product_ancilla(s, np.ones(2) / np.sqrt(2), np.ones(1)),
        copy.copy(s),
        copy.deepcopy(s),
        copy.deepcopy(dilated),
        pickle.loads(pickle.dumps(s)),
        pickle.loads(pickle.dumps(dilated, protocol=4)),
    ]
    witnesses = [dilation.restriction_embedding(s), dilation.naimark_embedding(s)]
    witnesses += [copy.deepcopy(witnesses[1]), pickle.loads(pickle.dumps(witnesses[1], protocol=4))]
    return strategies, witnesses


@settings(max_examples=40, deadline=None, derandomize=True)
@given(input_strategies())
def test_every_stored_array_is_sealed_and_every_fact_is_current(s):
    strategies, witnesses = _derived(s)
    stored = [a for x in strategies for a in [x.state] + [e for f in x.alice + x.bob for e in f]]
    stored += [a for w in witnesses for a in (w.u_a, w.u_b, w.aux)]
    for a in stored:
        with pytest.raises(ValueError):
            a.setflags(write=True)
    for x in strategies:
        assert games._is_valid(x, 1e-9) == games._is_valid(_fresh(x), 1e-9)


def test_an_unpickled_array_is_copied_though_its_base_is_bytes():
    # unpickling gives an array over 1000 bytes a bytes base and leaves it writable
    dilated = naimark_strategy(canonical_chsh())[0]
    back = pickle.loads(pickle.dumps(np.array(dilated.bob[0][0]), protocol=4))
    assert type(back.base) is bytes and back.flags.writeable
    assert games._freeze(back) is not back
    s = pickle.loads(pickle.dumps(dilated, protocol=4))
    assert games._is_valid(s, 1e-9)
    for a in [s.state] + [e for fam in s.alice + s.bob for e in fam]:
        with pytest.raises(ValueError):
            a.setflags(write=True)


EDGE = st.sampled_from((0.0, 0.5, 0.9, 0.99, 1.0))


def _hermitian(rng, d, norm):
    """A random Hermitian ``d x d`` matrix of unit ``norm`` (``2`` or ``"fro"``)."""
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = x + x.conj().T
    return h / np.linalg.norm(h, norm)


@st.composite
def gate_edge_strategies(draw):
    """A pure strategy of rank-1 effects pushed to the edge of the gate at ``t``,
    and ``t``.  A family is ``T^{-1/2} x x* T^{-1/2}`` for ``m >= d`` random
    vectors ``x`` (a basis of projections when ``m = d``); then one element is
    scaled by ``1 + c t`` (completeness defect up to ``t``), and a Hermitian part
    ``a t h`` (``||h|| = 1``) and an anti-Hermitian one ``i b t g / 2``
    (``||g||_F = 1``) move from one element to another, each keeping the sum,
    with ``a``, ``b``, ``c`` and ``|s|`` drawn from :data:`EDGE`.  The state's
    norm is ``1 + s 0.9 t``."""
    t = draw(st.sampled_from((1e-12, 1e-9, 1e-6, 1e-3, 1e-2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))

    def family(d):
        xs = rng.normal(size=(draw(st.integers(d, d + 1)), d, 1))
        xs = xs + 1j * rng.normal(size=xs.shape)
        effects = xs @ xs.conj().transpose(0, 2, 1)
        evals, evecs = np.linalg.eigh(effects.sum(axis=0))
        inv_root = (evecs / np.sqrt(evals)) @ evecs.conj().T
        fam = [inv_root @ e @ inv_root for e in effects]
        j, k = rng.choice(len(fam), size=2)
        fam[j] = fam[j] * (1.0 + draw(EDGE) * t)
        if j != k:
            step = draw(EDGE) * t * _hermitian(rng, d, 2)
            step = step + 0.5j * draw(EDGE) * t * _hermitian(rng, d, "fro")
            fam[j], fam[k] = fam[j] + step, fam[k] - step
        return fam

    sides = [[family(d) for _ in range(draw(st.integers(1, 2)))] for d in dims]
    sign = draw(st.sampled_from((-1.0, 1.0)))
    state = random_bipartite_state(rng, *dims) * (1.0 + sign * draw(EDGE) * 0.9 * t)
    return Strategy(state=state, dims=dims, alice=sides[0], bob=sides[1]), t


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gate_edge_strategies())
def test_a_gated_strategy_is_not_checked_again(case):
    # correlation_of and strategy_metrics trust the gate; its promise holds: each
    # question pair's clipped entries sum to within 2 (n_a + n_b) t of one
    s, t = case
    if not games._is_valid(s, t):
        return
    table = correlation_of(s, t).table
    strategy_metrics(s)
    n_a, n_b = table.shape[2:]
    assert np.max(np.abs(table.sum(axis=(2, 3)) - 1.0)) <= 2 * (n_a + n_b) * t + 1e-12


@st.composite
def dusty_projective_files(draw):
    """A pure strategy of projective families with one element's smallest
    eigenvalue pushed into ``(-t, 0)`` (completeness kept), and ``t``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tol = draw(st.sampled_from(TOLS))
    dims = (draw(st.integers(2, 3)), draw(st.integers(2, 3)))
    sides = [
        [random_pvm(rng, d, draw(st.integers(2, d))) for _ in range(draw(st.integers(1, 2)))]
        for d in dims
    ]
    side = sides[draw(st.integers(0, 1))]
    q = draw(st.integers(0, len(side) - 1))
    side[q] = _with_defect(side[q], "positivity", draw(st.floats(0.05, 0.95)) * tol)
    state = random_bipartite_state(rng, *dims)
    s = Strategy(state=state, dims=dims, alice=sides[0], bob=sides[1])
    return serialize.strategy_to_jsonable(s), tol


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dusty_projective_files())
def test_a_file_valid_at_t_is_refused_by_no_subcommand_at_t(case):
    encoded, tol = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "s.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump(encoded, fh)
        if cli.run(["validate", path, "--tol", repr(tol), "--out", out]) != 0:
            return
        for command in ("correlation", "metrics", "restrict", "naimark"):
            code = cli.run([command, path, "--tol", repr(tol), "--out", out])
            assert code != 2, (command, tol)
