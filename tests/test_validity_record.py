"""The validity record a Strategy keeps, and the proof that
``naimark_strategy`` records for what it builds."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selftest_lab import games
from selftest_lab.games import Strategy, correlation_of
from selftest_lab.lab import canonical_chsh
from selftest_lab.naimark import naimark_strategy

from helpers import random_bipartite_state, random_povm

TOLS = (1e-12, 1e-9, 1e-6)


def _fresh(s):
    """A strategy on the same arrays that holds no record."""
    return Strategy(state=s.state, dims=s.dims, alice=s.alice, bob=s.bob)


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
    proven = dilated._valid_tol
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
    assert "_valid_tol" not in vars(s)


@pytest.mark.parametrize("t", TOLS[1:])
def test_a_pass_at_t_answers_every_tol_from_t_up(monkeypatch, t):
    s = _dusty_chsh(-t / 2)
    calls = _counting_gate(monkeypatch)
    assert games._is_valid(s, t)
    assert s._valid_tol == t
    ran = len(calls)
    for above in (t, 2 * t, 1.0):
        assert games._is_valid(s, above)
    assert len(calls) == ran  # answered by the record
    assert not games._is_valid(s, t / 10)
    assert len(calls) > ran  # below t the gate runs again
    assert s._valid_tol == t


def test_a_lower_pass_lowers_the_record():
    s = canonical_chsh()
    assert games._is_valid(s, 1e-6)
    assert games._is_valid(s, 1e-12)
    assert s._valid_tol == 1e-12


def test_a_writable_element_voids_the_records(monkeypatch):
    s = canonical_chsh()
    assert games._is_valid(s, 1e-9)
    naimark_strategy(s)
    assert s._valid_tol == 1e-9 and s._naimark_isometries
    calls = _counting_gate(monkeypatch)
    s.bob[0][0].setflags(write=True)
    assert games._is_valid(s, 1e-9)
    assert calls  # the gate ran
    assert "_valid_tol" not in vars(s) and "_naimark_isometries" not in vars(s)


def test_the_record_is_not_a_field():
    s = canonical_chsh()
    dilated, _, _ = naimark_strategy(s)
    correlation_of(s)
    names = ["state", "dims", "alice", "bob"]
    for x in (s, dilated):
        assert [f.name for f in dataclasses.fields(x)] == names
        assert list(dataclasses.asdict(x)) == names
        assert repr(x) == repr(_fresh(x))
