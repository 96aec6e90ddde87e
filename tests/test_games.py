import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selftest_lab import games, linalg
from selftest_lab.errors import DimensionMismatch, InvalidState, InvalidStrategy
from selftest_lab.games import (
    Correlation,
    NonlocalGame,
    Strategy,
    attach_product_ancilla,
    conjugate_strategy,
    correlation_of,
    game_operator,
    validate_strategy,
    win_probability,
)
from selftest_lab.lab import (
    beta_functionals,
    canonical_chsh,
    chsh_game,
    trine_povm,
    trine_strategy,
)
from selftest_lab.naimark import naimark_strategy

from helpers import (
    haar_unitary,
    random_bipartite_state,
    random_density,
    random_povm,
    random_pure_state,
    random_strategy,
)

RNG = np.random.default_rng(202)

CHSH_SPECTRUM = sorted(
    [(2 + np.sqrt(2)) / 4, 0.5, 0.5, (2 - np.sqrt(2)) / 4], reverse=True
)


def constant_game(n_s, n_t, n_a, n_b, value):
    pi = np.full((n_s, n_t), 1.0 / (n_s * n_t))
    pred = np.full((n_s, n_t, n_a, n_b), float(value))
    return NonlocalGame(pi=pi, predicate=pred)


def deterministic_chsh_strategy():
    """Answer 0 regardless of question; the best classical behaviour."""
    one = np.eye(2, dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    fam = [one, zero]
    rho = np.eye(4, dtype=complex) / 4
    return Strategy(state=rho, dims=(2, 2), alice=[fam, fam], bob=[fam, fam])


def test_validate_canonical_chsh():
    report = validate_strategy(canonical_chsh(), tol=1e-12)
    assert report.valid
    assert max(report.alice_completeness + report.bob_completeness) < 1e-14
    assert report.state_trace_defect < 1e-14


def test_validate_trine_exact_completeness():
    s = trine_strategy()
    report = validate_strategy(s)
    assert report.valid
    # the third element is built as the complement, so the sum is exact
    total = sum(trine_povm())
    assert np.array_equal(total, np.eye(2, dtype=complex))


def test_validate_rejects_overcomplete_family():
    one = np.eye(2, dtype=complex)
    s = Strategy(
        state=random_pure_state(RNG, 4),
        dims=(2, 2),
        alice=[[one, one]],
        bob=[[one / 2, one / 2]],
    )
    report = validate_strategy(s)
    assert not report.valid
    # the family sums to 2*identity, so the defect is ||1||_F = sqrt(2)
    assert report.alice_completeness[0] == pytest.approx(np.sqrt(2.0))


def test_validate_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        s = Strategy(
            state=random_pure_state(RNG, 4),
            dims=(2, 2),
            alice=[[np.eye(3, dtype=complex)]],
            bob=[[np.eye(2, dtype=complex)]],
        )
        validate_strategy(s)


@pytest.mark.parametrize("dims", [(-2, -2), (0, 4), (4, 0), (-1, -4)])
@pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
def test_strategy_rejects_local_dimension_below_one(dims, pure):
    # the product matches the state's size, so only the sign check can refuse it
    state = random_pure_state(RNG, 4)
    if not pure:
        state = np.outer(state, state.conj())
    with pytest.raises(DimensionMismatch, match="local dimensions must be >= 1"):
        Strategy(state=state, dims=dims, alice=[], bob=[])


def _chsh_with_state(state):
    eye = np.eye(2, dtype=complex)
    return Strategy(state=state, dims=(2, 2), alice=[[eye]], bob=[[eye]])


def _chsh_with_bob(bob):
    s = canonical_chsh()
    return Strategy(state=s.state, dims=s.dims, alice=s.alice, bob=bob)


INPUT_CONTRACTS = {
    "pure state of the wrong size": (lambda: _chsh_with_state(np.ones(3)), DimensionMismatch),
    "density of the wrong shape": (lambda: _chsh_with_state(np.eye(3)), DimensionMismatch),
    "3-D state": (lambda: _chsh_with_state(np.ones((2, 2, 4))), DimensionMismatch),
    "table not 4-D": (lambda: Correlation(np.full((2, 2, 4), 0.25)), DimensionMismatch),
    "table out of range": (lambda: Correlation(np.full((1, 1, 2, 2), [[1.5, -0.5]] * 2)),
                           InvalidState),
    "table not normalized": (lambda: Correlation(np.full((1, 1, 2, 2), 0.2)), InvalidState),
    "question sets differ": (lambda: game_operator(chsh_game(), trine_strategy()),
                             DimensionMismatch),
    "answer sets differ": (
        lambda: game_operator(chsh_game(), _chsh_with_bob([trine_povm(), trine_povm()])),
        DimensionMismatch,
    ),
}


@pytest.mark.parametrize("case", list(INPUT_CONTRACTS))
def test_input_contracts_raise_their_error(case):
    make, exc = INPUT_CONTRACTS[case]
    with pytest.raises(exc):
        make()


def test_game_operator_chsh_spectrum():
    w = game_operator(chsh_game(), canonical_chsh())
    assert linalg.hermiticity_defect(w) <= 1e-10
    evals = sorted(np.linalg.eigvalsh(w), reverse=True)
    assert np.allclose(evals, CHSH_SPECTRUM, atol=1e-12)


def test_game_operator_constant_predicates():
    s = random_strategy(RNG, 2, 3, outcomes=2)
    w1 = game_operator(constant_game(2, 2, 2, 2, 1), s)
    assert np.max(np.abs(w1 - np.eye(6))) <= 1e-12
    w0 = game_operator(constant_game(2, 2, 2, 2, 0), s)
    assert np.max(np.abs(w0)) == 0.0


def test_win_probability_canonical():
    assert win_probability(chsh_game(), canonical_chsh()) == pytest.approx(
        (2 + np.sqrt(2)) / 4, abs=1e-12
    )


@pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
@pytest.mark.parametrize("side", ["alice", "bob"])
def test_ungated_table_rejects_a_wrong_element_shape(pure, side):
    t = trine_strategy()
    state = t.state if pure else t.density()
    wrong = [np.eye(3, dtype=complex) / 2] * 2
    alice = [t.alice[0], wrong] if side == "alice" else t.alice
    bob = [t.bob[0], wrong, t.bob[2]] if side == "bob" else t.bob
    with pytest.raises(DimensionMismatch):
        s = Strategy(state=state, dims=t.dims, alice=alice, bob=bob)
        beta_functionals(s)
    with pytest.raises(DimensionMismatch):
        chsh = Strategy(state=state, dims=t.dims, alice=alice, bob=bob[:2])
        win_probability(chsh_game(), chsh)


def test_win_probability_classical_deterministic():
    assert win_probability(chsh_game(), deterministic_chsh_strategy()) == pytest.approx(
        0.75, abs=1e-12
    )


def test_win_probability_trivial_game():
    for _ in range(5):
        s = random_strategy(RNG, 2, 2, outcomes=2)
        assert win_probability(constant_game(2, 2, 2, 2, 1), s) == pytest.approx(
            1.0, abs=1e-10
        )


def test_correlation_canonical_chsh_entry():
    p = correlation_of(canonical_chsh()).table
    # equal answers on questions (0,0) carry cos^2(pi/8)/2 each
    assert p[0, 0, 0, 0] == pytest.approx((2 + np.sqrt(2)) / 8, abs=1e-12)
    assert p[0, 0, 1, 1] == pytest.approx((2 + np.sqrt(2)) / 8, abs=1e-12)


def test_correlation_trine_marginals():
    phi = canonical_chsh().state
    s = Strategy(
        state=phi,
        dims=(2, 2),
        alice=[[np.eye(2, dtype=complex)]],
        bob=[trine_povm()],
    )
    p = correlation_of(s).table
    assert np.allclose(p[0, 0, 0, :], [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_correlation_product_state_deterministic():
    zfam = [np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)]
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    s = Strategy(state=psi, dims=(2, 2), alice=[zfam], bob=[zfam])
    p = correlation_of(s).table
    assert p[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-14)


def test_correlation_rejects_invalid():
    one = np.eye(2, dtype=complex)
    s = Strategy(
        state=random_pure_state(RNG, 4), dims=(2, 2), alice=[[one, one]], bob=[[one]]
    )
    with pytest.raises(InvalidStrategy):
        correlation_of(s)


def test_correlation_of_mixed_state():
    zfam = [np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)]
    s = Strategy(
        state=np.eye(4, dtype=complex) / 4, dims=(2, 2), alice=[zfam], bob=[zfam]
    )
    p = correlation_of(s).table
    assert np.allclose(p[0, 0], np.full((2, 2), 0.25), atol=1e-14)


def test_omega_via_correlation_matches_trace_form():
    g = chsh_game()
    for _ in range(20):
        s = random_strategy(RNG, 2, 2, outcomes=2)
        p = correlation_of(s).table
        omega_table = float(np.sum(g.pi[:, :, None, None] * g.predicate * p))
        assert omega_table == pytest.approx(win_probability(g, s), abs=1e-12)


def test_correlation_invariant_under_ancilla_and_embedding():
    for _ in range(10):
        s = random_strategy(RNG, 2, 3, outcomes=2)
        aux_a = random_pure_state(RNG, 2)
        aux_b = random_pure_state(RNG, 3)
        attached = attach_product_ancilla(s, aux_a, aux_b)
        p0 = correlation_of(s).table
        p1 = correlation_of(attached).table
        assert np.max(np.abs(p0 - p1)) <= 1e-12
        rotated = conjugate_strategy(s, haar_unitary(RNG, 2), haar_unitary(RNG, 3))
        p2 = correlation_of(rotated).table
        assert np.max(np.abs(p0 - p2)) <= 1e-12


def test_naimark_dilation_preserves_correlation():
    for _ in range(5):
        s = random_strategy(RNG, 2, 2, outcomes=3)
        dilated, _, _ = naimark_strategy(s)
        p0 = correlation_of(s).table
        p1 = correlation_of(dilated).table
        assert np.max(np.abs(p0 - p1)) <= 1e-12


def eigenvalue_verdict(report):
    """Validity by the report's tables: every element's (and a mixed state's)
    minimum eigenvalue at least -tol, every other defect at most tol."""
    tol = report.tol
    mins = [x for fam in report.alice_min_eigenvalues + report.bob_min_eigenvalues for x in fam]
    herms = [x for fam in report.alice_hermiticity + report.bob_hermiticity for x in fam]
    return (
        max(report.alice_completeness + report.bob_completeness) <= tol
        and min(mins) >= -tol
        and max(herms) <= tol
        and report.state_trace_defect <= tol
        and report.state_min_eigenvalue >= -tol
        and report.state_hermiticity <= tol
    )


def shift_min_eigenvalue(h, target, partner=None):
    """Move the minimum eigenvalue of Hermitian ``h`` to ``target`` along its
    eigenvector; ``partner`` (if given) takes the opposite shift, so a sum of
    the two is unchanged."""
    evals, evecs = np.linalg.eigh(h)
    v = evecs[:, :1]
    step = (target - evals[0]) * (v @ v.conj().T)
    return h + step, None if partner is None else partner - step


def hermitian_direction(rng, d):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = x + x.conj().T
    return h / np.linalg.norm(h)


DEFECTS = ("negative", "skew", "excess", "state_negative", "state_skew", "state_excess")


@st.composite
def defective_strategies(draw):
    """Random pure or mixed strategies (d 1-4, 1-2 questions, 2-3 outcomes)
    with defects of a few multiples of tol: one element's minimum eigenvalue
    moved (its partner takes the opposite shift), an anti-Hermitian part
    added to it and taken from its partner, one element scaled up (an
    overcomplete family), and a state with a negative eigenvalue, an
    anti-Hermitian part, or a wrong norm or trace.  At most one defect is
    drawn above tol, so about half the draws are valid."""
    tol = draw(st.sampled_from([1e-9, 1e-6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    questions = st.lists(st.integers(2, 3), min_size=1, max_size=2)
    sides = [[random_povm(rng, d, m) for m in draw(questions)] for d in dims]
    mixed = draw(st.booleans())
    n = dims[0] * dims[1]
    state = random_density(rng, n) if mixed else random_bipartite_state(rng, *dims)
    kinds = DEFECTS if mixed else ("negative", "skew", "excess", "state_excess")
    over = draw(st.one_of(st.none(), st.sampled_from(kinds)))
    # sizes in units of tol; None leaves that defect out
    scale = {
        name: draw(st.sampled_from([1.1, 2.0, 10.0] if name == over else [None, 0.0, 0.1, 0.5, 0.9]))
        for name in DEFECTS
    }

    side = draw(st.integers(0, 1))
    fam = sides[side][draw(st.integers(0, len(sides[side]) - 1))]
    j = draw(st.integers(0, len(fam) - 1))
    k = (j + 1) % len(fam)
    if scale["negative"] is not None:
        fam[j], fam[k] = shift_min_eigenvalue(fam[j], -scale["negative"] * tol, fam[k])
    if scale["skew"] is not None:
        # i*h with h Hermitian: Hermiticity defect scale*tol, sum unchanged
        skew = 0.5j * scale["skew"] * tol * hermitian_direction(rng, dims[side])
        fam[j], fam[k] = fam[j] + skew, fam[k] - skew
    if scale["excess"] is not None:
        fam[j] = fam[j] * (1.0 + scale["excess"] * tol)
    if mixed and scale["state_negative"] is not None and n > 1:
        state, _ = shift_min_eigenvalue(state, -scale["state_negative"] * tol)
        state = state / np.real(np.trace(state))
    if mixed and scale["state_skew"] is not None:
        state = state + 0.5j * scale["state_skew"] * tol * hermitian_direction(rng, n)
    if scale["state_excess"] is not None:
        state = state * (1.0 + scale["state_excess"] * tol)
    return Strategy(state=state, dims=dims, alice=sides[0], bob=sides[1]), tol


@settings(max_examples=400, deadline=None, derandomize=True)
@given(defective_strategies())
def test_gate_verdict_matches_eigenvalue_criterion(drawn):
    s, tol = drawn
    report = validate_strategy(s, tol)
    spectra = [x for fam in report.alice_min_eigenvalues + report.bob_min_eigenvalues for x in fam]
    if not s.is_pure:
        spectra.append(report.state_min_eigenvalue)
    # the Cholesky and eigvalsh criteria may differ by rounding right at -tol
    assume(all(abs(x + tol) > 1e-12 for x in spectra))
    assert report.valid == eigenvalue_verdict(report)
    if report.valid:
        correlation_of(s, tol)
    else:
        with pytest.raises(InvalidStrategy):
            correlation_of(s, tol)


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
@pytest.mark.parametrize("factor, valid", [(-2.0, False), (-0.5, True)])
def test_gate_boundary_min_eigenvalue(tol, factor, valid):
    # Bob's question 0 is {U E U*, U (1 - E) U*} with E = diag(1, factor*tol)
    u = haar_unitary(np.random.default_rng(11), 2)
    e0 = u @ np.diag([1.0, factor * tol]).astype(complex) @ u.conj().T
    e1 = u @ np.diag([0.0, 1.0 - factor * tol]).astype(complex) @ u.conj().T
    chsh = canonical_chsh()
    s = Strategy(state=chsh.state, dims=chsh.dims, alice=chsh.alice, bob=[[e0, e1], chsh.bob[1]])
    assert linalg.is_psd(e0, tol) is valid
    report = validate_strategy(s, tol)
    assert min(report.bob_min_eigenvalues[0]) == pytest.approx(factor * tol, rel=1e-3)
    assert report.valid is valid
    if valid:
        assert correlation_of(s, tol).table.shape == (2, 2, 2, 2)
    else:
        with pytest.raises(InvalidStrategy):
            correlation_of(s, tol)


def test_correlation_of_dilated_strategy_takes_no_spectrum(monkeypatch):
    rng = np.random.default_rng(29)
    s = Strategy(
        state=random_bipartite_state(rng, 3, 3, rank=2),
        dims=(3, 3),
        alice=[random_povm(rng, 3, 2) for _ in range(2)],
        bob=[random_povm(rng, 3, m) for m in (2, 2, 3, 3, 3)],
    )
    dilated, _, _ = naimark_strategy(s)
    assert dilated.dims[1] == 324
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    p = correlation_of(dilated).table
    assert len(calls) == 0
    assert np.max(np.abs(p - correlation_of(s).table)) <= 1e-12


def test_correlation_of_honours_tol():
    chsh = canonical_chsh()
    bob = [[chsh.bob[0][0] * (1 + 1e-7), chsh.bob[0][1]], chsh.bob[1]]
    s = Strategy(state=chsh.state, dims=chsh.dims, alice=chsh.alice, bob=bob)
    assert correlation_of(s, tol=1e-6).table.shape == (2, 2, 2, 2)
    with pytest.raises(InvalidStrategy):
        correlation_of(s)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, np.nan)])
def test_strategy_rejects_non_finite_element(bad):
    chsh = canonical_chsh()
    e = chsh.bob[1][1].copy()
    e[0, 1] = bad
    with pytest.raises(DimensionMismatch, match="non-finite"):
        Strategy(state=chsh.state, dims=chsh.dims, alice=chsh.alice,
                 bob=[chsh.bob[0], [chsh.bob[1][0], e]])


_MALFORMED_FAMILIES = {
    # defect: (family replacing question 1, exception, message with {side})
    "wrong shape": ([np.eye(3) / 2] * 2, DimensionMismatch,
                    "{side} element has shape (3, 3), expected (2, 2)"),
    "1-D element": ([np.ones(2), np.zeros(2)], DimensionMismatch,
                    "{side} element has shape (2,), expected (2, 2)"),
    "empty family": ([], InvalidStrategy, "{side} question 1 has an empty measurement family"),
}


@pytest.mark.parametrize("defect", sorted(_MALFORMED_FAMILIES))
@pytest.mark.parametrize("side", ["alice", "bob"])
@pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
def test_strategy_refuses_a_malformed_family(defect, side, pure):
    chsh = canonical_chsh()
    family, exc, message = _MALFORMED_FAMILIES[defect]
    families = {"alice": list(chsh.alice), "bob": list(chsh.bob)}
    families[side][1] = family
    state = chsh.state if pure else chsh.density()
    with pytest.raises(exc) as info:
        Strategy(state=state, dims=chsh.dims, **families)
    assert str(info.value) == message.format(side=side)


def _strategy_arrays(s):
    return [s.state] + [e for fam in s.alice + s.bob for e in fam]


def test_strategy_adopts_sealed_arrays():
    chsh = canonical_chsh()
    # a strategy's own arrays are sealed, so rebuilding from them copies nothing
    again = Strategy(state=chsh.state, dims=chsh.dims, alice=chsh.alice, bob=chsh.bob)
    assert all(x is y for x, y in zip(_strategy_arrays(again), _strategy_arrays(chsh)))
    assert all(map(games._is_sealed, _strategy_arrays(chsh)))
    # an array read off bytes is sealed, though no strategy made it
    e = np.frombuffer(np.array(chsh.bob[0][0]).tobytes(), np.complex128).reshape(2, 2)
    s = Strategy(state=chsh.state, dims=chsh.dims, alice=chsh.alice,
                 bob=[[e, chsh.bob[0][1]], chsh.bob[1]])
    assert games._is_sealed(e) and s.bob[0][0] is e


def _copied_inputs():
    """Element inputs the adoption rule must copy, keyed by the reason."""
    e = canonical_chsh().bob[0][0]
    writable = np.array(e)
    owner = np.array(e)  # read-only and owns its memory, but a caller may make it writable
    owner.setflags(write=False)
    base = np.array(e)
    view = base[:]
    view.setflags(write=False)
    wide = np.zeros((2, 4), dtype=np.complex128)
    wide[:, ::2] = e
    strided = wide[:, ::2]
    strided.setflags(write=False)
    fortran = np.asfortranarray(e)  # owns its memory, but not C-ordered
    fortran.setflags(write=False)
    real = np.array(e.real)
    real.setflags(write=False)
    # unpickled over bytes (arrays from 1 KiB up), an array stays writable; a
    # read-only view of it is not sealed
    unpickled = pickle.loads(pickle.dumps(np.array([e] * 16), protocol=4))[0]
    unpickled.setflags(write=False)
    assert type(unpickled.base.base) is bytes and unpickled.base.flags.writeable
    return {
        "writable": writable,
        "read-only owner": owner,
        "read-only view": view,
        "non-contiguous": strided,
        "Fortran-ordered": fortran,
        "real dtype": real,
        "read-only view of an unpickled array": unpickled,
    }


@pytest.mark.parametrize("kind", sorted(_copied_inputs()))
def test_strategy_copies_inputs_it_cannot_adopt(kind):
    chsh = canonical_chsh()
    e = _copied_inputs()[kind]
    assert not games._is_sealed(e)
    s = Strategy(state=chsh.state, dims=chsh.dims, alice=chsh.alice,
                 bob=[[e, chsh.bob[0][1]], chsh.bob[1]])
    stored = s.bob[0][0]
    assert stored is not e and games._is_sealed(stored)
    assert stored.dtype == np.complex128 and stored.flags.c_contiguous
    with pytest.raises(ValueError):
        stored.setflags(write=True)
    assert np.array_equal(stored, e)


def test_strategy_unaffected_by_writes_to_caller_arrays():
    chsh = canonical_chsh()
    state = np.array(chsh.state)
    elements = [[np.array(e) for e in fam] for fam in chsh.bob]
    s = Strategy(state=state, dims=chsh.dims, alice=chsh.alice, bob=elements)
    before = [x.copy() for x in _strategy_arrays(s)]
    state[:] = 0.0
    for fam in elements:
        for e in fam:
            e[:] = 7.0
    assert all(np.array_equal(x, y) for x, y in zip(_strategy_arrays(s), before))


def loop_table(s, n_a, n_b):
    """Unclipped outcome table by one product per pair of elements (oracle)."""
    d_a, d_b = s.dims
    table = np.zeros((len(s.alice), len(s.bob), n_a, n_b))
    for qs, fam_a in enumerate(s.alice):
        for a, e_a in enumerate(fam_a):
            for qt, fam_b in enumerate(s.bob):
                for b, e_b in enumerate(fam_b):
                    if s.is_pure:
                        m = s.state.reshape(d_a, d_b)
                        val = np.vdot(m, e_a @ m @ e_b.T)
                    else:
                        val = np.trace(np.kron(e_a, e_b) @ s.state)
                    table[qs, qt, a, b] = np.real(val)
    return table


def loop_game_operator(g, s):
    """``sum pi V A (x) B`` by one ``kron`` per pair of elements (oracle)."""
    d = s.dims[0] * s.dims[1]
    w = np.zeros((d, d), dtype=complex)
    for qs, fam_a in enumerate(s.alice):
        for qt, fam_b in enumerate(s.bob):
            for a, e_a in enumerate(fam_a):
                for b, e_b in enumerate(fam_b):
                    w += g.pi[qs, qt] * g.predicate[qs, qt, a, b] * np.kron(e_a, e_b)
    return w


@st.composite
def games_and_strategies(draw):
    """A random game and a valid strategy for it: dA and dB drawn apart (1-4),
    1-3 questions a side, families of 1 to the game's answer count (2-3)
    elements, and a pure state or a mixed one of full or deficient rank."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d_a, d_b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n_s, n_t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n_a, n_b = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    alice = [random_povm(rng, d_a, draw(st.integers(1, n_a))) for _ in range(n_s)]
    bob = [random_povm(rng, d_b, draw(st.integers(1, n_b))) for _ in range(n_t)]
    kind = draw(st.sampled_from(["pure", "full rank", "deficient rank"]))
    n = d_a * d_b
    if kind == "pure":
        state = random_bipartite_state(rng, d_a, d_b)
    else:
        state = random_density(rng, n, rank=n if kind == "full rank" else max(1, n // 2))
    pi = rng.uniform(0.1, 1.0, size=(n_s, n_t))
    pred = rng.integers(0, 2, size=(n_s, n_t, n_a, n_b)).astype(float)
    g = NonlocalGame(pi=pi / pi.sum(), predicate=pred)
    return g, Strategy(state=state, dims=(d_a, d_b), alice=alice, bob=bob)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(games_and_strategies())
def test_contractions_match_loop_oracles(drawn):
    g, s = drawn
    n_a = max(len(f) for f in s.alice)
    n_b = max(len(f) for f in s.bob)
    p = correlation_of(s).table
    assert p.shape == (len(s.alice), len(s.bob), n_a, n_b)
    assert np.max(np.abs(p - np.clip(loop_table(s, n_a, n_b), 0.0, 1.0))) <= 1e-12
    assert np.max(np.abs(game_operator(g, s) - loop_game_operator(g, s))) <= 1e-12
    omega = np.sum(g.pi[:, :, None, None] * g.predicate * loop_table(s, *g.shape[2:]))
    assert abs(win_probability(g, s) - omega) <= 1e-12
