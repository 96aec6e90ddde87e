import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selftest_lab import games, linalg
from selftest_lab.errors import DimensionMismatch, InvalidPovm, PureStateRequired
from selftest_lab.games import Strategy, attach_product_ancilla, conjugate_strategy
from selftest_lab.lab import PAULI_X, PAULI_Z, canonical_chsh, trine_strategy
from selftest_lab.metrics import (
    DUST_FLOOR,
    NEGATIVE_DUST,
    hat_operators,
    projective_eps,
    state_dependent_norm,
    state_overlap,
    strategy_metrics,
    support_preserving_eps,
)
from selftest_lab.naimark import naimark_strategy
from selftest_lab.schmidt import local_supports, restrict, schmidt_decompose

from helpers import (
    haar_unitary,
    overflowing_chsh,
    random_bipartite_state,
    random_povm,
    random_pure_state,
    random_strategy,
)

RNG = np.random.default_rng(404)


def leaky_strategy(coupling=1.0):
    """Rank-2 state on C^3 (x) C^3 with an Alice element leaking off-support.

    The commutator norm of the leaking element is coupling / (2 sqrt(2)).
    """
    psi = np.zeros(9, dtype=complex)
    psi[0] = psi[4] = 1 / np.sqrt(2)  # (|00> + |11>)/sqrt(2), support {0, 1}
    x02 = np.zeros((3, 3), dtype=complex)
    x02[0, 2] = x02[2, 0] = 1.0  # |0><2| + |2><0| maps support to kernel
    e = (np.eye(3) + coupling * x02) / 2.0
    fam = [e, np.eye(3, dtype=complex) - e]
    trivial = [np.eye(3, dtype=complex)]
    return Strategy(state=psi, dims=(3, 3), alice=[fam], bob=[trivial])


def test_state_dependent_norm_identity():
    for _ in range(5):
        d = int(RNG.integers(2, 5))
        g = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
        rho = g @ g.conj().T
        rho /= np.real(np.trace(rho))
        assert state_dependent_norm(np.eye(d), rho) == pytest.approx(1.0, abs=1e-12)


def test_state_dependent_norm_pauli():
    assert state_dependent_norm(PAULI_Z, np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)


def test_state_dependent_norm_full_rank_commutator():
    # [Pi, M] = 0 when the support is everything
    m0 = (np.eye(2) + PAULI_Z) / 3
    sd = schmidt_decompose(canonical_chsh().state, (2, 2))
    pi_a, _ = local_supports(sd)
    comm = pi_a @ m0 - m0 @ pi_a
    assert state_dependent_norm(comm, np.eye(2) / 2) <= 1e-12


def test_state_overlap_matches_trace():
    x = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    y = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    rho = np.eye(2) / 2
    assert state_overlap(x, y, rho) == pytest.approx(
        complex(np.trace(x.conj().T @ y @ rho)), abs=1e-14
    )


def test_support_eps_full_rank_is_zero():
    for _ in range(5):
        s = random_strategy(RNG, 3, 3, outcomes=3)  # full-rank state by default
        assert support_preserving_eps(s) <= 1e-12


def test_support_eps_block_embedded_chsh():
    s = attach_product_ancilla(
        canonical_chsh(), linalg.basis_state(2, 0), linalg.basis_state(2, 0)
    )
    assert support_preserving_eps(s) <= 1e-12


def test_support_eps_leaky_element_value():
    s = leaky_strategy(coupling=1.0)
    # derived value: ||[Pi, E]||_sigma = 1/(2 sqrt(2)) for both elements
    expected = 1.0 / (2.0 * np.sqrt(2.0))
    assert support_preserving_eps(s) == pytest.approx(expected, abs=1e-12)


def test_support_eps_matches_direct_commutator_norm():
    for _ in range(20):
        d_a, d_b = (int(x) for x in RNG.integers(2, 5, size=2))
        rank = int(RNG.integers(1, min(d_a, d_b) + 1))
        s = Strategy(
            state=random_bipartite_state(RNG, d_a, d_b, rank=rank),
            dims=(d_a, d_b),
            alice=[random_povm(RNG, d_a, 2)],
            bob=[random_povm(RNG, d_b, 3)],
        )
        m = strategy_metrics(s)
        sd = schmidt_decompose(s.state, s.dims)
        pi_a, pi_b = local_supports(sd)
        sigma_a = linalg.partial_trace(s.density(), s.dims, "A")
        sigma_b = linalg.partial_trace(s.density(), s.dims, "B")
        for a, e in enumerate(s.alice[0]):
            direct = state_dependent_norm(pi_a @ e - e @ pi_a, sigma_a)
            assert m.alice_commutator_norms[0][a] == pytest.approx(direct, abs=1e-10)
        for b, e in enumerate(s.bob[0]):
            direct = state_dependent_norm(pi_b @ e - e @ pi_b, sigma_b)
            assert m.bob_commutator_norms[0][b] == pytest.approx(direct, abs=1e-10)


def test_projective_eps_chsh_zero():
    assert projective_eps(canonical_chsh()) == 0.0


def test_projective_eps_trine():
    s = trine_strategy()
    m = strategy_metrics(s)
    assert np.allclose(m.bob_overlaps[2], [1 / 9] * 3, atol=1e-12)
    assert projective_eps(s) == pytest.approx(1 / 3, abs=1e-12)


def test_projective_eps_off_support_nonprojective_is_zero():
    psi = np.zeros(9, dtype=complex)
    psi[0] = 1.0  # |00> on C^3 (x) C^3
    e = np.diag([1.0, 0.5, 1 / 3]).astype(complex)
    fam = [e, np.eye(3, dtype=complex) - e]
    s = Strategy(state=psi, dims=(3, 3), alice=[fam], bob=[[np.eye(3, dtype=complex)]])
    assert projective_eps(s) == 0.0
    assert linalg.projector_defect(e) > 0.1


def test_metrics_require_pure_state():
    s = Strategy(
        state=np.eye(4, dtype=complex) / 4,
        dims=(2, 2),
        alice=[[np.eye(2, dtype=complex)]],
        bob=[[np.eye(2, dtype=complex)]],
    )
    with pytest.raises(PureStateRequired):
        support_preserving_eps(s)
    with pytest.raises(PureStateRequired):
        projective_eps(s)


def test_hat_operators_bell_pauli():
    phi = canonical_chsh().state
    s = Strategy(
        state=phi, dims=(2, 2),
        alice=[[(np.eye(2) + PAULI_Z) / 2, (np.eye(2) - PAULI_Z) / 2]],
        bob=[[np.eye(2, dtype=complex)]],
    )
    hats, _ = hat_operators(s)
    # for the maximally entangled state, hat(E) = E^T
    for a, e in enumerate(s.alice[0]):
        assert np.max(np.abs(hats[0][a] - e.T)) <= 1e-12


def test_hat_operators_skewed_state_closed_form():
    lam = np.array([np.sqrt(0.9), np.sqrt(0.1)])
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = lam[0], lam[1]
    x_fam = [(np.eye(2) + PAULI_X) / 2, (np.eye(2) - PAULI_X) / 2]
    s = Strategy(state=psi, dims=(2, 2), alice=[x_fam],
                 bob=[[np.eye(2, dtype=complex)]])
    hats, _ = hat_operators(s)
    hat_x = hats[0][0] - hats[0][1]  # hat is linear, so this is hat(X)
    expected = np.array([[0, 3.0], [1 / 3, 0]], dtype=complex)
    assert np.max(np.abs(hat_x - expected)) <= 1e-10
    # and the swap residual vanishes for this X
    lhs = linalg.apply_factors(psi, (2, 2), (PAULI_X, None))
    rhs = linalg.apply_factors(psi, (2, 2), (None, hat_x))
    assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_hat_of_support_projection_is_other_projection():
    psi = random_bipartite_state(RNG, 3, 4, rank=2)
    sd = schmidt_decompose(psi, (3, 4))
    pi_a, pi_b = local_supports(sd)
    fam = [pi_a, np.eye(3, dtype=complex) - pi_a]
    s = Strategy(state=psi, dims=(3, 4), alice=[fam], bob=[[np.eye(4, dtype=complex)]])
    hats, _ = hat_operators(s)
    assert np.max(np.abs(hats[0][0] - pi_b)) <= 1e-10


def test_hat_residual_identity_random():
    for _ in range(30):
        d_a, d_b = (int(x) for x in RNG.integers(2, 5, size=2))
        rank = int(RNG.integers(1, min(d_a, d_b) + 1))
        s = Strategy(
            state=random_bipartite_state(RNG, d_a, d_b, rank=rank),
            dims=(d_a, d_b),
            alice=[random_povm(RNG, d_a, 2) for _ in range(2)],
            bob=[random_povm(RNG, d_b, 2) for _ in range(2)],
        )
        m = strategy_metrics(s)
        a_hats, b_hats = hat_operators(s)
        for q in range(2):
            for a, e in enumerate(s.alice[q]):
                lhs = linalg.apply_factors(s.state, s.dims, (e, None))
                rhs = linalg.apply_factors(s.state, s.dims, (None, a_hats[q][a]))
                resid = float(np.linalg.norm(lhs - rhs))
                assert resid == pytest.approx(m.alice_commutator_norms[q][a], abs=1e-10)
            for b, e in enumerate(s.bob[q]):
                lhs = linalg.apply_factors(s.state, s.dims, (None, e))
                rhs = linalg.apply_factors(s.state, s.dims, (b_hats[q][b], None))
                resid = float(np.linalg.norm(lhs - rhs))
                assert resid == pytest.approx(m.bob_commutator_norms[q][b], abs=1e-10)


def test_swap_residual_bounds_support_eps():
    # operators approximating the hats within eps certify 2*eps support defect
    for _ in range(10):
        s = Strategy(
            state=random_bipartite_state(RNG, 3, 3, rank=2),
            dims=(3, 3),
            alice=[random_povm(RNG, 3, 2)],
            bob=[[np.eye(3, dtype=complex)]],
        )
        a_hats, _ = hat_operators(s)
        noise = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
        noise *= 0.01 / np.linalg.norm(noise)
        perturbed = [a_hats[0][a] + noise for a in range(2)]
        worst = 0.0
        for a, e in enumerate(s.alice[0]):
            lhs = linalg.apply_factors(s.state, s.dims, (e, None))
            rhs = linalg.apply_factors(s.state, s.dims, (None, perturbed[a]))
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        assert support_preserving_eps(s) <= 2 * worst + 1e-10


def test_restriction_projectivity_identity():
    # <1-E', E'>_res - ||[Pi, E]||^2 = <1-E, E> per element
    for _ in range(30):
        d_a, d_b = (int(x) for x in RNG.integers(2, 5, size=2))
        rank = int(RNG.integers(1, min(d_a, d_b) + 1))
        s = Strategy(
            state=random_bipartite_state(RNG, d_a, d_b, rank=rank),
            dims=(d_a, d_b),
            alice=[random_povm(RNG, d_a, 3)],
            bob=[random_povm(RNG, d_b, 2)],
        )
        m = strategy_metrics(s)
        restricted, _, _ = restrict(s)
        m_res = strategy_metrics(restricted)
        for q, fam in enumerate(s.alice):
            for a in range(len(fam)):
                lhs = m_res.alice_overlaps[q][a] - m.alice_commutator_norms[q][a] ** 2
                assert lhs == pytest.approx(m.alice_overlaps[q][a], abs=1e-10)
        for q, fam in enumerate(s.bob):
            for b in range(len(fam)):
                lhs = m_res.bob_overlaps[q][b] - m.bob_commutator_norms[q][b] ** 2
                assert lhs == pytest.approx(m.bob_overlaps[q][b], abs=1e-10)


def test_near_dilation_propagates_projectivity_defect():
    # across an eps'-dilation the projectivity defect moves by at most
    # sqrt(3*eps') in either direction (its propagation proof uses only
    # contractions, unlike the support defect whose transfer rides on
    # unbounded hat operators)
    from selftest_lab.dilation import DilationWitness, dilation_residuals
    from selftest_lab.games import attach_product_ancilla, conjugate_strategy

    for trial in range(10):
        tilde = Strategy(
            state=random_bipartite_state(RNG, 3, 3, rank=2),
            dims=(3, 3),
            alice=[random_povm(RNG, 3, 2)],
            bob=[random_povm(RNG, 3, 2)],
        )
        aux_a = random_pure_state(RNG, 2)
        aux_b = random_pure_state(RNG, 2)
        attached = attach_product_ancilla(tilde, aux_a, aux_b)
        r_a = haar_unitary(RNG, 6)
        r_b = haar_unitary(RNG, 6)
        exact = conjugate_strategy(attached, r_a, r_b)
        noisy_state = exact.state + 0.003 * random_pure_state(RNG, 36)
        noisy_state /= np.linalg.norm(noisy_state)
        src = Strategy(state=noisy_state, dims=(6, 6), alice=exact.alice, bob=exact.bob)
        w = DilationWitness(
            u_a=r_a.conj().T, u_b=r_b.conj().T,
            dims_a=(3, 2), dims_b=(3, 2), aux=np.kron(aux_a, aux_b),
        )
        eps_prime = dilation_residuals(src, tilde, w).eps
        assert eps_prime < 0.05
        proj_src = projective_eps(src)
        proj_tilde = projective_eps(tilde)
        assert abs(proj_src - proj_tilde) <= np.sqrt(3 * eps_prime) + 1e-10


def test_invariance_under_ancilla_and_local_unitaries():
    for _ in range(30):
        d_a, d_b = (int(x) for x in RNG.integers(2, 4, size=2))
        rank = int(RNG.integers(1, min(d_a, d_b) + 1))
        s = Strategy(
            state=random_bipartite_state(RNG, d_a, d_b, rank=rank),
            dims=(d_a, d_b),
            alice=[random_povm(RNG, d_a, 2) for _ in range(2)],
            bob=[random_povm(RNG, d_b, 3)],
        )
        transformed = attach_product_ancilla(
            s, random_pure_state(RNG, 2), random_pure_state(RNG, 3)
        )
        transformed = conjugate_strategy(
            transformed, haar_unitary(RNG, d_a * 2), haar_unitary(RNG, d_b * 3)
        )
        assert support_preserving_eps(transformed) == pytest.approx(
            support_preserving_eps(s), abs=1e-10
        )
        assert projective_eps(transformed) == pytest.approx(
            projective_eps(s), abs=1e-10
        )


def density_oracle_tables(s):
    """Per-element tables from the joint density: ``||((1-Pi)E (x) 1)psi||``
    with the product ``(1-Pi)E`` formed, and ``tr((1-E)E sigma)`` with the
    same clip at zero and dust floor as the library."""
    rho = s.density()
    supports = local_supports(schmidt_decompose(s.state, s.dims))
    tables = []
    for k, fams in enumerate((s.alice, s.bob)):
        sigma = linalg.partial_trace(rho, s.dims, "AB"[k])
        comp = np.eye(s.dims[k]) - supports[k]
        comm, over = [], []
        for fam in fams:
            ops = [(comp @ e, None) if k == 0 else (None, comp @ e) for e in fam]
            comm.append([np.linalg.norm(linalg.apply_factors(s.state, s.dims, o)) for o in ops])
            raw = [np.real(np.trace((np.eye(s.dims[k]) - e) @ e @ sigma)) for e in fam]
            over.append([v if v >= DUST_FLOOR else 0.0 for v in raw])
        tables += [comm, over]
    return tables


@st.composite
def pure_strategies(draw):
    d_a = draw(st.integers(1, 5))
    d_b = draw(st.integers(1, 5).filter(lambda d: d != d_a))
    rank = draw(st.integers(1, min(d_a, d_b)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    outcomes = st.integers(1, 4)
    questions = st.lists(outcomes, min_size=1, max_size=3)
    return Strategy(
        state=random_bipartite_state(rng, d_a, d_b, rank=rank),
        dims=(d_a, d_b),
        alice=[random_povm(rng, d_a, m) for m in draw(questions)],
        bob=[random_povm(rng, d_b, m) for m in draw(questions)],
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pure_strategies())
def test_state_vector_tables_match_density_oracle(s):
    m = strategy_metrics(s)
    got = (m.alice_commutator_norms, m.alice_overlaps, m.bob_commutator_norms, m.bob_overlaps)
    for table, want in zip(got, density_oracle_tables(s), strict=True):
        for row, want_row in zip(table, want, strict=True):
            assert np.max(np.abs(np.subtract(row, want_row))) <= 1e-12


def test_dilated_metrics_build_no_joint_density():
    # rank 2 on C^2 (x) C^2; Naimark dims 2*2*2 = 8 and 2*2*2*3^3 = 216, so the
    # joint density of the dilation alone would take 1728^2 * 16 B = 45.6 MiB
    rng = np.random.default_rng(7)
    s = Strategy(
        state=random_bipartite_state(rng, 2, 2, rank=2),
        dims=(2, 2),
        alice=[random_povm(rng, 2, 2) for _ in range(2)],
        bob=[random_povm(rng, 2, m) for m in (2, 2, 3, 3, 3)],
    )
    dilated, _, _ = naimark_strategy(s)
    assert dilated.dims[0] * dilated.dims[1] >= 1728
    tracemalloc.start()
    try:
        m = strategy_metrics(dilated)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert m.projective_eps == 0.0


def projection_oracle_tables(families, pi, psi, dims, side):
    """Oracle tables from the ``d x d`` support projection ``pi``:
    ``||((1 - Pi) (x) 1) X||`` and ``<psi|X - (E (x) 1) X>`` with
    ``X = (E (x) 1)|psi>`` (Bob's side mirrored), clipped and floored alike."""
    def apply(op, vec):
        return linalg.apply_factors(vec, dims, (op, None) if side == "A" else (None, op))

    comp = np.eye(pi.shape[0]) - pi
    comm, over = [], []
    for fam in families:
        comm_row, over_row = [], []
        for e in fam:
            x = apply(e, psi)
            comm_row.append(float(np.linalg.norm(apply(comp, x))))
            val = float(np.real(np.vdot(psi, x - apply(e, x))))
            assert val >= NEGATIVE_DUST
            val = max(val, 0.0)
            over_row.append(val if val >= DUST_FLOOR else 0.0)
        comm.append(tuple(comm_row))
        over.append(tuple(over_row))
    return tuple(comm), tuple(over)


def assert_tables_match_projection_oracle(s):
    m = strategy_metrics(s)
    pi_a, pi_b = local_supports(schmidt_decompose(s.state, s.dims))
    for fams, pi, side, got in (
        (s.alice, pi_a, "A", (m.alice_commutator_norms, m.alice_overlaps)),
        (s.bob, pi_b, "B", (m.bob_commutator_norms, m.bob_overlaps)),
    ):
        want = projection_oracle_tables(fams, pi, s.state, s.dims, side)
        for table, want_table in zip(got, want, strict=True):
            for row, want_row in zip(table, want_table, strict=True):
                assert np.max(np.abs(np.subtract(row, want_row))) <= 1e-12


@pytest.mark.parametrize("d_a, d_b", [(1, 3), (2, 5), (4, 3), (5, 4)])
def test_schmidt_vector_tables_match_projection_oracle_at_every_rank(d_a, d_b):
    rng = np.random.default_rng(10 * d_a + d_b)
    for rank in range(1, min(d_a, d_b) + 1):
        s = Strategy(
            state=random_bipartite_state(rng, d_a, d_b, rank=rank),
            dims=(d_a, d_b),
            alice=[random_povm(rng, d_a, m) for m in (2, 3)],
            bob=[random_povm(rng, d_b, m) for m in (1, 2, 4)],
        )
        assert_tables_match_projection_oracle(s)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pure_strategies())
def test_schmidt_vector_tables_match_projection_oracle(s):
    assert_tables_match_projection_oracle(s)


def test_schmidt_vector_tables_leaky_element():
    assert_tables_match_projection_oracle(leaky_strategy(coupling=0.7))


@pytest.mark.parametrize("excess, raises", [(1.0, True), (2e-10, True), (5e-11, False)])
def test_overlap_below_negative_dust_raises(excess, raises):
    # E = (1 + excess) |0><0| on |00>: <1-E, E> = -excess (1 + excess)
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    e = np.diag([1.0 + excess, 0.0]).astype(complex)
    s = Strategy(state=psi, dims=(2, 2), alice=[[e]], bob=[[np.eye(2, dtype=complex)]])
    if raises:
        with pytest.raises(InvalidPovm):
            strategy_metrics(s)
    else:
        assert strategy_metrics(s).alice_overlaps == ((0.0,),)


def test_a_gated_leaky_element_reads_overlap_zero():
    # the leaky element at excess 2e-10, completed to a family: it and its
    # complement have <1-E, E> = -2e-10 (1 + 2e-10), and the gate at 1e-9 passes
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    e = np.diag([1.0 + 2e-10, 0.0]).astype(complex)
    fam = [e, np.eye(2) - e]
    s = Strategy(state=psi, dims=(2, 2), alice=[fam], bob=[[np.eye(2, dtype=complex)]])
    assert games._is_valid(s, 1e-9)
    assert strategy_metrics(s).alice_overlaps == ((0.0, 0.0),)


@pytest.mark.parametrize("correlation_first", [False, True], ids=["fresh", "gated"])
def test_a_valid_leaky_family_reads_zero_in_either_call_order(correlation_first):
    # E0 = diag(1 + 5e-10, 0) and E1 = 1 - E0 on |00>: the gate passes at the default
    # tol, though <1-E0, E0> = -5e-10 (1 + 5e-10) is below NEGATIVE_DUST
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    e = np.diag([1.0 + 5e-10, 0.0]).astype(complex)
    s = Strategy(state=psi, dims=(2, 2), alice=[[e, np.eye(2) - e]], bob=[[np.eye(2, dtype=complex)]])
    assert games.validate_strategy(copy.copy(s), linalg.DEFAULT_TOL).valid  # s stays ungated
    if correlation_first:
        games.correlation_of(s)
    assert strategy_metrics(s).projective_eps == 0.0


def test_a_nan_overlap_or_commutator_reads_nan():
    # a NaN is not dust: both aggregates keep it, though it is not the first entry
    with np.errstate(over="ignore", invalid="ignore"):
        m = strategy_metrics(overflowing_chsh())
    assert np.isnan(m.bob_overlaps[1][0]) and np.isnan(m.bob_commutator_norms[1][0])
    assert np.isnan(m.projective_eps) and np.isnan(m.support_eps)


def test_metrics_on_d324_dilation_build_no_dilated_operator():
    # Bob dilates to D = 3*2*2*3*3*3 = 324; one D x D complex operator is
    # 1.6 MiB, while the 12 x 324 state matrix is 61 KiB
    rng = np.random.default_rng(902)
    s = Strategy(
        state=random_bipartite_state(rng, 3, 3, rank=2),
        dims=(3, 3),
        alice=[random_povm(rng, 3, 2) for _ in range(2)],
        bob=[random_povm(rng, 3, m) for m in (2, 2, 3, 3, 3)],
    )
    dilated, _, _ = naimark_strategy(s)
    assert dilated.dims == (12, 324)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        m = strategy_metrics(dilated)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 2**20
    assert m.projective_eps == 0.0


def test_state_dependent_norm_refuses_a_state_of_another_dimension():
    with pytest.raises(DimensionMismatch, match="operator and state dimensions differ"):
        state_dependent_norm(np.eye(2), np.eye(3) / 3)
