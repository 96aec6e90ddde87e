import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selftest_lab import linalg, schmidt
from selftest_lab.errors import DimensionMismatch, InvalidState, PureStateRequired
from selftest_lab.games import Strategy, attach_product_ancilla, correlation_of, validate_strategy
from selftest_lab.lab import canonical_chsh
from selftest_lab.schmidt import (
    local_supports,
    purify,
    restrict,
    schmidt_decompose,
)

from helpers import haar_unitary, random_bipartite_state, random_density, random_pure_state

RNG = np.random.default_rng(303)


def rank2_state_3x3():
    psi = np.zeros(9, dtype=complex)
    psi[0] = psi[8] = 1 / np.sqrt(2)  # (|00> + |22>)/sqrt(2)
    return psi


def test_schmidt_bell_state():
    sd = schmidt_decompose(canonical_chsh().state, (2, 2))
    assert sd.rank == 2
    assert np.allclose(sd.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-14)


def test_schmidt_product_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    sd = schmidt_decompose(psi, (2, 2))
    assert sd.rank == 1
    assert sd.coefficients[0] == pytest.approx(1.0, abs=1e-14)


def test_schmidt_rank_deficient_3x3():
    sd = schmidt_decompose(rank2_state_3x3(), (3, 3))
    assert sd.rank == 2


def test_schmidt_reconstruction_random():
    for _ in range(30):
        d_a, d_b = RNG.integers(2, 6, size=2)
        rank = int(RNG.integers(1, min(d_a, d_b) + 1))
        psi = random_bipartite_state(RNG, d_a, d_b, rank=rank)
        sd = schmidt_decompose(psi, (d_a, d_b))
        recon = np.zeros(d_a * d_b, dtype=complex)
        for i in range(sd.rank):
            recon += sd.coefficients[i] * np.kron(sd.left[:, i], sd.right[:, i])
        assert np.linalg.norm(psi - recon) <= 1e-10
        assert sd.rank == rank


def test_schmidt_rank_invariant_under_local_unitaries():
    for _ in range(10):
        psi = random_bipartite_state(RNG, 3, 4, rank=2)
        u = haar_unitary(RNG, 3)
        v = haar_unitary(RNG, 4)
        rotated = linalg.apply_factors(psi, (3, 4), (u, v))
        assert schmidt_decompose(rotated, (3, 4)).rank == 2


def test_local_supports():
    sd = schmidt_decompose(canonical_chsh().state, (2, 2))
    pi_a, pi_b = local_supports(sd)
    assert np.allclose(pi_a, np.eye(2), atol=1e-12)
    assert np.allclose(pi_b, np.eye(2), atol=1e-12)

    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    pi_a, _ = local_supports(schmidt_decompose(psi, (2, 2)))
    assert np.allclose(pi_a, np.diag([1, 0]), atol=1e-12)

    pi_a, pi_b = local_supports(schmidt_decompose(rank2_state_3x3(), (3, 3)))
    assert np.allclose(pi_a, np.diag([1, 0, 1]), atol=1e-12)
    assert np.allclose(pi_b, np.diag([1, 0, 1]), atol=1e-12)


def test_supports_are_projections_with_schmidt_rank():
    for _ in range(10):
        d_a, d_b = RNG.integers(2, 5, size=2)
        rank = int(RNG.integers(1, min(d_a, d_b) + 1))
        sd = schmidt_decompose(random_bipartite_state(RNG, d_a, d_b, rank=rank), (d_a, d_b))
        pi_a, pi_b = local_supports(sd)
        for pi in (pi_a, pi_b):
            assert linalg.projector_defect(pi) <= 1e-12
        assert int(round(np.real(np.trace(pi_a)))) == rank
        assert int(round(np.real(np.trace(pi_b)))) == rank


def test_restrict_full_rank_preserves_correlation():
    s = canonical_chsh()
    restricted, u_a, u_b = restrict(s)
    assert restricted.dims == (2, 2)
    assert validate_strategy(restricted).valid
    p0 = correlation_of(s).table
    p1 = correlation_of(restricted).table
    assert np.max(np.abs(p0 - p1)) <= 1e-12


def test_restrict_three_level_example():
    # non-projective after compression: the element mixes support and kernel
    plus = (linalg.basis_state(3, 0) + linalg.basis_state(3, 1)) / np.sqrt(2)
    e = np.outer(plus, plus.conj())
    fam = [e, np.eye(3, dtype=complex) - e]
    z3 = [np.diag([1, 0, 0]).astype(complex), np.diag([0, 1, 0]).astype(complex),
          np.diag([0, 0, 1]).astype(complex)]
    s = Strategy(state=rank2_state_3x3(), dims=(3, 3), alice=[fam], bob=[z3])
    restricted, u_a, u_b = restrict(s)
    assert restricted.dims == (2, 2)
    assert validate_strategy(restricted).valid
    compressed = restricted.alice[0][0]
    assert linalg.projector_defect(compressed) > 0.1  # genuinely non-projective
    # completeness on the support is exact up to roundoff
    total = restricted.alice[0][0] + restricted.alice[0][1]
    assert np.max(np.abs(total - np.eye(2))) <= 1e-14


def test_restrict_recovers_block_embedded_chsh():
    s = canonical_chsh()
    attached = attach_product_ancilla(s, linalg.basis_state(2, 0), linalg.basis_state(2, 0))
    restricted, u_a, u_b = restrict(attached)
    assert restricted.dims == (2, 2)
    p0 = correlation_of(s).table
    p1 = correlation_of(restricted).table
    assert np.max(np.abs(p0 - p1)) <= 1e-12
    # the isometries hit the support exactly: Pi = U U*
    sd = schmidt_decompose(attached.state, attached.dims)
    pi_a, pi_b = local_supports(sd)
    assert np.max(np.abs(u_a @ u_a.conj().T - pi_a)) <= 1e-12
    assert np.max(np.abs(u_b @ u_b.conj().T - pi_b)) <= 1e-12


def test_restrict_state_is_schmidt_diagonal():
    for _ in range(10):
        d_a, d_b = RNG.integers(2, 5, size=2)
        rank = int(RNG.integers(1, min(d_a, d_b) + 1))
        psi = random_bipartite_state(RNG, d_a, d_b, rank=rank)
        s = Strategy(
            state=psi, dims=(d_a, d_b),
            alice=[[np.eye(d_a, dtype=complex)]], bob=[[np.eye(d_b, dtype=complex)]],
        )
        restricted, _, _ = restrict(s)
        sd = schmidt_decompose(psi, (d_a, d_b))
        diag = np.zeros(rank * rank, dtype=complex)
        for i in range(rank):
            diag[i * rank + i] = sd.coefficients[i]
        assert np.linalg.norm(restricted.state - diag) <= 1e-12


def test_restrict_preserves_correlation_when_support_preserving():
    from selftest_lab.metrics import support_preserving_eps

    from helpers import haar_unitary, random_povm

    for _ in range(10):
        d, rank = 4, 2
        u_a = haar_unitary(RNG, d)
        u_b = haar_unitary(RNG, d)
        probs = RNG.dirichlet(np.ones(rank) * 2.0)
        psi = np.zeros(d * d, dtype=complex)
        for i in range(rank):
            psi += np.sqrt(probs[i]) * np.kron(u_a[:, i], u_b[:, i])

        def block_family(u, outcomes):
            # block-diagonal in the support split, so it commutes with Pi
            sup, ker = u[:, :rank], u[:, rank:]
            top = random_povm(RNG, rank, outcomes)
            bottom = random_povm(RNG, d - rank, outcomes)
            return [
                sup @ t @ sup.conj().T + ker @ b @ ker.conj().T
                for t, b in zip(top, bottom)
            ]

        s = Strategy(
            state=psi / np.linalg.norm(psi), dims=(d, d),
            alice=[block_family(u_a, 2), block_family(u_a, 3)],
            bob=[block_family(u_b, 2)],
        )
        assert support_preserving_eps(s) <= 1e-12
        restricted, _, _ = restrict(s)
        p0 = correlation_of(s).table
        p1 = correlation_of(restricted).table
        assert np.max(np.abs(p0 - p1)) <= 1e-12


def test_restrict_rejects_mixed_state():
    s = Strategy(
        state=np.eye(4, dtype=complex) / 4,
        dims=(2, 2),
        alice=[[np.eye(2, dtype=complex)]],
        bob=[[np.eye(2, dtype=complex)]],
    )
    with pytest.raises(PureStateRequired):
        restrict(s)


def test_purify_pure_state():
    phi = random_pure_state(RNG, 4)
    rho = np.outer(phi, phi.conj())
    psi = purify(rho)
    assert psi.size == 4  # purifier is one-dimensional
    assert np.max(np.abs(np.outer(psi, psi.conj())[:4, :4] - rho)) <= 1e-10
    s = Strategy(state=rho, dims=(2, 2),
                 alice=[[np.eye(2, dtype=complex)]], bob=[[np.eye(2, dtype=complex)]])
    assert not s.is_pure


def test_purify_maximally_mixed():
    psi = purify(np.eye(4, dtype=complex) / 4)
    assert psi.size == 16
    sd = schmidt_decompose(psi, (4, 4))
    assert sd.rank == 4
    assert np.allclose(sd.coefficients, 0.5, atol=1e-12)


def test_purify_rank_two_mixture():
    phi = canonical_chsh().state
    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1.0
    rho = 0.5 * np.outer(phi, phi.conj()) + 0.5 * np.outer(e00, e00.conj())
    psi = purify(rho)
    assert psi.size == 8  # rank-2 purifier
    recovered = linalg.partial_trace(np.outer(psi, psi.conj()), (4, 2), "A")
    assert np.max(np.abs(recovered - rho)) <= 1e-10


def test_purify_roundtrip_random():
    for _ in range(10):
        rank = int(RNG.integers(1, 5))
        rho = random_density(RNG, 4, rank=rank)
        psi = purify(rho)
        d_p = psi.size // 4
        assert d_p == rank
        recovered = linalg.partial_trace(np.outer(psi, psi.conj()), (4, d_p), "A")
        assert np.max(np.abs(recovered - rho)) <= 1e-10


def purification_loop(spec):
    """Oracle: the column loop ``schmidt._purification`` ran before it scaled the kept
    eigenvectors in one product."""
    top = spec.eigenvalues[0]
    rank = int(np.count_nonzero(spec.eigenvalues > 1e-12 * max(top, 0.0)))
    psi = np.zeros((spec.eigenvectors.shape[0], rank), dtype=np.complex128)
    for i in range(rank):
        psi[:, i] = np.sqrt(spec.eigenvalues[i]) * spec.eigenvectors[:, i]
    psi = psi.reshape(-1)
    return psi / np.linalg.norm(psi)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 9), st.integers(1, 9), st.sampled_from(["complex", "real", "diagonal"]),
       st.integers(0, 2**32 - 1))
def test_purification_has_the_bits_of_the_column_loop(d, rank, kind, seed):
    # the same products in the same order: equal bits, signed zeros included
    rng = np.random.default_rng(seed)
    rho = random_density(rng, d, rank=min(rank, d))
    rho = {"complex": rho, "real": rho.real.astype(complex), "diagonal": np.diag(np.diag(rho))}[kind]
    spec = linalg.hermitian_eig(rho)
    got, want = schmidt._purification(spec), purification_loop(spec)
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def test_purify_rejects_non_state():
    with pytest.raises(InvalidState):
        purify(np.eye(3, dtype=complex))  # trace 3
    with pytest.raises(InvalidState):
        purify(np.diag([1.5, -0.5]).astype(complex))  # trace 1 but not PSD


def test_schmidt_decompose_refuses_a_state_off_the_dims():
    with pytest.raises(DimensionMismatch, match="state of size 5 does not factor as 2x2"):
        schmidt_decompose(np.ones(5), (2, 2))


def test_purify_refuses_a_unit_trace_matrix_that_is_not_hermitian():
    with pytest.raises(InvalidState, match="density operator must be Hermitian"):
        purify(np.array([[0.5, 1.0], [0.0, 0.5]]))
