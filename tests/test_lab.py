import itertools

import numpy as np
import pytest

from selftest_lab import dilation, linalg
from selftest_lab.dilation import naimark_embedding, reverse_witness
from selftest_lab.errors import (
    DegenerateTopEigenvalue,
    DimensionMismatch,
    FullRankRequired,
    InvalidState,
    LabError,
)
from selftest_lab.games import (
    Strategy,
    correlation_of,
    game_operator,
    validate_strategy,
    win_probability,
)
from selftest_lab.lab import (
    CHSH_QUANTUM_VALUE,
    beta_functionals,
    bell_state,
    canonical_chsh,
    chsh_game,
    effective_measurement,
    eigengap_analysis,
    higher_order_moment,
    minimal_dilation_strategies,
    minimal_trine_dilation,
    perturb_state,
    rank_deficient_combination,
    robustness_constant,
    trine_povm,
    trine_projector_vectors,
    trine_strategy,
)
from selftest_lab.metrics import projective_eps, support_preserving_eps
from selftest_lab.naimark import naimark_family, naimark_strategy, verify_dilation
from selftest_lab.schmidt import purify

from helpers import (
    random_bipartite_state,
    random_density,
    random_povm,
)

RNG = np.random.default_rng(707)

SQRT2 = np.sqrt(2.0)


def test_canonical_chsh_value_and_validity():
    s = canonical_chsh()
    assert validate_strategy(s, tol=1e-12).valid
    assert win_probability(chsh_game(), s) == pytest.approx(
        (2 + SQRT2) / 4, abs=1e-12
    )
    assert projective_eps(s) == 0.0


def test_beta_functionals_canonical():
    betas = beta_functionals(trine_strategy())
    assert betas.beta0 == pytest.approx(2 * SQRT2, abs=1e-12)
    assert betas.beta1 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "questions, message",
    [((3, 3), "expected two binary Alice questions"),
     ((2, 2), "expected two binary Bob questions plus one trine-like question")],
    ids=["three-alice-questions", "chsh"],
)
def test_beta_functionals_refuses_another_scenario(questions, message):
    s = canonical_chsh()
    alice = (s.alice * 2)[:questions[0]]
    s = Strategy(state=s.state, dims=s.dims, alice=alice, bob=(s.bob * 2)[:questions[1]])
    with pytest.raises(DimensionMismatch, match=message):
        beta_functionals(s)


def test_beta_functionals_deterministic_strategy():
    one = np.eye(2, dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    fam = [one, zero]
    s = Strategy(
        state=bell_state(), dims=(2, 2),
        alice=[fam, fam], bob=[fam, fam, [one, zero, zero]],
    )
    betas = beta_functionals(s)
    # all observables are the identity: beta0 = 1+1+1-1 = 2
    assert betas.beta0 == pytest.approx(2.0, abs=1e-12)
    assert abs(betas.beta0) <= 2 + 1e-12


def test_beta_functionals_uniform_third_question():
    s = canonical_chsh()
    uniform = [np.eye(2, dtype=complex) / 3] * 3
    t = Strategy(state=s.state, dims=(2, 2), alice=s.alice, bob=list(s.bob) + [uniform])
    betas = beta_functionals(t)
    assert betas.beta1 == pytest.approx(0.0, abs=1e-12)
    assert betas.beta0 == pytest.approx(2 * SQRT2, abs=1e-12)


def operator_beta_functionals(s):
    """Reference: each correlator as <psi|(A (x) B)|psi>, or tr((A (x) B) rho)."""

    def expect(op_a, op_b):
        op = np.kron(op_a, op_b)
        val = np.vdot(s.state, op @ s.state) if s.is_pure else np.trace(op @ s.state)
        return float(np.real(val))

    a0, a1 = (fam[0] - fam[1] for fam in s.alice)
    b0, b1 = (fam[0] - fam[1] for fam in s.bob[:2])
    f0, f1, f2 = s.bob[2]
    r3 = np.sqrt(3.0)
    beta0 = expect(a0, b0) + expect(a0, b1) + expect(a1, b0) - expect(a1, b1)
    beta1 = (
        expect(a0, f0)
        - 0.5 * expect(a0, f1)
        + (r3 / 2.0) * expect(a1, f1)
        - 0.5 * expect(a0, f2)
        - (r3 / 2.0) * expect(a1, f2)
    )
    return beta0, beta1


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
@pytest.mark.parametrize("d_a,d_b", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_beta_functionals_match_operator_formula(d_a, d_b, mixed):
    rng = np.random.default_rng(10 * d_a + d_b + 100 * mixed)
    for _ in range(20):
        if mixed:
            state = random_density(rng, d_a * d_b, rank=int(rng.integers(1, d_a * d_b + 1)))
        else:
            state = random_bipartite_state(rng, d_a, d_b, rank=int(rng.integers(1, 3)))
        s = Strategy(
            state=state,
            dims=(d_a, d_b),
            alice=[random_povm(rng, d_a, 2) for _ in range(2)],
            bob=[random_povm(rng, d_b, 2), random_povm(rng, d_b, 2), random_povm(rng, d_b, 3)],
        )
        betas = beta_functionals(s)
        beta0, beta1 = operator_beta_functionals(s)
        assert abs(betas.beta0 - beta0) <= 1e-14
        assert abs(betas.beta1 - beta1) <= 1e-14


def test_trine_strategy_metrics():
    s = trine_strategy()
    assert projective_eps(s) == pytest.approx(1 / 3, abs=1e-12)
    assert support_preserving_eps(s) <= 1e-12


def test_tsirelson_sanity_sweep():
    from helpers import random_bipartite_state

    bound = 2 * SQRT2 + 1e-9
    for k in range(500):
        d_a = int(RNG.integers(2, 4))
        d_b = int(RNG.integers(2, 4))
        s = Strategy(
            state=random_bipartite_state(RNG, d_a, d_b),
            dims=(d_a, d_b),
            alice=[random_povm(RNG, d_a, 2) for _ in range(2)],
            bob=[random_povm(RNG, d_b, 2) for _ in range(2)]
            + [random_povm(RNG, d_b, 3)],
        )
        assert beta_functionals(s).beta0 <= bound


def test_eigengap_chsh_report():
    g = chsh_game()
    s = canonical_chsh()
    w = game_operator(g, s)
    report = eigengap_analysis(w, s.state, s.state, delta_eff=0.0)
    assert report.lambda0 == pytest.approx((2 + SQRT2) / 4, abs=1e-12)
    assert report.lambda1 == pytest.approx(0.5, abs=1e-12)
    assert report.gap == pytest.approx(SQRT2 / 4, abs=1e-12)
    assert report.top_multiplicity == 1
    assert report.p0 == pytest.approx(1.0, abs=1e-12)
    assert report.state_bound <= 1e-6


def test_eigengap_two_level_saturation():
    g = chsh_game()
    s = canonical_chsh()
    w = game_operator(g, s)
    spec = linalg.hermitian_eig(w)
    psi0 = spec.eigenvectors[:, 0]
    perp = spec.eigenvectors[:, 1]  # eigenvector at lambda1
    gap = float(spec.eigenvalues[0] - spec.eigenvalues[1])
    for theta in (0.05, 0.2, 0.7):
        cand = np.cos(theta) * psi0 + np.sin(theta) * perp
        delta_eff = gap * np.sin(theta) ** 2
        report = eigengap_analysis(w, s.state, cand, delta_eff=delta_eff)
        assert report.p0 == pytest.approx(np.cos(theta) ** 2, abs=1e-12)
        # the bound is saturated for this two-level family
        assert report.p0 == pytest.approx(1 - delta_eff / report.gap, abs=1e-12)


def test_eigengap_extended_candidate():
    g = chsh_game()
    s = canonical_chsh()
    w = game_operator(g, s)
    aux = np.array([0.6, 0.8j], dtype=complex)
    cand = np.kron(s.state, aux)
    report = eigengap_analysis(w, s.state, cand, delta_eff=0.0)
    assert report.p0 == pytest.approx(1.0, abs=1e-12)
    assert report.state_bound <= 1e-6


def test_eigengap_rejects_degenerate_top():
    with pytest.raises(DegenerateTopEigenvalue):
        eigengap_analysis(np.eye(4), bell_state(), bell_state(), delta_eff=0.0)


def test_perturbation_bound_sweep():
    g = chsh_game()
    s = canonical_chsh()
    w = game_operator(g, s)
    lam0 = CHSH_QUANTUM_VALUE
    gap = SQRT2 / 4
    rng = np.random.default_rng(13)
    for k in range(200):
        magnitude = float(rng.uniform(0.0, 0.4))
        cand = perturb_state(s.state, magnitude, rng)
        delta = lam0 - float(np.real(np.vdot(cand, w @ cand)))
        report = eigengap_analysis(w, s.state, cand, delta_eff=max(delta, 0.0))
        assert report.state_bound <= np.sqrt(2 * max(delta, 0.0) / gap) + 1e-9


def test_rank_deficient_combination_bell_pair():
    phi = np.array([1, 0, 0, 1], dtype=complex)  # |00> + |11>
    psi = np.array([1, 0, 0, -1], dtype=complex)  # |00> - |11>
    x0, state, rank = rank_deficient_combination(phi, psi, 2)
    assert rank == 1
    assert abs(abs(x0) - 1.0) <= 1e-10


def test_rank_deficient_combination_already_singular():
    phi = np.array([1, 0, 0, 0], dtype=complex)  # |00>, rank 1
    psi = np.array([0, 1, 1, 0], dtype=complex)
    x0, state, rank = rank_deficient_combination(phi, psi, 2)
    assert x0 == 0
    assert rank == 1


def test_rank_deficient_combination_random_sweep():
    for d in (2, 3, 4):
        for k in range(100):
            phi = RNG.normal(size=d * d) + 1j * RNG.normal(size=d * d)
            psi = RNG.normal(size=d * d) + 1j * RNG.normal(size=d * d)
            x0, state, rank = rank_deficient_combination(phi, psi, d)
            assert rank < d
            # cross-check with the singular values of the state matrix
            sing = np.linalg.svd(state.reshape(d, d), compute_uv=False)
            assert sing[-1] <= 1e-8 * sing[0]


@pytest.mark.parametrize("d", [2, 3])
def test_rank_deficient_combination_with_a_product_psi(d):
    # M_psi = a b^T has rank 1, so det(M_phi + x a b^T) = det(M_phi)(1 + x b^T M_phi^-1 a)
    # (the matrix determinant lemma) has the one root x0 = -1 / (b^T M_phi^-1 a)
    rng = np.random.default_rng(40 + d)
    a, b = (rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(2))
    phi = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    x0, state, rank = rank_deficient_combination(phi, np.kron(a, b), d)
    want = -1.0 / (b @ np.linalg.solve(phi.reshape(d, d), a))
    assert abs(x0 - want) <= 1e-10 * abs(want)
    assert rank == d - 1
    vec = phi + want * np.kron(a, b)
    assert np.allclose(state, vec / np.linalg.norm(vec))


def test_rank_deficient_combination_with_no_finite_root():
    # det(1 + x N) = 1 for nilpotent N: no x works, and psi alone is returned
    phi = np.array([1, 0, 0, 1], dtype=complex)
    psi = np.array([0, 1, 0, 0], dtype=complex)
    x0, state, rank = rank_deficient_combination(phi, psi, 2)
    assert x0 == complex(np.inf)
    assert np.array_equal(state, psi) and rank == 1


def test_effective_measurement_trivial_embedding():
    m = trine_povm()
    g = effective_measurement(m, np.eye(2, dtype=complex), (2, 1), np.ones((1, 1)))
    for got, want in zip(g, m):
        assert np.max(np.abs(got - want)) <= 1e-14


def test_effective_measurement_refuses_an_element_off_the_isometry_domain():
    with pytest.raises(DimensionMismatch, match=r"has shape \(3, 3\), expected \(2, 2\)"):
        effective_measurement([np.eye(3)], np.eye(2), (2, 1), np.ones((1, 1)))


@pytest.mark.parametrize("u", [np.ones(2), np.ones((2, 1, 1)), np.array(1.0)])
def test_effective_measurement_refuses_an_isometry_that_is_not_a_matrix(u):
    with pytest.raises(DimensionMismatch, match="isometry must be a matrix"):
        effective_measurement([np.eye(2)], u, (2, 1), np.ones((1, 1)))


def test_effective_measurement_uniform_elements():
    sigma = np.array([[0.5, 0], [0, 0.5]], dtype=complex)
    u = np.eye(4, dtype=complex)  # C^4 = C^2 (x) C^2
    elements = [np.eye(4, dtype=complex) / 3] * 3
    g = effective_measurement(elements, u, (2, 2), sigma)
    for got in g:
        assert np.max(np.abs(got - np.eye(2) * np.real(np.trace(sigma)) / 3)) <= 1e-12


def test_effective_measurement_minimal_dilation_recovers_trine():
    from selftest_lab.dilation import DilationWitness, scalar_aux

    s = trine_strategy()
    s1, _ = minimal_dilation_strategies()
    dil = minimal_trine_dilation()
    w_min = DilationWitness(
        u_a=np.eye(2, dtype=complex), u_b=dil.isometry,
        dims_a=(2, 1), dims_b=(3, 1), aux=scalar_aux(),
    )
    back = reverse_witness(s, s1, w_min)
    sigma = linalg.partial_trace(
        np.outer(back.aux, back.aux.conj()), (back.dims_a[1], back.dims_b[1]), "B"
    )
    g = effective_measurement(s1.bob[2], back.u_b, back.dims_b, sigma)
    for got, want in zip(g, trine_povm()):
        assert np.max(np.abs(got - want)) <= 1e-12


def test_effective_measurement_general_naimark_recovers_trine():
    s = trine_strategy()
    dilated, _, _ = naimark_strategy(s)
    w = naimark_embedding(s)
    back = reverse_witness(s, dilated, w)
    sigma = linalg.partial_trace(
        np.outer(back.aux, back.aux.conj()), (back.dims_a[1], back.dims_b[1]), "B"
    )
    g = effective_measurement(dilated.bob[2], back.u_b, back.dims_b, sigma)
    for got, want in zip(g, trine_povm()):
        assert np.max(np.abs(got - want)) <= 1e-10


def test_higher_order_moment_reduces_to_correlation():
    s = trine_strategy()
    p = correlation_of(s).table
    val = higher_order_moment(s, [(0, 0)], [(2, 1)])
    assert val.real == pytest.approx(p[0, 2, 0, 1], abs=1e-12)
    assert abs(val.imag) <= 1e-12


def _same_families(fams, others) -> bool:
    return len(fams) == len(others) and all(
        len(f) == len(g) and all(map(np.array_equal, f, g)) for f, g in zip(fams, others)
    )


def test_higher_order_moment_separating_values():
    s1, s2 = minimal_dilation_strategies()
    assert validate_strategy(s1).valid and validate_strategy(s2).valid
    assert np.max(np.abs(correlation_of(s1).table - correlation_of(s2).table)) <= 1e-12
    # one builder: s1's Bob families are the minimal dilation's, and s2 moves the
    # off-range defect 1 - V V* to outcome 0 of question 1, bit for bit
    dil = minimal_trine_dilation()
    assert _same_families(s1.bob, dil.pvms)
    assert np.array_equal(s2.state, s1.state) and _same_families(s2.alice, s1.alice)
    assert _same_families(s2.bob[::2], s1.bob[::2])
    defect = np.eye(3) - dil.isometry @ dil.isometry.conj().T
    assert np.array_equal(s2.bob[1][0] - s1.bob[1][0], defect)
    assert np.array_equal(s1.bob[1][1] - s2.bob[1][1], defect)
    word = [(2, 0), (1, 1), (2, 0)]
    m1 = higher_order_moment(s1, [], word)
    m2 = higher_order_moment(s2, [], word)
    assert m1.real == pytest.approx((4 - SQRT2) / 18, abs=1e-12)
    assert m2.real == pytest.approx((2 - SQRT2) / 18, abs=1e-12)
    assert (m1 - m2).real == pytest.approx(1 / 9, abs=1e-12)



@pytest.mark.parametrize("swap", [False, True], ids=["s1 to s2", "s2 to s1"])
def test_the_state_level_forms_relate_the_paper_pair_and_a_moment_separates_it(swap):
    # the pair differs only where the state never reaches (1 - V V*), so the identity
    # witness certifies it in the vector and matrix forms; the extraction form needs
    # full Schmidt rank, and an operator product leaves the state's support
    src, dst = minimal_dilation_strategies()[::-1 if swap else 1]
    w = dilation._trivial_ancilla_witness(np.eye(2), np.eye(3))
    assert dilation.check(src, dst, w, "vector").eps == 0.0
    assert dilation.check(src, dst, w, "matrix").eps <= 1e-15
    with pytest.raises(FullRankRequired):
        dilation.check(src, dst, w, "extraction")
    word = [(2, 0), (1, 1), (2, 0)]
    gap = higher_order_moment(src, [], word) - higher_order_moment(dst, [], word)
    assert abs(abs(gap) - 1 / 9) <= 1e-15


def test_separating_bob_word_is_found_by_enumeration():
    # every Bob word of length 1 to 3 over the 7 letters: the two dilations agree
    # on all words of length 1 and 2 and first differ at length 3
    s1, s2 = minimal_dilation_strategies()
    letters = [(q, a) for q, fam in enumerate(s1.bob) for a in range(len(fam))]
    assert len(letters) == 7
    separating = {}
    for n in (1, 2, 3):
        words = list(itertools.product(letters, repeat=n))
        separating[n] = [
            w for w in words
            if abs(higher_order_moment(s1, [], w) - higher_order_moment(s2, [], w)) > 1e-9
        ]
        assert len(words) == 7**n
    assert [len(separating[n]) for n in (1, 2, 3)] == [0, 0, 18]
    assert ((2, 0), (1, 1), (2, 0)) in separating[3]

def _mixed_moment_case(seed, d_a=2, d_b=3, rank=3):
    """A strategy with a random rank-``rank`` density operator, and one word per side."""
    rng = np.random.default_rng(seed)
    rho = random_density(rng, d_a * d_b, rank=rank)
    s = Strategy(state=rho, dims=(d_a, d_b),
                 alice=[random_povm(rng, d_a, 2), random_povm(rng, d_a, 3)],
                 bob=[random_povm(rng, d_b, 2), random_povm(rng, d_b, 3)])
    return s, [(1, 2), (0, 0), (1, 0)], [(0, 1), (1, 2)]


@pytest.mark.parametrize("seed", range(5))
def test_higher_order_moment_of_a_mixed_state_matches_the_dense_trace(seed):
    s, word_a, word_b = _mixed_moment_case(seed)
    op_a = s.alice[1][2] @ s.alice[0][0] @ s.alice[1][0]
    op_b = s.bob[0][1] @ s.bob[1][2]
    want = np.trace(np.kron(op_a, op_b) @ s.state)
    assert abs(higher_order_moment(s, word_a, word_b) - want) <= 1e-14


@pytest.mark.parametrize("seed", range(5))
def test_higher_order_moment_of_a_mixed_state_matches_its_purification(seed):
    # the purifier is appended to Bob, whose operators act as F (x) 1_P
    s, word_a, word_b = _mixed_moment_case(seed)
    psi = purify(s.state)
    d_p = psi.size // s.state.shape[0]
    pure = Strategy(state=psi, dims=(s.dims[0], s.dims[1] * d_p), alice=s.alice,
                    bob=[[np.kron(f, np.eye(d_p)) for f in fam] for fam in s.bob])
    got = higher_order_moment(s, word_a, word_b)
    assert abs(got - higher_order_moment(pure, word_a, word_b)) <= 1e-14


def test_higher_order_moment_range_check():
    with pytest.raises(LabError):
        higher_order_moment(canonical_chsh(), [(5, 0)], [])


def test_robustness_constant_chsh():
    g = chsh_game()
    # sum_st pi * sum_ab V = 2 (two winning pairs per question pair), answers 2
    assert robustness_constant(g) == pytest.approx(2 * 2 * 2, abs=1e-12)


def test_minimal_trine_vectors():
    e = trine_projector_vectors()
    gram = np.array([[np.vdot(a, b) for b in e] for a in e])
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-12
    v = minimal_trine_dilation().isometry
    m = trine_povm()
    for vec, target in zip(e, m):
        proj = np.outer(vec, vec.conj())
        assert np.max(np.abs(v.conj().T @ proj @ v - target)) <= 1e-12


def test_minimal_trine_dilation_families():
    dil = minimal_trine_dilation()
    check = verify_dilation(trine_strategy().bob, dil, tol=1e-12)
    assert check.passed
    fam_m = dil.pvms[2]
    assert np.max(np.abs(sum(fam_m) - np.eye(3))) <= 1e-12
    fam_h = dil.pvms[0]
    assert np.max(np.abs(fam_h[0] + fam_h[1] - np.eye(3))) <= 1e-12
    assert linalg.projector_defect(fam_h[0]) <= 1e-12


def test_minimal_dilations_related_by_unitary():
    # Two independent minimal dilations of the trine are unitarily equivalent:
    # compress the square-root construction to its minimal subspace and find
    # the explicit unitary onto the rank-1-vector construction.
    m = trine_povm()
    generic = naimark_family([m])
    v6 = generic.isometry
    # each block span{P_j V phi} is one-dimensional (rank-1 effects), spanned
    # by u_j (x) e_j with u_j the range direction of sqrt(M_j)
    basis = []
    for j, p in enumerate(generic.pvms[0]):
        block = p @ v6  # 6 x 2, rank 1
        u_svd, sing, _ = np.linalg.svd(block)
        assert sing[1] <= 1e-12
        basis.append(u_svd[:, 0])
    w = np.column_stack(basis)  # isometry C^3 -> C^6 onto the minimal subspace
    v_min = w.conj().T @ v6
    p_min = [w.conj().T @ p @ w for p in generic.pvms[0]]
    # (p_min, v_min) is itself a minimal dilation of the trine
    for r, p in zip(m, p_min):
        assert np.max(np.abs(v_min.conj().T @ p @ v_min - r)) <= 1e-12
        assert linalg.projector_defect(p) <= 1e-12

    dil = minimal_trine_dilation()
    e_vecs = trine_projector_vectors()
    v3 = dil.isometry
    # the relating unitary maps the j-th minimal basis vector to e_j with the
    # phase aligning the two isometries
    cols = []
    for j, e in enumerate(e_vecs):
        overlap = np.vdot(v_min[j, :], v3.conj().T @ e)
        phase = overlap / abs(overlap)
        cols.append(phase * e)
    u = np.column_stack(cols)
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) <= 1e-12
    assert np.max(np.abs(u @ v_min - v3)) <= 1e-12
    rng = np.random.default_rng(7)
    for _ in range(5):
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        phi /= np.linalg.norm(phi)
        for p, m_proj in zip(p_min, dil.pvms[2]):
            lhs = u @ (p @ (v_min @ phi))
            rhs = m_proj @ (v3 @ phi)
            assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_residual_identity_minimal_trine():
    phi = canonical_chsh().state
    dil = minimal_trine_dilation()
    v = dil.isometry
    sigma_b = np.eye(2) / 2
    for fam, pfam in zip(trine_strategy().bob, dil.pvms):
        for r, p in zip(fam, pfam):
            lhs_vec = linalg.apply_factors(phi, (2, 2), (None, v @ r - p @ v))
            lhs = float(np.linalg.norm(lhs_vec)) ** 2
            rhs = float(np.real(np.trace((np.eye(2) - r) @ r @ sigma_b)))
            assert lhs == pytest.approx(rhs, abs=1e-12)


def _full_rank_phi():
    return np.array([1.0, 0.5j, -0.25, 2.0])


@pytest.mark.parametrize(
    "phi, psi",
    [
        (np.zeros(4), _full_rank_phi()),
        (_full_rank_phi(), np.zeros(4)),
        (_full_rank_phi(), 2 * _full_rank_phi()),  # the root gives phi + x0 psi = 0
    ],
    ids=["zero phi", "zero psi", "psi a multiple of phi"],
)
def test_rank_deficient_combination_refuses_a_vanishing_combination(phi, psi):
    with pytest.raises(InvalidState, match="vanishes"):
        rank_deficient_combination(phi, psi, 2)


def test_rank_deficient_combination_refuses_vectors_off_the_square():
    with pytest.raises(DimensionMismatch, match=r"vectors must live on C\^2 \(x\) C\^2"):
        rank_deficient_combination(np.ones(3), np.ones(4), 2)


def test_eigengap_analysis_refuses_a_canonical_state_off_the_top_eigenspace():
    w = game_operator(chsh_game(), canonical_chsh())
    with pytest.raises(InvalidState, match="does not span the top eigenspace"):
        eigengap_analysis(w, np.eye(4)[0], bell_state(), delta_eff=0.0)


def test_eigengap_analysis_refuses_a_candidate_that_does_not_factor():
    s = canonical_chsh()
    w = game_operator(chsh_game(), s)
    with pytest.raises(DimensionMismatch, match="candidate does not factor"):
        eigengap_analysis(w, s.state, np.ones(5), delta_eff=0.0)


def test_effective_measurement_refuses_a_codomain_off_the_dims():
    with pytest.raises(DimensionMismatch, match="isometry codomain does not match dims"):
        effective_measurement([np.eye(2)], np.ones((4, 2)), (3, 2), np.eye(2) / 2)


def test_effective_measurement_refuses_sigma_off_the_ancilla():
    with pytest.raises(DimensionMismatch, match="sigma must act on the ancilla factor"):
        effective_measurement([np.eye(2)], np.ones((6, 2)), (3, 2), np.eye(3) / 3)
