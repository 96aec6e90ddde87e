"""End-to-end acceptance checks at pinned tolerances.

Each test prints one ``[acceptance] <name>: PASS/FAIL`` line (visible with
``pytest -s``) and enforces its stated runtime budget.
"""

import time

import numpy as np
import pytest

from selftest_lab import linalg
from selftest_lab.dilation import (
    dilation_residuals,
    extraction_witness_from_vector,
    matrix_aux_from_vector,
    matrix_form_residual,
    naimark_embedding,
    restriction_embedding,
    reverse_witness,
    vector_witness_from_extraction,
    vector_witness_from_matrix_form,
)
from selftest_lab.games import (
    Strategy,
    attach_product_ancilla,
    conjugate_strategy,
    correlation_of,
    game_operator,
    win_probability,
)
from selftest_lab.lab import (
    beta_functionals,
    canonical_chsh,
    chsh_game,
    eigengap_analysis,
    higher_order_moment,
    minimal_dilation_strategies,
    perturb_state,
    rank_deficient_combination,
    trine_strategy,
)
from selftest_lab.metrics import projective_eps, strategy_metrics, support_preserving_eps
from selftest_lab.naimark import naimark_family, naimark_strategy, verify_dilation
from selftest_lab.schmidt import local_supports, restrict, schmidt_decompose

from helpers import (
    haar_unitary,
    random_bipartite_state,
    random_povm,
    random_pure_state,
)

SQRT2 = np.sqrt(2.0)


class Budget:
    """Assert a wall-clock budget and emit the pass/fail line."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        ok = exc_type is None and elapsed < self.seconds
        print(f"[acceptance] {self.name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
        if exc_type is None and elapsed >= self.seconds:
            raise AssertionError(
                f"{self.name} exceeded its {self.seconds}s budget ({elapsed:.2f}s)"
            )
        return False


def random_mixed_rank_strategy(rng, d_max=3, questions=2, outcomes_max=3):
    d_a = int(rng.integers(2, d_max + 1))
    d_b = int(rng.integers(2, d_max + 1))
    rank = int(rng.integers(1, min(d_a, d_b) + 1))
    return Strategy(
        state=random_bipartite_state(rng, d_a, d_b, rank=rank),
        dims=(d_a, d_b),
        alice=[random_povm(rng, d_a, int(rng.integers(2, outcomes_max + 1)))
               for _ in range(questions)],
        bob=[random_povm(rng, d_b, int(rng.integers(2, outcomes_max + 1)))
             for _ in range(questions)],
    )


def test_criterion_01_chsh_value():
    with Budget("1 chsh-value", 1.0):
        s = canonical_chsh()
        omega = win_probability(chsh_game(), s)
        assert omega == pytest.approx((2 + SQRT2) / 4, abs=1e-12)
        betas = beta_functionals(trine_strategy())
        assert betas.beta0 == pytest.approx(2 * SQRT2, abs=1e-12)


def test_criterion_02_trine_functionals():
    with Budget("2 trine-functionals", 1.0):
        betas = beta_functionals(trine_strategy())
        assert betas.beta0 == pytest.approx(2 * SQRT2, abs=1e-12)
        assert betas.beta1 == pytest.approx(1.0, abs=1e-12)


def test_criterion_03_moment_separation():
    with Budget("3 moment-separation", 1.0):
        s1, s2 = minimal_dilation_strategies()
        word = [(2, 0), (1, 1), (2, 0)]
        m1 = higher_order_moment(s1, [], word)
        m2 = higher_order_moment(s2, [], word)
        assert m1.real == pytest.approx((4 - SQRT2) / 18, abs=1e-12)
        assert m2.real == pytest.approx((2 - SQRT2) / 18, abs=1e-12)
        assert (m1 - m2).real == pytest.approx(1 / 9, abs=1e-12)


def test_criterion_04_naimark_correctness():
    with Budget("4 naimark-correctness", 30.0):
        rng = np.random.default_rng(1040)
        for k in range(100):
            d = int(rng.integers(2, 5))
            n_q = int(rng.integers(1, 4))
            fams = [random_povm(rng, d, int(rng.integers(2, 5))) for _ in range(n_q)]
            dil = naimark_family(fams)
            assert verify_dilation(fams, dil, tol=1e-10).passed
            # correlation preservation on a strategy carrying these families
            d_b = int(rng.integers(2, 4))
            s = Strategy(
                state=random_bipartite_state(rng, d, d_b),
                dims=(d, d_b),
                alice=fams,
                bob=[random_povm(rng, d_b, 2)],
            )
            dilated, _, _ = naimark_strategy(s)
            p0 = correlation_of(s).table
            p1 = correlation_of(dilated).table
            assert np.max(np.abs(p0 - p1)) <= 1e-12


def test_criterion_05_exact_identities():
    with Budget("5 exact-identities", 60.0):
        rng = np.random.default_rng(1050)
        for k in range(100):
            s = random_mixed_rank_strategy(rng)
            d_a, d_b = s.dims
            m = strategy_metrics(s)
            # restriction identity per element
            restricted, _, _ = restrict(s)
            m_res = strategy_metrics(restricted)
            for q in range(len(s.alice)):
                for a in range(len(s.alice[q])):
                    lhs = m_res.alice_overlaps[q][a] - m.alice_commutator_norms[q][a] ** 2
                    assert abs(lhs - m.alice_overlaps[q][a]) <= 1e-10
            for q in range(len(s.bob)):
                for b in range(len(s.bob[q])):
                    lhs = m_res.bob_overlaps[q][b] - m.bob_commutator_norms[q][b] ** 2
                    assert abs(lhs - m.bob_overlaps[q][b]) <= 1e-10
            # dilated-support identity and the dilation residual identity,
            # checked on both players' families
            sd = schmidt_decompose(s.state, s.dims)
            pi_a, pi_b = local_supports(sd)
            for side, families, pi in (("A", s.alice, pi_a), ("B", s.bob, pi_b)):
                sigma = linalg.partial_trace(s.density(), s.dims, side)
                overlaps = m.alice_overlaps if side == "A" else m.bob_overlaps
                norms = (
                    m.alice_commutator_norms if side == "A" else m.bob_commutator_norms
                )
                dil = naimark_family(families)
                v = dil.isometry
                pi_big = v @ pi @ v.conj().T
                sigma_big = v @ sigma @ v.conj().T
                for q in range(len(families)):
                    for a, p in enumerate(dil.pvms[q]):
                        comm = pi_big @ p - p @ pi_big
                        lhs = float(np.real(np.trace(comm.conj().T @ comm @ sigma_big)))
                        assert abs(lhs - overlaps[q][a] - norms[q][a] ** 2) <= 1e-10
                        r = families[q][a]
                        ops = (v @ r - p @ v, None) if side == "A" else (None, v @ r - p @ v)
                        resid = linalg.apply_factors(s.state, s.dims, ops)
                        lhs2 = float(np.linalg.norm(resid)) ** 2
                        assert abs(lhs2 - overlaps[q][a]) <= 1e-10


def test_criterion_06_invariance_suite():
    with Budget("6 invariance", 30.0):
        rng = np.random.default_rng(1060)
        for k in range(100):
            s = random_mixed_rank_strategy(rng)
            sup0 = support_preserving_eps(s)
            proj0 = projective_eps(s)
            k_a = int(rng.integers(2, 4))
            k_b = int(rng.integers(2, 4))
            transformed = attach_product_ancilla(
                s, random_pure_state(rng, k_a), random_pure_state(rng, k_b)
            )
            transformed = conjugate_strategy(
                transformed,
                haar_unitary(rng, s.dims[0] * k_a),
                haar_unitary(rng, s.dims[1] * k_b),
            )
            assert abs(support_preserving_eps(transformed) - sup0) <= 1e-10
            assert abs(projective_eps(transformed) - proj0) <= 1e-10


def test_criterion_07_dilation_witnesses():
    with Budget("7 dilation-witnesses", 60.0):
        rng = np.random.default_rng(1070)
        for k in range(100):
            s = random_mixed_rank_strategy(rng, d_max=3, outcomes_max=3)
            restricted, _, _ = restrict(s)
            w_res = restriction_embedding(s)
            eps_res = dilation_residuals(restricted, s, w_res).eps
            assert eps_res <= support_preserving_eps(s) + 1e-10
            dilated, _, _ = naimark_strategy(s)
            w_nai = naimark_embedding(s)
            eps_nai = dilation_residuals(s, dilated, w_nai).eps
            assert eps_nai <= projective_eps(s) + 1e-10
            # product-ancilla reversal reproduces the forward epsilon
            back = reverse_witness(s, dilated, w_nai)
            eps_back = dilation_residuals(dilated, s, back).eps
            assert abs(eps_back - eps_nai) <= 1e-10


def test_criterion_08_robustness_bound():
    with Budget("8 robustness-bound", 30.0):
        g = chsh_game()
        s = canonical_chsh()
        w = game_operator(g, s)
        report = eigengap_analysis(w, s.state, s.state, delta_eff=0.0)
        assert report.gap == pytest.approx(SQRT2 / 4, abs=1e-12)
        assert report.top_multiplicity == 1
        rng = np.random.default_rng(1080)
        for k in range(200):
            magnitude = float(rng.uniform(0.0, 0.5))
            cand = perturb_state(s.state, magnitude, rng)
            delta = report.lambda0 - float(np.real(np.vdot(cand, w @ cand)))
            delta = max(delta, 0.0)
            out = eigengap_analysis(w, s.state, cand, delta_eff=delta)
            # out.state_bound is the exact distance || cand - psi (x) aux ||
            assert out.state_bound <= np.sqrt(2 * delta / report.gap) + 1e-9


def test_criterion_09_rank_deficient_pencil():
    with Budget("9 rank-deficient-pencil", 10.0):
        rng = np.random.default_rng(1090)
        for d in (2, 3, 4):
            for k in range(100):
                phi = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
                psi = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
                _, state, rank = rank_deficient_combination(phi, psi, d)
                assert rank < d


def test_criterion_10_definition_equivalence():
    with Budget("10 definition-equivalence", 10.0):
        rng = np.random.default_rng(1100)
        for k in range(20):
            d_t = int(rng.integers(2, 4))
            dst = Strategy(
                state=random_bipartite_state(rng, d_t, d_t),
                dims=(d_t, d_t),
                alice=[random_povm(rng, d_t, 2) for _ in range(2)],
                bob=[random_povm(rng, d_t, 2) for _ in range(2)],
            )
            # equal hat dimensions with a generically full-rank aux keep the
            # source full-rank, the scope of the extraction form
            k_a = k_b = int(rng.integers(2, 4))
            aux = random_pure_state(rng, k_a * k_b)
            big = linalg.permute_systems(
                np.kron(dst.state, aux), (d_t, d_t, k_a, k_b), (0, 2, 1, 3)
            )
            alice = [[np.kron(e, np.eye(k_a)) for e in fam] for fam in dst.alice]
            bob = [[np.kron(e, np.eye(k_b)) for e in fam] for fam in dst.bob]
            src0 = Strategy(
                state=big, dims=(d_t * k_a, d_t * k_b), alice=alice, bob=bob
            )
            r_a = haar_unitary(rng, d_t * k_a)
            r_b = haar_unitary(rng, d_t * k_b)
            src = conjugate_strategy(src0, r_a, r_b)
            from selftest_lab.dilation import DilationWitness

            w = DilationWitness(
                u_a=r_a.conj().T, u_b=r_b.conj().T,
                dims_a=(d_t, k_a), dims_b=(d_t, k_b), aux=aux,
            )
            # vector -> matrix
            sigma = matrix_aux_from_vector(w)
            assert matrix_form_residual(
                src, dst, w.u_a, w.u_b, w.dims_a, w.dims_b, sigma
            ) <= 1e-10
            # matrix -> vector
            w_back = vector_witness_from_matrix_form(
                src, dst, w.u_a, w.u_b, w.dims_a, w.dims_b
            )
            assert dilation_residuals(src, dst, w_back).eps <= 1e-10
            # vector -> extraction -> vector on full-rank pairs
            from selftest_lab.dilation import extraction_residual

            w_a, w_b = extraction_witness_from_vector(src, dst, w)
            assert extraction_residual(src, dst, w_a, w_b).eps <= 1e-10
            w_vec = vector_witness_from_extraction(src, dst, w_a, w_b)
            assert dilation_residuals(src, dst, w_vec).eps <= 1e-10
