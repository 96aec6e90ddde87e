import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selftest_lab import dilation, games, linalg
from selftest_lab.dilation import (
    DilationWitness,
    _complete_isometry,
    compose_witnesses,
    dilation_residuals,
    extraction_residual,
    extraction_witness_from_vector,
    matrix_aux_from_vector,
    matrix_form_residual,
    naimark_embedding,
    restriction_embedding,
    reverse_witness,
    scalar_aux,
    vector_witness_from_extraction,
    vector_witness_from_matrix_form,
)
from selftest_lab.errors import (
    DimensionMismatch,
    FullRankRequired,
    InvalidPovm,
    InvalidState,
    WitnessMismatch,
)
from selftest_lab.games import Strategy, attach_product_ancilla, conjugate_strategy
from selftest_lab.lab import canonical_chsh, trine_povm, trine_strategy
from selftest_lab.metrics import projective_eps, support_preserving_eps
from selftest_lab.naimark import naimark_strategy
from selftest_lab.schmidt import purify, restrict

from helpers import (
    haar_isometry,
    haar_unitary,
    overflowing_chsh,
    random_bipartite_state,
    random_density,
    random_povm,
    random_pure_state,
    random_strategy,
)

RNG = np.random.default_rng(606)


def identity_witness(s: Strategy) -> DilationWitness:
    return DilationWitness(
        u_a=np.eye(s.dims[0], dtype=complex),
        u_b=np.eye(s.dims[1], dtype=complex),
        dims_a=(s.dims[0], 1),
        dims_b=(s.dims[1], 1),
        aux=scalar_aux(),
    )


def exact_instance(dst, k_a, k_b, entangled_aux=False, seed=0):
    """Attach an ancilla to dst and rotate: an exactly dilatable source."""
    rng = np.random.default_rng(seed)
    if entangled_aux:
        aux = rng.normal(size=k_a * k_b) + 1j * rng.normal(size=k_a * k_b)
        aux /= np.linalg.norm(aux)
        big = linalg.permute_systems(
            np.kron(dst.state, aux), (dst.dims[0], dst.dims[1], k_a, k_b), (0, 2, 1, 3)
        )
        alice = [[np.kron(e, np.eye(k_a)) for e in fam] for fam in dst.alice]
        bob = [[np.kron(e, np.eye(k_b)) for e in fam] for fam in dst.bob]
        src0 = Strategy(
            state=big, dims=(dst.dims[0] * k_a, dst.dims[1] * k_b), alice=alice, bob=bob
        )
    else:
        aux_a = random_pure_state(rng, k_a)
        aux_b = random_pure_state(rng, k_b)
        src0 = attach_product_ancilla(dst, aux_a, aux_b)
        aux = np.kron(aux_a, aux_b)
    r_a = haar_unitary(rng, src0.dims[0])
    r_b = haar_unitary(rng, src0.dims[1])
    src = conjugate_strategy(src0, r_a, r_b)
    w = DilationWitness(
        u_a=r_a.conj().T,
        u_b=r_b.conj().T,
        dims_a=(dst.dims[0], k_a),
        dims_b=(dst.dims[1], k_b),
        aux=aux,
    )
    return src, w


def _with_junk(dst, junk, k_a, k_b):
    """``dst (x) junk`` with ``junk`` on ``C^k_a (x) C^k_b`` (a vector or a density
    operator), each side's junk factor after its ``dst`` factor."""
    d_a, d_b = dst.dims
    state = np.kron(dst.state, junk) if junk.ndim == 1 else np.kron(dst.density(), junk)
    return Strategy(
        state=linalg.permute_systems(state, (d_a, d_b, k_a, k_b), (0, 2, 1, 3)),
        dims=(d_a * k_a, d_b * k_b),
        alice=[[np.kron(e, np.eye(k_a)) for e in fam] for fam in dst.alice],
        bob=[[np.kron(e, np.eye(k_b)) for e in fam] for fam in dst.bob],
    )


def test_identity_witness_zero_residual():
    s = canonical_chsh()
    report = dilation_residuals(s, s, identity_witness(s))
    assert report.eps <= 1e-14
    assert report.rows[0] <= 1e-14


def test_witness_stores_read_only_arrays_apart_from_writable_inputs():
    u_a, u_b, aux = np.eye(2, dtype=complex), haar_unitary(RNG, 2), scalar_aux()
    w = DilationWitness(u_a=u_a, u_b=u_b, dims_a=(2, 1), dims_b=(2, 1), aux=aux)
    stored = (w.u_a.copy(), w.u_b.copy(), w.aux.copy())
    u_a[0, 0] = u_b[0, 0] = aux[0] = 7.0
    for arr, before in zip((w.u_a, w.u_b, w.aux), stored):
        assert not arr.flags.writeable
        assert np.array_equal(arr, before)
    # a witness's own arrays qualify for adoption, as a strategy's do
    again = DilationWitness(u_a=w.u_a, u_b=w.u_b, dims_a=w.dims_a, dims_b=w.dims_b, aux=w.aux)
    assert again.u_a is w.u_a and again.u_b is w.u_b and again.aux is w.aux


def test_residuals_without_questions_are_the_state_row():
    s = canonical_chsh()
    bare = Strategy(state=s.state, dims=s.dims, alice=[], bob=[])
    report = dilation_residuals(bare, bare, identity_witness(bare))
    state, alice, bob = report.rows
    assert alice == () and bob == ()
    assert report.eps == state <= 1e-14


def test_block_ancilla_witness_zero_residual():
    dst = canonical_chsh()
    aux_a = random_pure_state(RNG, 3)
    aux_b = random_pure_state(RNG, 2)
    src = attach_product_ancilla(dst, aux_a, aux_b)
    w = DilationWitness(
        u_a=np.eye(6, dtype=complex),
        u_b=np.eye(4, dtype=complex),
        dims_a=(2, 3),
        dims_b=(2, 2),
        aux=np.kron(aux_a, aux_b),
    )
    assert dilation_residuals(src, dst, w).eps <= 1e-12


def test_perturbed_state_residual_closed_form():
    theta = 0.01
    dst = canonical_chsh()
    perturbed = np.cos(theta) * dst.state
    e01 = np.zeros(4, dtype=complex)
    e01[1] = 1.0
    perturbed = perturbed + np.sin(theta) * e01
    src = Strategy(state=perturbed, dims=(2, 2), alice=dst.alice, bob=dst.bob)
    report = dilation_residuals(src, dst, identity_witness(dst))
    assert report.rows[0] == pytest.approx(2 * abs(np.sin(theta / 2)), abs=1e-12)


def test_exact_instances_have_zero_residual():
    for seed in range(5):
        dst = random_strategy(RNG, 2, 2, outcomes=2)
        src, w = exact_instance(dst, 2, 3, entangled_aux=bool(seed % 2), seed=seed)
        assert dilation_residuals(src, dst, w).eps <= 1e-12


def test_restriction_embedding_full_rank():
    s = canonical_chsh()
    w = restriction_embedding(s)
    restricted, _, _ = restrict(s)
    assert dilation_residuals(restricted, s, w).eps <= 1e-12


def test_restriction_embedding_block_ancilla():
    s = attach_product_ancilla(
        canonical_chsh(), linalg.basis_state(2, 0), linalg.basis_state(2, 0)
    )
    restricted, _, _ = restrict(s)
    assert dilation_residuals(restricted, s, restriction_embedding(s)).eps <= 1e-12


def test_restriction_embedding_controlled_leakage():
    # strategy with a known support defect of exactly 0.05
    target = 0.05
    coupling = target * 2 * np.sqrt(2)
    psi = np.zeros(9, dtype=complex)
    psi[0] = psi[4] = 1 / np.sqrt(2)
    x02 = np.zeros((3, 3), dtype=complex)
    x02[0, 2] = x02[2, 0] = 1.0
    e = (np.eye(3) + coupling * x02) / 2.0
    s = Strategy(
        state=psi, dims=(3, 3),
        alice=[[e, np.eye(3, dtype=complex) - e]],
        bob=[[np.eye(3, dtype=complex)]],
    )
    eps = support_preserving_eps(s)
    assert eps == pytest.approx(target, abs=1e-12)
    restricted, _, _ = restrict(s)
    report = dilation_residuals(restricted, s, restriction_embedding(s))
    assert report.eps <= eps + 1e-10


def test_restriction_embedding_bound_random():
    for _ in range(10):
        d_a, d_b = (int(x) for x in RNG.integers(2, 5, size=2))
        rank = int(RNG.integers(1, min(d_a, d_b) + 1))
        s = Strategy(
            state=random_bipartite_state(RNG, d_a, d_b, rank=rank),
            dims=(d_a, d_b),
            alice=[random_povm(RNG, d_a, 2) for _ in range(2)],
            bob=[random_povm(RNG, d_b, 2) for _ in range(2)],
        )
        restricted, _, _ = restrict(s)
        report = dilation_residuals(restricted, s, restriction_embedding(s))
        assert report.eps <= support_preserving_eps(s) + 1e-10


def test_restriction_embedding_isometries_equal_restrict():
    for rank in (1, 2, 3):
        s = Strategy(
            state=random_bipartite_state(RNG, 3, 4, rank=rank),
            dims=(3, 4),
            alice=[random_povm(RNG, 3, 2)],
            bob=[random_povm(RNG, 4, 3)],
        )
        _, u_a, u_b = restrict(s)
        w = restriction_embedding(s)
        assert np.array_equal(w.u_a, u_a)
        assert np.array_equal(w.u_b, u_b)


def test_naimark_embedding_projective():
    s = canonical_chsh()
    dilated, _, _ = naimark_strategy(s)
    assert dilation_residuals(s, dilated, naimark_embedding(s)).eps <= 1e-12


def test_naimark_embedding_trine_value():
    s = trine_strategy()
    dilated, _, _ = naimark_strategy(s)
    report = dilation_residuals(s, dilated, naimark_embedding(s))
    assert report.eps == pytest.approx(1 / 3, abs=1e-10)
    # the residual concentrates on the trine question
    bob = report.rows[2]
    assert max(max(row) for row in bob[:2]) <= 1e-10
    assert np.allclose(bob[2], [1 / 3] * 3, atol=1e-10)


def test_naimark_embedding_trivial_povm():
    psi = random_bipartite_state(RNG, 2, 3)
    s = Strategy(state=psi, dims=(2, 3),
                 alice=[[np.eye(2, dtype=complex)]], bob=[[np.eye(3, dtype=complex)]])
    dilated, _, _ = naimark_strategy(s)
    assert dilation_residuals(s, dilated, naimark_embedding(s)).eps <= 1e-12


def _near_chsh(tol):
    """CHSH with Bob's family 0 set to ``(E0 + i eps X, E1 - i eps X)``, eps = 1e-7:
    valid at 1e-6 and not at 1e-9, gated at ``tol`` when ``tol`` is given."""
    c = canonical_chsh()
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    e0, e1 = c.bob[0]
    s = Strategy(state=c.state, dims=c.dims, alice=c.alice,
                 bob=[[e0 + 1e-7j * x, e1 - 1e-7j * x], *c.bob[1:]])
    assert tol is None or games._is_valid(s, tol)
    return s


def test_naimark_embedding_does_not_depend_on_the_call_order():
    first = naimark_embedding(_near_chsh(1e-6))
    s = _near_chsh(1e-6)
    _, v_a, v_b = naimark_strategy(s)
    then = naimark_embedding(s)
    for w in (first, then):
        assert np.array_equal(w.u_a, v_a) and np.array_equal(w.u_b, v_b)
        assert np.linalg.norm(w.u_b.conj().T @ w.u_b - np.eye(2)) <= 1e-15
    # an ungated source is refused in either order, as naimark_strategy refuses it
    for run in (naimark_embedding, naimark_strategy):
        with pytest.raises(InvalidPovm, match="fails the validity gate"):
            run(_near_chsh(None))


def test_naimark_embedding_bound_random():
    for _ in range(10):
        s = random_strategy(RNG, 2, 3, outcomes=3, rank=2)
        dilated, _, _ = naimark_strategy(s)
        report = dilation_residuals(s, dilated, naimark_embedding(s))
        assert report.eps <= projective_eps(s) + 1e-10


def test_state_row_bounded_by_element_rows():
    for _ in range(10):
        dst = random_strategy(RNG, 2, 2, outcomes=2)
        src, w = exact_instance(dst, 2, 2, seed=int(RNG.integers(0, 100)))
        # corrupt the witness slightly to get nonzero rows
        src = Strategy(
            state=random_bipartite_state(RNG, src.dims[0], src.dims[1]),
            dims=src.dims, alice=src.alice, bob=src.bob,
        )
        report = dilation_residuals(src, dst, w)
        state, alice, bob = report.rows
        for q in range(len(alice)):
            assert state <= sum(alice[q]) + 1e-10
        for q in range(len(bob)):
            assert state <= sum(bob[q]) + 1e-10


def test_reverse_witness_identity():
    s = canonical_chsh()
    w = identity_witness(s)
    back = reverse_witness(s, s, w)
    assert dilation_residuals(s, s, back).eps <= 1e-12


def test_reverse_witness_block_ancilla():
    dst = canonical_chsh()
    src, w = exact_instance(dst, 2, 2, seed=3)
    assert dilation_residuals(src, dst, w).eps <= 1e-12
    back = reverse_witness(src, dst, w)
    assert dilation_residuals(dst, src, back).eps <= 1e-10


def test_reverse_witness_preserves_epsilon():
    # per-row residuals survive the reversal exactly, trine included
    s = trine_strategy()
    dilated, _, _ = naimark_strategy(s)
    w = naimark_embedding(s)
    fwd = dilation_residuals(s, dilated, w)
    back = reverse_witness(s, dilated, w)
    rev = dilation_residuals(dilated, s, back)
    assert rev.eps == pytest.approx(fwd.eps, abs=1e-10)


def test_reverse_witness_restriction_case():
    for _ in range(5):
        s = Strategy(
            state=random_bipartite_state(RNG, 3, 3, rank=2),
            dims=(3, 3),
            alice=[random_povm(RNG, 3, 2)],
            bob=[random_povm(RNG, 3, 2)],
        )
        eps = support_preserving_eps(s)
        restricted, _, _ = restrict(s)
        w = restriction_embedding(s)
        back = reverse_witness(restricted, s, w)
        assert dilation_residuals(s, restricted, back).eps <= eps + 1e-10


def test_reverse_witness_asymmetric_dimensions():
    # source sides of different dimension get different hat dimensions
    for _ in range(5):
        s = Strategy(
            state=random_bipartite_state(RNG, 2, 3, rank=2),
            dims=(2, 3),
            alice=[random_povm(RNG, 2, 2)],
            bob=[random_povm(RNG, 3, 3)],
        )
        dilated, _, _ = naimark_strategy(s)
        w = naimark_embedding(s)
        fwd = dilation_residuals(s, dilated, w).eps
        back = reverse_witness(s, dilated, w)
        rev = dilation_residuals(dilated, s, back).eps
        assert abs(rev - fwd) <= 1e-10


def test_reverse_witness_pads_each_side_to_its_own_block_count():
    rng = np.random.default_rng(23)
    s = Strategy(
        state=random_bipartite_state(rng, 2, 3, rank=2),
        dims=(2, 3),
        alice=[random_povm(rng, 2, 2)],
        bob=[random_povm(rng, 3, 3)],
    )
    dilated, _, _ = naimark_strategy(s)
    w = naimark_embedding(s)
    back = reverse_witness(s, dilated, w)
    assert back.dims_a == (2, math.ceil(w.u_a.shape[0] / 2))
    assert back.dims_b == (3, math.ceil(w.u_b.shape[0] / 3))


def test_reverse_witness_rejects_entangled_aux():
    dst = random_strategy(RNG, 2, 2, outcomes=2)
    src, w = exact_instance(dst, 2, 2, entangled_aux=True, seed=11)
    with pytest.raises(WitnessMismatch):
        reverse_witness(src, dst, w)


@pytest.mark.parametrize("convert", [reverse_witness, extraction_witness_from_vector])
def test_converters_refuse_a_witness_for_another_pair(convert):
    # the witness fits src -> dst; the swapped pair and a pair whose answer
    # counts differ are refused before any conversion
    dst = random_strategy(RNG, 2, 2, outcomes=2)
    src, w = exact_instance(dst, 2, 2, entangled_aux=convert is extraction_witness_from_vector,
                            seed=31)
    convert(src, dst, w)
    with pytest.raises(WitnessMismatch, match="U_A has shape"):
        convert(dst, src, w)
    with pytest.raises(DimensionMismatch, match="answer counts"):
        convert(src, random_strategy(RNG, 2, 2, outcomes=3), w)


def test_transitivity_of_witnesses():
    base = canonical_chsh()
    mid, w1 = exact_instance(base, 2, 2, seed=21)
    # build a second exact layer on top of mid
    top, w2_raw = exact_instance(mid, 2, 2, seed=22)
    # w1 : mid -> base, w2_raw : top -> mid; composition certifies top -> base
    composed = compose_witnesses(w2_raw, w1)
    r_top = dilation_residuals(top, mid, w2_raw)
    r_mid = dilation_residuals(mid, base, w1)
    r_all = dilation_residuals(top, base, composed)
    assert r_all.eps <= r_top.eps + r_mid.eps + 1e-10


def test_transitivity_with_nonzero_residuals():
    s = trine_strategy()
    dilated, _, _ = naimark_strategy(s)
    w1 = naimark_embedding(s)  # s -> dilated at 1/3
    src, w2 = exact_instance(s, 2, 2, seed=31)  # src -> s at 0
    composed = compose_witnesses(w2, w1)
    r = dilation_residuals(src, dilated, composed)
    assert r.eps <= dilation_residuals(src, s, w2).eps + dilation_residuals(
        s, dilated, w1
    ).eps + 1e-10


def test_matrix_form_exact_and_corrupted():
    dst = random_strategy(RNG, 2, 2, outcomes=2)
    src, w = exact_instance(dst, 2, 2, seed=41)
    sigma = matrix_aux_from_vector(w)
    r = matrix_form_residual(src, dst, w.u_a, w.u_b, w.dims_a, w.dims_b, sigma)
    assert r <= 1e-10
    # corrupting the auxiliary state produces a strictly positive residual
    bad_sigma = np.eye(sigma.shape[0], dtype=complex) / sigma.shape[0]
    r_bad = matrix_form_residual(src, dst, w.u_a, w.u_b, w.dims_a, w.dims_b, bad_sigma)
    assert r_bad > 1e-3


def test_matrix_form_identity_case():
    s = canonical_chsh()
    w = identity_witness(s)
    sigma = np.ones((1, 1), dtype=complex)
    assert matrix_form_residual(s, s, w.u_a, w.u_b, w.dims_a, w.dims_b, sigma) <= 1e-12


def test_matrix_form_mixed_source_roundtrip():
    # matrix-form-exact data with a genuinely mixed source, recovered as a
    # vector witness on the purification
    dst = random_strategy(RNG, 2, 2, outcomes=2)
    k_a, k_b = 2, 2
    sigma_aux = random_density(RNG, k_a * k_b, rank=3)
    src = _with_junk(dst, sigma_aux, k_a, k_b)
    u_a = np.eye(2 * k_a, dtype=complex)
    u_b = np.eye(2 * k_b, dtype=complex)
    r = matrix_form_residual(src, dst, u_a, u_b, (2, k_a), (2, k_b), sigma_aux)
    assert r <= 1e-10
    w = vector_witness_from_matrix_form(src, dst, u_a, u_b, (2, k_a), (2, k_b))
    report = dilation_residuals(src, dst, w, purification_probes=8, seed=5)
    assert report.eps <= 1e-10


def matrix_rows_oracle(src, dst, u_a, u_b, dims_a, dims_b, sigma):
    """Oracle: the matrix-form rows ``[s][a][t][b]`` as the dense loop that
    ``matrix_form_residual`` ran before it worked on the vector form's factors,
    building ``U (E (x) F) rho U*`` and ``(E~ (x) F~) |psi~><psi~| (x) sigma`` in
    the joint space for each pair of elements."""
    rho = src.density()
    u = np.kron(u_a, u_b)
    psi_dst = dst.pure_state()
    tilde = np.outer(psi_dst, psi_dst.conj())
    d_ta, d_ha = dims_a
    d_tb, d_hb = dims_b

    def row(e, f, e_dst, f_dst):
        lhs = u @ np.kron(e, f) @ rho @ u.conj().T
        lhs = linalg.permute_systems(lhs, (d_ta, d_ha, d_tb, d_hb), (0, 2, 1, 3))
        return linalg.frobenius(lhs - np.kron(np.kron(e_dst, f_dst) @ tilde, sigma))

    def side(fams, dst_fams, one):
        return [[one(e, t) for e, t in zip(fam, dst_fam)] for fam, dst_fam in zip(fams, dst_fams)]

    return side(src.alice, dst.alice, lambda e, e_dst: side(
        src.bob, dst.bob, lambda f, f_dst: row(e, f, e_dst, f_dst)))


@st.composite
def matrix_cases(draw):
    """``src = dst (x) junk`` seen through Haar local frames, with pure, full-rank
    mixed or rank-deficient mixed junk (purifier rank 1-9); the exact witness or
    one with a Haar-perturbed ``U_A``; ``sigma`` the junk's density operator or a
    generic complex square matrix."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k_a, k_b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dst = random_strategy(rng, draw(st.integers(2, 3)), 2, questions_a=draw(st.integers(1, 2)),
                          outcomes=draw(st.integers(2, 3)))
    kind = draw(st.sampled_from(["pure", "full rank", "rank deficient"]))
    if kind == "pure":
        junk = random_pure_state(rng, k_a * k_b)
        exact_sigma = np.outer(junk, junk.conj())
    else:
        full = k_a * k_b
        rank = full if kind == "full rank" else draw(st.integers(1, max(1, full - 1)))
        junk = exact_sigma = random_density(rng, full, rank=rank)
    src0 = _with_junk(dst, junk, k_a, k_b)
    r_a, r_b = haar_unitary(rng, src0.dims[0]), haar_unitary(rng, src0.dims[1])
    src = conjugate_strategy(src0, r_a, r_b)
    u_a, u_b = r_a.conj().T, r_b.conj().T
    if draw(st.booleans()):
        u_a = haar_unitary(rng, u_a.shape[0]) @ u_a
    if draw(st.booleans()):
        sigma = exact_sigma
    else:
        sigma = rng.normal(size=exact_sigma.shape) + 1j * rng.normal(size=exact_sigma.shape)
    return src, dst, u_a, u_b, (dst.dims[0], k_a), (dst.dims[1], k_b), sigma


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matrix_cases())
def test_matrix_rows_match_the_dense_oracle(case):
    report = dilation._matrix_report(*case)
    want = np.array(matrix_rows_oracle(*case))
    got = np.array(report.rows)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * (1 + want))
    assert report.eps == got.max()


def _trace_scaled_source(scale):
    """A mixed ``dst (x) sigma`` with its state scaled to trace ``scale``, the
    vector-form witness of the unscaled source, and ``sigma``."""
    rng = np.random.default_rng(7)
    dst = random_strategy(rng, 2, 2)
    sigma = random_density(rng, 4, rank=2)
    src = _with_junk(dst, sigma, 2, 2)
    w = vector_witness_from_matrix_form(src, dst, np.eye(4), np.eye(4), (2, 2), (2, 2))
    scaled = Strategy(state=scale * src.state, dims=src.dims, alice=src.alice, bob=src.bob)
    return scaled, dst, w, sigma


def test_the_vector_and_matrix_forms_refuse_a_source_off_unit_trace():
    src, dst, w, sigma = _trace_scaled_source(1.01)
    with pytest.raises(InvalidState, match="unit trace"):
        dilation_residuals(src, dst, w)
    with pytest.raises(InvalidState, match="unit trace"):
        matrix_form_residual(src, dst, w.u_a, w.u_b, w.dims_a, w.dims_b, sigma)
    for form in ("vector", "matrix"):
        with pytest.raises(InvalidState, match="unit trace"):
            dilation.check(src, dst, w, form)


def test_each_check_purifies_once_and_the_matrix_form_takes_each_alice_element_once(
    monkeypatch,
):
    src, dst, w, sigma = _trace_scaled_source(1.0)
    args = (src, dst, w.u_a, w.u_b, w.dims_a, w.dims_b)
    calls, purified = [], dilation._purified
    monkeypatch.setattr(dilation, "_purified", lambda s: calls.append(s) or purified(s))
    for run in (lambda: dilation.check(src, dst, w, "vector"),
                lambda: dilation.check(src, dst, w, "matrix"),
                lambda: dilation_residuals(src, dst, w),
                lambda: matrix_form_residual(*args, sigma),
                lambda: vector_witness_from_matrix_form(*args)):
        calls.clear()
        run()
        assert len(calls) == 1 and calls[0] is src
    # one (U_A E) psi and one E~ M~ per Alice element, not one per pair of elements
    seen, times = [], games._times
    monkeypatch.setattr(games, "_times", lambda fam, j, x: seen.append(fam[j]) or times(fam, j, x))
    report = dilation.check(src, dst, w, "matrix")
    assert report.eps <= 1e-12 and sum(map(len, dst.bob)) == 4
    for e in (e for fam in dst.alice for e in fam):
        assert sum(x is e for x in seen) == 1


def test_a_source_gated_at_its_tol_passes_the_vector_and_matrix_forms():
    src, dst, w, sigma = _trace_scaled_source(1.01)
    assert not games._is_valid(src, 1e-3) and games._is_valid(src, 0.02)
    # both read the purification, normalized: the witness is exact for both
    assert dilation_residuals(src, dst, w).eps <= 1e-12
    assert matrix_form_residual(src, dst, w.u_a, w.u_b, w.dims_a, w.dims_b, sigma) <= 1e-12
    assert dilation.check(src, dst, w, "matrix").eps <= 1e-12


def test_extraction_chsh_identity():
    s = canonical_chsh()
    assert extraction_residual(s, s, np.eye(2), np.eye(2)).eps <= 1e-12


def test_extraction_conjugated_chsh():
    s = canonical_chsh()
    r_a = haar_unitary(RNG, 2)
    r_b = haar_unitary(RNG, 2)
    rotated = conjugate_strategy(s, r_a, r_b)
    assert extraction_residual(rotated, s, r_a.conj().T, r_b.conj().T).eps <= 1e-10


def test_extraction_detects_nonprojective_mismatch():
    # compare the trine strategy against a projective impostor on the third
    # Bob question; the defect shows up exactly there
    src = trine_strategy()
    z3 = [
        np.diag([1, 0]).astype(complex),
        np.diag([0, 1]).astype(complex),
        np.zeros((2, 2), dtype=complex),
    ]
    dst = Strategy(state=src.state, dims=(2, 2), alice=src.alice,
                   bob=list(src.bob[:2]) + [z3])
    r = extraction_residual(src, dst, np.eye(2), np.eye(2)).eps
    expected = max(
        np.linalg.norm(np.asarray(m) - np.asarray(z)) for m, z in zip(trine_povm(), z3)
    )
    assert r == pytest.approx(expected, abs=1e-12)
    assert r > 0.3


def test_extraction_requires_full_rank():
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    s = Strategy(state=psi, dims=(2, 2),
                 alice=[[np.eye(2, dtype=complex)]], bob=[[np.eye(2, dtype=complex)]])
    with pytest.raises(FullRankRequired):
        extraction_residual(s, s, np.eye(2), np.eye(2))


def test_extraction_vector_equivalence_both_ways():
    for seed in range(5):
        dst = random_strategy(RNG, 2, 2, outcomes=2)
        # entangled aux keeps the compressed witness square and unitary
        src, w = exact_instance(dst, 2, 2, entangled_aux=True, seed=seed + 50)
        w_a, w_b = extraction_witness_from_vector(src, dst, w)
        assert extraction_residual(src, dst, w_a, w_b).eps <= 1e-10
        w_back = vector_witness_from_extraction(src, dst, w_a, w_b)
        assert dilation_residuals(src, dst, w_back).eps <= 1e-10


def test_purification_probes_stable_for_exact_witness():
    dst = random_strategy(RNG, 2, 2, outcomes=2)
    k_a, k_b = 2, 2
    sigma_aux = random_density(RNG, k_a * k_b, rank=2)
    rho_big = linalg.permute_systems(
        np.kron(np.outer(dst.state, dst.state.conj()), sigma_aux),
        (2, 2, k_a, k_b),
        (0, 2, 1, 3),
    )
    alice = [[np.kron(e, np.eye(k_a)) for e in fam] for fam in dst.alice]
    bob = [[np.kron(e, np.eye(k_b)) for e in fam] for fam in dst.bob]
    src = Strategy(state=rho_big, dims=(2 * k_a, 2 * k_b), alice=alice, bob=bob)
    w = vector_witness_from_matrix_form(
        src, dst, np.eye(4, dtype=complex), np.eye(4, dtype=complex), (2, k_a), (2, k_b)
    )
    r0 = dilation_residuals(src, dst, w)
    r8 = dilation_residuals(src, dst, w, purification_probes=8, seed=9)
    assert abs(r0.eps - r8.eps) <= 1e-10


def test_witness_validation():
    with pytest.raises(WitnessMismatch):
        DilationWitness(
            u_a=np.ones((2, 2), dtype=complex),  # not an isometry
            u_b=np.eye(2, dtype=complex),
            dims_a=(2, 1),
            dims_b=(2, 1),
            aux=scalar_aux(),
        )
    with pytest.raises(WitnessMismatch):
        DilationWitness(
            u_a=np.eye(2, dtype=complex),
            u_b=np.eye(2, dtype=complex),
            dims_a=(2, 1),
            dims_b=(2, 1),
            aux=np.array([0.5, 0.5], dtype=complex),  # not normalized
        )


def test_all_forms_reject_mismatched_answer_counts():
    # same question counts, but Bob's question 1 has 2 answers in chsh and 3 here
    chsh = canonical_chsh()
    t = trine_strategy()
    other = Strategy(state=t.state, dims=t.dims, alice=t.alice, bob=t.bob[1:])
    eye = np.eye(2, dtype=complex)
    for src, dst in ((chsh, other), (other, chsh)):
        with pytest.raises(DimensionMismatch):
            dilation_residuals(src, dst, identity_witness(src))
        with pytest.raises(DimensionMismatch):
            matrix_form_residual(src, dst, eye, eye, (2, 1), (2, 1), np.ones((1, 1)))
        with pytest.raises(DimensionMismatch):
            extraction_residual(src, dst, eye, eye)


@pytest.mark.parametrize("scale", [2.0, 0.0])
@pytest.mark.parametrize("side", ["U_A", "U_B"])
def test_matrix_and_extraction_forms_reject_non_isometries(scale, side):
    # the same isometry test DilationWitness applies: a scaled or zeroed U is
    # a structural error, never a residual
    s = canonical_chsh()
    u = {"U_A": np.eye(2, dtype=complex), "U_B": np.eye(2, dtype=complex)}
    u[side] = scale * u[side]
    sigma = np.ones((1, 1), dtype=complex)
    with pytest.raises(WitnessMismatch, match=f"{side} is not an isometry"):
        matrix_form_residual(s, s, u["U_A"], u["U_B"], (2, 1), (2, 1), sigma)
    with pytest.raises(WitnessMismatch, match=f"{side} is not an isometry"):
        extraction_residual(s, s, u["U_A"], u["U_B"])
    with pytest.raises(WitnessMismatch, match=f"{side} is not an isometry"):
        DilationWitness(u_a=u["U_A"], u_b=u["U_B"], dims_a=(2, 1), dims_b=(2, 1), aux=scalar_aux())


def test_matrix_form_rejects_witness_of_wrong_shape():
    s = canonical_chsh()
    sigma = np.ones((1, 1), dtype=complex)
    with pytest.raises(WitnessMismatch, match="U_A has shape"):
        matrix_form_residual(s, s, np.eye(4, 3, dtype=complex), np.eye(2), (2, 2), (2, 1), sigma)
    with pytest.raises(WitnessMismatch, match="target factors"):
        matrix_form_residual(s, s, np.eye(2), np.eye(2), (1, 2), (2, 1), np.eye(2) / 2)


def test_a_gated_mixed_source_is_purified_to_the_bits_of_purify():
    # past the gate, _purified skips purify's fixed checks, not its arithmetic
    rng = np.random.default_rng(31)
    g = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    rho = g @ g.conj().T
    rho = (rho + 1e-12j * np.eye(6)) / np.trace(rho).real  # not exactly Hermitian
    s = Strategy(state=rho, dims=(2, 3), alice=[[np.eye(2)]], bob=[[np.eye(3)]])
    want = purify(s.state)
    assert games._is_valid(s, 1e-9)
    psi, d_p = dilation._purified(s)
    assert d_p == 3 and np.array_equal(psi, want)


def probe_rows(src, dst, w, probes, seed):
    """Oracle: the vector-form rows of a mixed source under the spectral
    purification and under ``probes`` Haar rotations ``1 (x) R`` of it, with
    ``aux`` rotated alike; the probe loop ``dilation_residuals`` ran before
    its docstring stated why the rows cannot move.  One
    ``(state, alice, bob)`` triple per probe, the unrotated one first."""
    psi_dst = dst.pure_state()
    d_a, d_b = src.dims
    psi = purify(src.state)
    d_p = psi.size // (d_a * d_b)
    dims5 = (w.dims_a[0], w.dims_a[1], w.dims_b[0], w.dims_b[1], d_p)

    def run(psi_probe, aux_probe):
        def row(e_a, e_b, t_a, t_b):
            lhs = linalg.apply_factors(psi_probe, (d_a, d_b, d_p), (e_a, e_b, None))
            lhs = linalg.apply_factors(lhs, (d_a, d_b, d_p), (w.u_a, w.u_b, None))
            tgt_row = linalg.apply_factors(psi_dst, dst.dims, (t_a, t_b))
            d_ta, d_ha, d_tb, d_hb, _ = dims5
            rhs = linalg.permute_systems(
                np.kron(tgt_row, aux_probe), (d_ta, d_tb, d_ha, d_hb, d_p), (0, 2, 1, 3, 4)
            )
            return float(np.linalg.norm(lhs - rhs))

        state_res = row(None, None, None, None)
        alice_rows = tuple(
            tuple(row(src.alice[q][a], None, dst.alice[q][a], None)
                  for a in range(len(src.alice[q])))
            for q in range(len(src.alice))
        )
        bob_rows = tuple(
            tuple(row(None, src.bob[q][b], None, dst.bob[q][b])
                  for b in range(len(src.bob[q])))
            for q in range(len(src.bob))
        )
        return state_res, alice_rows, bob_rows

    rng = np.random.default_rng(seed)
    hat_total = w.dims_a[1] * w.dims_b[1]
    out = [run(psi, w.aux)]
    for _ in range(probes):
        r = haar_unitary(rng, d_p)
        psi_k = linalg.apply_factors(psi, (d_a, d_b, d_p), (None, None, r))
        aux_k = linalg.apply_factors(w.aux, (hat_total, d_p), (None, r))
        out.append(run(psi_k, aux_k))
    return out


@st.composite
def mixed_witness_cases(draw):
    """A mixed source ``dst (x) sigma`` seen through random local frames, with
    purifier dimension 2-4, and an exact or a Haar-rotated inexact witness."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(2, 4))
    k_a = draw(st.integers(1, 2))
    k_b = draw(st.integers(max(2, -(-rank // k_a)), 4))
    dst = random_strategy(rng, 2, 2, outcomes=draw(st.integers(2, 3)))
    src0 = _with_junk(dst, random_density(rng, k_a * k_b, rank=rank), k_a, k_b)
    r_a, r_b = haar_unitary(rng, 2 * k_a), haar_unitary(rng, 2 * k_b)
    src = conjugate_strategy(src0, r_a, r_b)
    w = vector_witness_from_matrix_form(
        src, dst, r_a.conj().T, r_b.conj().T, (2, k_a), (2, k_b)
    )
    if draw(st.booleans()):
        w = DilationWitness(u_a=haar_unitary(rng, 2 * k_a) @ w.u_a, u_b=w.u_b,
                            dims_a=w.dims_a, dims_b=w.dims_b, aux=w.aux)
    return src, dst, w, draw(st.integers(0, 2**31 - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mixed_witness_cases())
def test_rows_invariant_under_purifier_rotations(case):
    src, dst, w, seed = case
    report = dilation_residuals(src, dst, w)
    assert w.purifier_dim >= 2
    for state_res, alice_rows, bob_rows in probe_rows(src, dst, w, probes=8, seed=seed):
        assert abs(state_res - report.rows[0]) <= 1e-12
        for got, want in ((alice_rows, report.rows[1]), (bob_rows, report.rows[2])):
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mixed_witness_cases())
def test_a_mixed_source_witness_composes_with_a_naimark_embedding(case):
    # X = dst (x) sigma seen through local frames (mixed), Y = dst, Z its Naimark
    # dilation: the composed witness keeps X's purifier factor, and its residual
    # stays within eps1 + eps2, the slack of test_transitivity_with_nonzero_residuals
    src, dst, w, _ = case
    dilated, _, _ = naimark_strategy(dst)
    w_n = naimark_embedding(dst)
    composed = compose_witnesses(w, w_n)
    assert composed.purifier_dim == w.purifier_dim >= 2
    eps1 = dilation_residuals(src, dst, w).eps
    eps2 = dilation_residuals(dst, dilated, w_n).eps
    assert dilation_residuals(src, dilated, composed).eps <= eps1 + eps2 + 1e-10
    # a mixed middle strategy is still refused
    with pytest.raises(WitnessMismatch, match="pure source for the second witness"):
        compose_witnesses(identity_witness(src), w)


@st.composite
def exact_pairs(draw):
    """An ``exact_instance`` pair over a full-rank pure ``dst`` with an entangled
    aux (so the extraction form applies too), exact or with a Haar-perturbed ``U_A``."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    dst = random_strategy(rng, 2, 2, questions_a=draw(st.integers(1, 3)),
                          questions_b=draw(st.integers(1, 3)), outcomes=draw(st.integers(2, 3)))
    k = draw(st.integers(1, 2))
    src, w = exact_instance(dst, k, k, entangled_aux=True, seed=seed)
    if draw(st.booleans()):
        w = DilationWitness(u_a=haar_unitary(rng, 2 * k) @ w.u_a, u_b=w.u_b,
                            dims_a=w.dims_a, dims_b=w.dims_b, aux=w.aux)
    return src, dst, w


def _shape(rows):
    """``rows`` with each float replaced by None: the nesting and the lengths alone."""
    return None if isinstance(rows, float) else [_shape(r) for r in rows]


def _leaves(rows):
    return [rows] if isinstance(rows, float) else [x for r in rows for x in _leaves(r)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(exact_pairs())
def test_check_rows_follow_the_answer_counts_and_set_eps(case):
    src, dst, w = case
    per_side = [[[None] * len(fam) for fam in fams] for fams in (src.alice, src.bob)]
    want = {
        "vector": [None, *per_side],
        "extraction": [None, *per_side],
        "matrix": [[per_side[1] for _ in fam] for fam in src.alice],
    }
    for form, shape in want.items():
        report = dilation.check(src, dst, w, form)
        assert report.form == form and _shape(report.rows) == shape
        assert report.eps == max(_leaves(report.rows))
    sigma = matrix_aux_from_vector(w)
    assert dilation.check(src, dst, w, "matrix").eps == matrix_form_residual(
        src, dst, w.u_a, w.u_b, w.dims_a, w.dims_b, sigma
    )


def _witness(w):
    return DilationWitness(u_a=w["u_a"], u_b=w["u_b"], dims_a=w["dims_a"],
                           dims_b=w["dims_b"], aux=w["aux"])


def _vector_form(src, dst, w):
    return dilation_residuals(src, dst, _witness(w)).eps


def _matrix_form(src, dst, w):
    return matrix_form_residual(src, dst, w["u_a"], w["u_b"], w["dims_a"], w["dims_b"], w["sigma"])


def _extraction_form(src, dst, w):
    return extraction_residual(src, dst, w["u_a"], w["u_b"]).eps


def _through_check(form):
    return lambda src, dst, w: dilation.check(src, dst, _witness(w), form).eps


# each form's kernel, and dilation.check of the same form, which owes the same errors
FORMS = {"vector": _vector_form, "matrix": _matrix_form, "extraction": _extraction_form}
FORMS.update({f"check {form}": _through_check(form) for form in list(FORMS)})
NON_FINITE = [f"non-finite {key} {value}"
              for key in ("u_a", "u_b", "aux") for value in ("nan", "inf")]
# the forms whose arguments can carry each defect: the extraction kernel takes
# no aux and derives its target factors from dst; check takes a whole witness
MALFORMED = [
    (defect, form)
    for defect in NON_FINITE + ["wrong shape", "non-isometry", "wrong target factor",
                                "mismatched answer counts"]
    for form in FORMS
    if form != "extraction" or not (defect.startswith("non-finite aux")
                                    or defect == "wrong target factor")
]


def _malformed(defect):
    """A chsh pair and an identity witness with one defect, and the error it owes."""
    chsh = canonical_chsh()
    w = {"u_a": np.eye(2, dtype=complex), "u_b": np.eye(2, dtype=complex),
         "dims_a": (2, 1), "dims_b": (2, 1), "aux": scalar_aux(), "sigma": np.ones((1, 1))}
    dst, exc = chsh, WitnessMismatch
    if defect in NON_FINITE:
        key, value = defect.split()[1:]
        for k in (key, "sigma") if key == "aux" else (key,):
            w[k] = w[k].astype(complex)
            w[k].flat[0] = float(value)
        exc = DimensionMismatch
    elif defect == "wrong shape":
        w["u_a"] = np.eye(4, 2, dtype=complex)
    elif defect == "non-isometry":
        w["u_b"] = 2 * w["u_b"]
    elif defect == "wrong target factor":
        w["dims_a"], w["aux"], w["sigma"] = (1, 2), linalg.basis_state(2, 0), np.diag([1.0, 0.0])
    else:  # Bob's question 1 has 2 answers in chsh and 3 in the trine remnant
        t = trine_strategy()
        dst = Strategy(state=t.state, dims=t.dims, alice=t.alice, bob=t.bob[1:])
        exc = DimensionMismatch
    return chsh, dst, w, exc


@pytest.mark.parametrize("defect,form", MALFORMED)
def test_every_form_rejects_a_malformed_witness_alike(defect, form):
    src, dst, w, exc = _malformed(defect)
    with pytest.raises(exc):
        FORMS[form](src, dst, w)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.integers(0, 2**32 - 1),
)
def test_complete_isometry_is_a_unitary_extending_its_input(shape, seed):
    n, m = shape
    v = haar_isometry(np.random.default_rng(seed), n, m)
    u = _complete_isometry(v)
    assert u.shape == (n, n)
    assert np.array_equal(u[:, :m], v)
    assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-12


def _mixed_pair():
    src, dst, w, _ = _trace_scaled_source(1.0)
    return src, dst, w


CONTRACTS = {
    "unknown form": (lambda: dilation.check(*_mixed_pair(), "bogus"), ValueError),
    "mixed source to reverse_witness": (lambda: reverse_witness(*_mixed_pair()), WitnessMismatch),
    "mixed source to extraction_witness_from_vector": (
        lambda: extraction_witness_from_vector(*_mixed_pair()), WitnessMismatch),
    "mismatched middle dimensions": (
        lambda: compose_witnesses(identity_witness(canonical_chsh()), _mixed_pair()[2]),
        WitnessMismatch),
    "sigma of the wrong size": (
        lambda: matrix_form_residual(canonical_chsh(), canonical_chsh(), np.eye(2), np.eye(2),
                                     (2, 1), (2, 1), np.eye(2) / 2),
        DimensionMismatch),
}


@pytest.mark.parametrize("case", list(CONTRACTS))
def test_input_contracts_raise_their_error(case):
    make, exc = CONTRACTS[case]
    with pytest.raises(exc):
        make()


@pytest.mark.parametrize("form", ["vector", "matrix"])
def test_a_nan_row_reads_nan_eps(form):
    # Bob's overflowing element gives a NaN row that is not the first one
    s = overflowing_chsh()
    with np.errstate(over="ignore", invalid="ignore"):
        report = dilation.check(s, s, identity_witness(s), form)
    assert np.isnan(report.eps)


def test_check_leaves_no_reference_cycle():
    s = canonical_chsh()
    w = identity_witness(s)
    dilation.check(s, s, w)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            dilation.check(s, s, w)
        assert gc.collect() == 0
    finally:
        gc.enable()
