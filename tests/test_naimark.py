import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selftest_lab import games, linalg, naimark, serialize
from selftest_lab.dilation import dilation_residuals, naimark_embedding
from selftest_lab.errors import DimensionMismatch, InvalidPovm, PureStateRequired
from selftest_lab.games import Strategy, correlation_of, validate_strategy
from selftest_lab.lab import canonical_chsh, trine_strategy
from selftest_lab.metrics import projective_eps, support_preserving_eps, strategy_metrics
from selftest_lab.naimark import (
    NaimarkDilation,
    minimal_trine_dilation,
    naimark_family,
    naimark_strategy,
    trine_povm,
    trine_projector_vectors,
    verify_dilation,
)
from helpers import random_bipartite_state, random_povm, random_pvm

RNG = np.random.default_rng(505)


def test_single_pvm_dilation():
    fam = [np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)]
    d = naimark_family([fam])
    assert d.dims == (2, 4)
    check = verify_dilation([fam], d, tol=1e-12)
    assert check.passed


def test_single_trine_dilation():
    fam = trine_povm()
    d = naimark_family([fam])
    assert d.dims == (2, 6)
    v = d.isometry
    for r, p in zip(fam, d.pvms[0]):
        assert np.max(np.abs(r - v.conj().T @ p @ v)) <= 1e-12


def test_single_element_povm():
    fam = [np.eye(3, dtype=complex)]
    d = naimark_family([fam])
    assert d.dims == (3, 3)  # one outcome adds no ancilla dimension
    assert np.allclose(d.pvms[0][0], np.eye(3))
    assert np.allclose(d.isometry.conj().T @ d.isometry, np.eye(3))


def test_family_dilation_canonical_bob():
    fams = trine_strategy().bob
    d = naimark_family(fams)
    assert d.dims == (2, 2 * 2 * 2 * 3)  # one ancilla factor per family
    check = verify_dilation(fams, d, tol=1e-10)
    assert check.passed


def test_family_rejects_invalid_povm():
    bad = [np.eye(2, dtype=complex), np.eye(2, dtype=complex)]
    with pytest.raises(InvalidPovm):
        naimark_family([bad])


def test_family_refuses_an_element_that_is_not_a_matrix():
    with pytest.raises(DimensionMismatch, match=r"POVM element has shape \(\), expected \(1, 1\)"):
        naimark_family([[1.0]])


@pytest.mark.parametrize("excess, accepted", [(0.5e-9, True), (2e-9, False)])
def test_family_completeness_checked_at_tol(excess, accepted):
    # the completeness defect is excess * sqrt(3) on C^4: below the gate's
    # tol = 1e-9 for the first case, above it (though below tol * d) for the second
    p = np.diag([1, 0, 0, 0]).astype(complex)
    fam = [p, (np.eye(4) - p) * (1 + excess)]
    if accepted:
        assert verify_dilation([fam], naimark_family([fam]), tol=1e-8).passed
    else:
        with pytest.raises(InvalidPovm):
            naimark_family([fam])


def test_family_rejects_non_hermitian_element():
    # both Hermitian parts are PSD and the family sums to 1 exactly, but the
    # elements carry an anti-Hermitian part of norm 2e-6
    skew = 1e-6j * np.array([[0, 1], [1, 0]])
    fam = [np.diag([1, 0]) + skew, np.diag([0, 1]) - skew]
    with pytest.raises(InvalidPovm):
        naimark_family([fam])


def test_projective_family_commutes_on_range():
    fam = random_pvm(RNG, 4, 3)
    d = naimark_family([fam])
    v = d.isometry
    proj_range = v @ v.conj().T
    for p in d.pvms[0]:
        assert np.max(np.abs(proj_range @ p - p @ proj_range)) <= 1e-10
    for r, p in zip(fam, d.pvms[0]):
        assert np.max(np.abs(v.conj().T @ p @ v - r)) <= 1e-10


def test_two_copies_agree_on_range():
    fam = random_pvm(RNG, 3, 2)
    d = naimark_family([fam, fam])
    v = d.isometry
    for _ in range(5):
        phi = RNG.normal(size=3) + 1j * RNG.normal(size=3)
        phi /= np.linalg.norm(phi)
        for p1, p2 in zip(d.pvms[0], d.pvms[1]):
            assert np.linalg.norm((p1 - p2) @ (v @ phi)) <= 1e-10


def test_random_families_verify():
    for _ in range(20):
        d_in = int(RNG.integers(2, 5))
        fams = [
            random_povm(RNG, d_in, int(RNG.integers(2, 5)))
            for _ in range(int(RNG.integers(1, 4)))
        ]
        dil = naimark_family(fams)
        assert verify_dilation(fams, dil, tol=1e-10).passed


def test_tampered_dilation_fails():
    fam = trine_povm()
    d = naimark_family([fam])
    bad_pvms = (tuple([np.eye(6, dtype=complex)] + list(d.pvms[0][1:])),)
    tampered = NaimarkDilation(pvms=bad_pvms, isometry=d.isometry, dims=d.dims)
    check = verify_dilation([fam], tampered, tol=1e-10)
    assert not check.passed
    assert check.element_defects[0][0] > 0.1  # defect localized at outcome 0


def test_verify_dilation_fails_on_nan_projection():
    fam = trine_povm()
    d = naimark_family([fam])
    bad = d.pvms[0][2].copy()
    bad[0, 0] = np.nan
    tampered = NaimarkDilation(pvms=(d.pvms[0][:2] + (bad,),), isometry=d.isometry, dims=d.dims)
    check = verify_dilation([fam], tampered, tol=1e-10)
    assert np.isnan(check.element_defects[0][2]) and np.isnan(check.completeness_defects[0])
    assert not check.passed


def test_identity_dilation_passes():
    fam = random_pvm(RNG, 4, 2)
    ident = NaimarkDilation(
        pvms=(tuple(fam),), isometry=np.eye(4, dtype=complex), dims=(4, 4)
    )
    assert verify_dilation([fam], ident, tol=1e-12).passed


def test_naimark_strategy_chsh():
    s = canonical_chsh()
    dilated, v_a, v_b = naimark_strategy(s)
    assert validate_strategy(dilated).valid
    assert projective_eps(dilated) == 0.0
    p0 = correlation_of(s).table
    p1 = correlation_of(dilated).table
    assert np.max(np.abs(p0 - p1)) <= 1e-12


def test_naimark_strategy_trine_correlation():
    s = trine_strategy()
    dilated, _, _ = naimark_strategy(s)
    for fam in dilated.bob:
        for p in fam:
            assert linalg.projector_defect(p) <= 1e-10
    assert np.max(np.abs(correlation_of(s).table - correlation_of(dilated).table)) <= 1e-12


def test_naimark_strategy_trivial_povms():
    psi = random_bipartite_state(RNG, 2, 2)
    s = Strategy(state=psi, dims=(2, 2),
                 alice=[[np.eye(2, dtype=complex)]], bob=[[np.eye(2, dtype=complex)]])
    dilated, v_a, v_b = naimark_strategy(s)
    assert dilated.dims == (2, 2)
    assert np.linalg.norm(dilated.state - linalg.apply_factors(psi, (2, 2), (v_a, v_b))) <= 1e-14


def test_naimark_strategy_rejects_mixed():
    s = Strategy(
        state=np.eye(4, dtype=complex) / 4, dims=(2, 2),
        alice=[[np.eye(2, dtype=complex)]], bob=[[np.eye(2, dtype=complex)]],
    )
    with pytest.raises(PureStateRequired):
        naimark_strategy(s)


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


def test_residual_identity_random():
    # ||(V R (x) 1)psi - (P V (x) 1)psi||^2 = <psi|(1-R)R (x) 1|psi>
    for _ in range(20):
        d_a = int(RNG.integers(2, 4))
        d_b = int(RNG.integers(2, 4))
        rank = int(RNG.integers(1, min(d_a, d_b) + 1))
        psi = random_bipartite_state(RNG, d_a, d_b, rank=rank)
        fams = [random_povm(RNG, d_a, int(RNG.integers(2, 4))) for _ in range(2)]
        dil = naimark_family(fams)
        v = dil.isometry
        sigma_a = linalg.partial_trace(np.outer(psi, psi.conj()), (d_a, d_b), "A")
        for fam, pfam in zip(fams, dil.pvms):
            for r, p in zip(fam, pfam):
                lhs_vec = linalg.apply_factors(psi, (d_a, d_b), (v @ r - p @ v, None))
                lhs = float(np.linalg.norm(lhs_vec)) ** 2
                rhs = float(np.real(np.trace((np.eye(d_a) - r) @ r @ sigma_a)))
                assert lhs == pytest.approx(rhs, abs=1e-10)


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


def test_support_preserving_zero_projective_dilation():
    # support-preserving and 0-projective strategy: block measurements that are
    # projective on the support but not off it; its dilation stays
    # support-preserving
    psi = np.zeros(9, dtype=complex)
    psi[0] = psi[4] = 1 / np.sqrt(2)  # support {0, 1} both sides
    e = np.diag([1.0, 0.0, 0.5]).astype(complex)
    fam = [e, np.eye(3, dtype=complex) - e]
    s = Strategy(state=psi, dims=(3, 3), alice=[fam], bob=[[np.eye(3, dtype=complex)]])
    assert support_preserving_eps(s) <= 1e-12
    assert projective_eps(s) <= 1e-12
    dilated, _, _ = naimark_strategy(s)
    assert support_preserving_eps(dilated) <= 1e-9


def test_nonprojective_strategy_dilation_not_support_preserving():
    # the converse direction: a strategy that is not 0-projective cannot have
    # a support-preserving dilation; its defect matches the projectivity gap
    s = trine_strategy()
    dilated, _, _ = naimark_strategy(s)
    m = strategy_metrics(s)
    eps_dilated = support_preserving_eps(dilated)
    assert eps_dilated == pytest.approx(projective_eps(s), abs=1e-9)


def reembedding_oracle(povms):
    """The iterative construction with every earlier family re-embedded as
    ``V2 Q V2*`` at each step and ``1 - V2 V2*`` added at outcome 0."""
    povms = [[linalg.as_complex(e) for e in fam] for fam in povms]
    d = povms[0][0].shape[0]
    dim_now = d
    v_total = linalg.identity(d)
    built = []
    for family in povms:
        m = len(family)
        pushed = [v_total @ e @ v_total.conj().T for e in family]
        pushed[0] = pushed[0] + (linalg.identity(dim_now) - v_total @ v_total.conj().T)
        v2 = np.zeros((dim_now * m, dim_now), dtype=np.complex128)
        v2_view = v2.reshape(dim_now, m, dim_now)
        for j in range(m):
            v2_view[:, j, :] = linalg.psd_sqrt(pushed[j])
        dim_next = dim_now * m
        re_embedded = []
        for q in built:
            fam_new = [v2 @ p @ v2.conj().T for p in q]
            fam_new[0] = fam_new[0] + (linalg.identity(dim_next) - v2 @ v2.conj().T)
            re_embedded.append(fam_new)
        re_embedded.append([np.kron(linalg.identity(dim_now), np.diag(np.eye(m)[j]))
                            for j in range(m)])
        built = re_embedded
        v_total = v2 @ v_total
        dim_now = dim_next
    return built, v_total, (d, dim_now)


def povm_with_ranks(rng, d, ranks):
    """POVM whose elements have the given ranks (0 gives a zero element) before
    the off-support complement joins element 0."""
    gs = []
    for r in ranks:
        x = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
        gs.append(x @ x.conj().T)
    evals, evecs = np.linalg.eigh(sum(gs))
    keep = evals > 1e-9
    inv_root = (evecs[:, keep] / np.sqrt(evals[keep])) @ evecs[:, keep].conj().T
    fam = [inv_root @ g @ inv_root for g in gs]
    fam[0] = fam[0] + evecs[:, ~keep] @ evecs[:, ~keep].conj().T
    return fam


# the dilated dimension d * prod(m) stays at or below this, so the oracle's
# O(n^2) products of D x D matrices stay cheap
ORACLE_MAX_DIM = 192


@st.composite
def povm_lists(draw):
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fams, dim = [], d
    for _ in range(draw(st.integers(1, 4))):
        m = draw(st.integers(1, max(1, min(4, ORACLE_MAX_DIM // dim))))
        fams.append(povm_with_ranks(rng, d, draw(st.lists(st.integers(0, d), min_size=m, max_size=m))))
        dim *= m
    return fams


@settings(max_examples=100, deadline=None, derandomize=True)
@given(povm_lists())
def test_closed_form_matches_reembedding_oracle(fams):
    dil = naimark_family(fams)
    pvms, v, dims = reembedding_oracle(fams)
    assert dil.dims == dims
    # the closed-form roots round differently from the oracle's D x D square roots
    assert np.max(np.abs(dil.isometry - v)) <= 1e-12
    for fam, want in zip(dil.pvms, pvms, strict=True):
        for p, q in zip(fam, want, strict=True):
            assert np.max(np.abs(p - q)) <= 1e-12
    assert verify_dilation(fams, dil, tol=1e-10).passed


def test_embedding_isometries_equal_strategy_dilation():
    s = trine_strategy()
    _, v_a, v_b = naimark_strategy(s)
    w = naimark_embedding(s)
    assert np.array_equal(w.u_a, v_a)
    assert np.array_equal(w.u_b, v_b)


def test_embedding_builds_no_dilated_projections():
    # Bob dilates to 3*2*2*3*3*3 = 324; the 13 dense 324 x 324 projections
    # alone would take 13 * 324^2 * 16 B = 20.8 MiB
    rng = np.random.default_rng(11)
    s = Strategy(
        state=random_bipartite_state(rng, 3, 3, rank=2),
        dims=(3, 3),
        alice=[random_povm(rng, 3, 2) for _ in range(2)],
        bob=[random_povm(rng, 3, m) for m in (2, 2, 3, 3, 3)],
    )
    tracemalloc.start()
    try:
        w = naimark_embedding(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.u_b.shape == (324, 3)
    assert peak < 4 * 2**20


def test_embedding_rejects_mixed():
    s = Strategy(
        state=np.eye(4, dtype=complex) / 4, dims=(2, 2),
        alice=[[np.eye(2, dtype=complex)]], bob=[[np.eye(2, dtype=complex)]],
    )
    with pytest.raises(PureStateRequired):
        naimark_embedding(s)


def _mismatched(kind):
    fam = trine_povm()
    dil = naimark_family([fam])
    if kind == "family count":
        return [fam, fam], dil
    if kind == "element count":
        return [fam[:2]], dil
    if kind == "empty family":
        return [[]], NaimarkDilation(pvms=((),), isometry=dil.isometry, dims=dil.dims)
    if kind == "element dimension":
        return [[np.eye(3, dtype=complex) / 3] * 3], dil
    bad = (dil.pvms[0][:2] + (np.eye(5, dtype=complex),),)
    return [fam], NaimarkDilation(pvms=bad, isometry=dil.isometry, dims=dil.dims)


@pytest.mark.parametrize(
    "kind",
    ["family count", "element count", "empty family", "element dimension", "projection dimension"],
)
def test_verify_dilation_rejects_mismatched_structure(kind):
    fams, dil = _mismatched(kind)
    with pytest.raises(DimensionMismatch):
        verify_dilation(fams, dil)


def test_dilated_projections_are_read_only_and_shared():
    s = trine_strategy()
    dilated, _, _ = naimark_strategy(s)
    dil = naimark_family(s.bob)
    for fam in dil.pvms:
        for p in fam:
            assert not p.flags.writeable
            with pytest.raises(ValueError):
                p[0, 0] = 0.0
            kind, factor = games._recall(p, "factor")
            if kind != "rows":  # a slice of the sealed W_k, which no caller can make writable
                with pytest.raises(ValueError):
                    factor.setflags(write=True)
                with pytest.raises(ValueError):
                    factor.base.setflags(write=True)
    # a Strategy adopts them as they are: one storage per projection
    shared = Strategy(state=dilated.state, dims=dilated.dims, alice=dilated.alice, bob=dil.pvms)
    assert all(x is y for fam, fam_d in zip(shared.bob, dil.pvms) for x, y in zip(fam, fam_d))


def test_naimark_strategy_peak_memory_near_its_output():
    # Bob dilates to D = 3*2*2*3*3*3 = 324: 13 projections of 1.6 MiB each.
    # Holding each projection once, the peak stays near the output's size;
    # a second copy of every projection would double it.
    rng = np.random.default_rng(902)
    s = Strategy(
        state=random_bipartite_state(rng, 3, 3, rank=2),
        dims=(3, 3),
        alice=[random_povm(rng, 3, 2) for _ in range(2)],
        bob=[random_povm(rng, 3, m) for m in (2, 2, 3, 3, 3)],
    )
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        dilated, _, _ = naimark_strategy(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dilated.dims == (12, 324)
    element_bytes = sum(e.nbytes for fam in dilated.alice + dilated.bob for e in fam)
    assert peak - start < 1.25 * element_bytes


def _deep_source(seed):
    # Bob dilates to D = 3*2*2*3*3*3 = 324
    rng = np.random.default_rng(seed)
    return Strategy(
        state=random_bipartite_state(rng, 3, 3, rank=2),
        dims=(3, 3),
        alice=[random_povm(rng, 3, 2) for _ in range(2)],
        bob=[random_povm(rng, 3, m) for m in (2, 2, 3, 3, 3)],
    )


def test_embedding_after_strategy_builds_nothing(monkeypatch):
    s = _deep_source(903)
    _, v_a, v_b = naimark_strategy(s)
    calls = []
    real = linalg.psd_sqrt
    monkeypatch.setattr(linalg, "psd_sqrt", lambda h: calls.append(1) or real(h))
    w = naimark_embedding(s)
    assert calls == []
    assert np.array_equal(w.u_a, v_a) and np.array_equal(w.u_b, v_b)
    # the other order builds the isometries itself, to the same bits
    other = _deep_source(903)
    w_first = naimark_embedding(other)
    assert calls
    _, v_a2, v_b2 = naimark_strategy(other)
    for x, y in ((w_first.u_a, v_a), (w_first.u_b, v_b), (v_a2, v_a), (v_b2, v_b)):
        assert np.array_equal(x, y)


def test_naimark_strategy_leaves_only_the_isometries_on_the_source():
    s = _deep_source(904)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        dilated, v_a, v_b = naimark_strategy(s)
        isometry_bytes = v_a.nbytes + v_b.nbytes
        del dilated, v_a, v_b
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # O(d D): the two isometries (16 KiB at D = 324) and small change, far
    # below one D x D array (1.6 MiB) or the last step isometry (0.5 MiB)
    assert held - start < 2 * isometry_bytes


def _counting_projector_defect(monkeypatch):
    calls = []
    real = linalg.projector_defect
    monkeypatch.setattr(linalg, "projector_defect", lambda p: calls.append(1) or real(p))
    return calls


def _dense_worst(fams, dil):
    """The largest entry of ``dil``'s defect tables, checked on copies of its
    projections, which carry no record: the dense path's verdict is
    ``worst <= tol``."""
    copied = tuple(tuple(p.copy() for p in fam) for fam in dil.pvms)
    check = verify_dilation(fams, NaimarkDilation(copied, dil.isometry, dil.dims))
    return np.max(
        [check.isometry_defect, *check.completeness_defects]
        + [x for t in check.element_defects + check.projection_defects for x in t]
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(povm_lists(), povm_lists(), st.integers(0, 2**32 - 1))
def test_recorded_projectivity_is_sound(fams_a, fams_b, seed):
    d_a, d_b = fams_a[0][0].shape[0], fams_b[0][0].shape[0]
    state = random_bipartite_state(np.random.default_rng(seed), d_a, d_b)
    s = Strategy(state=state, dims=(d_a, d_b), alice=fams_a, bob=fams_b)
    dilated, v_a, v_b = naimark_strategy(s)
    cases = [
        (fams_a, naimark_family(fams_a)),
        (s.alice, NaimarkDilation(dilated.alice, v_a, (d_a, v_a.shape[0]))),
        (s.bob, NaimarkDilation(dilated.bob, v_b, (d_b, v_b.shape[0]))),
    ]
    for fams, dil in cases:
        for fam in dil.pvms:
            for p in fam:
                assert games._recall(p, "projectivity") >= linalg.projector_defect(p)
        worst = _dense_worst(fams, dil)
        for tol in (1e-12, 1e-10, 1e-8):
            assert verify_dilation(fams, dil, tol).passed == (worst <= tol)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(povm_lists(), povm_lists(), st.integers(0, 2**32 - 1))
def test_proven_tol_covers_the_measured_defects(fams_a, fams_b, seed):
    # the Hermiticity and completeness defects the gate would measure on each
    # dilated family are bounded in the proof, never measured there
    d_a, d_b = fams_a[0][0].shape[0], fams_b[0][0].shape[0]
    state = random_bipartite_state(np.random.default_rng(seed), d_a, d_b)
    s = Strategy(state=state, dims=(d_a, d_b), alice=fams_a, bob=fams_b)
    dilated, _, _ = naimark_strategy(s)
    pvms, _, tol = naimark._proven_dilation(fams_a, gate=True)  # naimark_family's proof
    cases = [(pvms, tol), (dilated.alice + dilated.bob, games._recall(dilated, "valid_tol"))]
    for families, proven in cases:
        for fam in families:
            assert games._completeness_defect(fam) <= proven
            for p in fam:
                assert linalg.hermiticity_defect(p) <= proven


def _factored_product_bound(fam, p, x) -> float:
    """The bound of ``naimark._proven_dilation`` on ``||games._times(p, x) - p @ x||_F``
    for a projection ``p`` of the dilated family ``fam``: ``e`` plus both products'
    rounding, times ``||x||_F``; 0 in the last family, whose 0/1 diagonals make both
    products exact."""
    kind, tail = games._recall(fam[0], "factor")
    if kind == "rows":
        return 0.0
    w = tail.base  # the complement's factor is a column slice of the stored W_k
    dim, dim_k = w.shape
    delta, e, f = naimark._factor_errors(w, len(fam))
    g = linalg._gamma
    rounding = g(dim + 2) * np.linalg.norm(p) + g(dim + dim_k + 5) * (f + 1 + delta)
    return (e + rounding) * np.linalg.norm(x)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(povm_lists(), povm_lists(), st.integers(0, 2**32 - 1))
def test_products_through_the_factors_match_the_dense_ones(fams_a, fams_b, seed):
    rng = np.random.default_rng(seed)
    d_a, d_b = fams_a[0][0].shape[0], fams_b[0][0].shape[0]
    state = random_bipartite_state(rng, d_a, d_b, rank=int(rng.integers(1, min(d_a, d_b) + 1)))
    s = Strategy(state=state, dims=(d_a, d_b), alice=fams_a, bob=fams_b)
    dilated, _, _ = naimark_strategy(s)
    for fam in dilated.alice + dilated.bob:
        for p in fam:
            assert games._recall(p, "factor") is not None
            x = rng.normal(size=(p.shape[0], 3)) + 1j * rng.normal(size=(p.shape[0], 3))
            assert np.linalg.norm(games._times(p, x) - p @ x) <= _factored_product_bound(fam, p, x)
    # the same kernels on a copy with no facts take the dense products
    dense = serialize.strategy_from_jsonable(serialize.strategy_to_jsonable(dilated))
    assert all(games._recall(p, "factor") is None for fam in dense.alice + dense.bob for p in fam)
    assert np.max(np.abs(correlation_of(dilated).table - correlation_of(dense).table)) <= 1e-12
    got, want = strategy_metrics(dilated), strategy_metrics(dense)
    for name in ("alice_commutator_norms", "bob_commutator_norms", "alice_overlaps", "bob_overlaps"):
        for row, want_row in zip(getattr(got, name), getattr(want, name), strict=True):
            assert np.max(np.abs(np.subtract(row, want_row))) <= 1e-12
    assert got.projective_eps == want.projective_eps == 0.0
    w = naimark_embedding(s)
    rows, want_rows = dilation_residuals(s, dilated, w).rows, dilation_residuals(s, dense, w).rows
    assert abs(rows[0] - want_rows[0]) <= 1e-12
    for side, want_side in zip(rows[1:], want_rows[1:]):
        for row, want_row in zip(side, want_side, strict=True):
            assert np.max(np.abs(np.subtract(row, want_row))) <= 1e-12


def test_a_side_with_no_questions_dilates_by_the_identity():
    s = canonical_chsh()
    for side in ("alice", "bob"):
        fams = {"alice": s.alice, "bob": s.bob, side: []}
        src = Strategy(state=s.state, dims=s.dims, alice=fams["alice"], bob=fams["bob"])
        dilated, v_a, v_b = naimark_strategy(src)
        w = naimark_embedding(src)
        v = v_a if side == "alice" else v_b
        assert getattr(dilated, side) == ()
        assert np.array_equal(v, np.eye(2))
        assert np.array_equal(w.u_a, v_a) and np.array_equal(w.u_b, v_b)
        other = naimark_embedding(Strategy(src.state, src.dims, src.alice, src.bob))  # built anew
        assert np.array_equal(other.u_a, v_a) and np.array_equal(other.u_b, v_b)
    with pytest.raises(InvalidPovm):
        naimark_family([])


def test_naimark_strategy_roots_only_source_elements_and_reads_no_projection(monkeypatch):
    s = _deep_source(907)
    assert games._is_valid(s, linalg.DEFAULT_TOL)  # so the source is not gated again
    calls, roots = [], []
    for module, name in ((linalg, "hermiticity_defect"), (games, "_completeness_defect")):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda a, real=real, name=name: calls.append(name) or real(a)
        )
    real_sqrt = linalg.psd_sqrt
    monkeypatch.setattr(linalg, "psd_sqrt", lambda h: roots.append(h.shape[0]) or real_sqrt(h))
    dilated, _, _ = naimark_strategy(s)
    assert dilated.dims == (12, 324)
    assert calls == []
    assert len(roots) == 4 + 13 and max(roots) == 3  # one per source element, each d x d


def test_verify_reads_the_records_of_a_deep_strategy(monkeypatch):
    s = _deep_source(906)
    dilated, v_a, v_b = naimark_strategy(s)
    assert dilated.dims == (12, 324)
    calls = _counting_projector_defect(monkeypatch)
    for fams, pvms, v in ((s.alice, dilated.alice, v_a), (s.bob, dilated.bob, v_b)):
        dil = NaimarkDilation(pvms, v, (v.shape[1], v.shape[0]))
        assert verify_dilation(fams, dil, tol=1e-10).passed
    assert calls == []


def test_a_copied_or_loosely_proven_projection_is_measured(monkeypatch):
    fams = [trine_povm(), trine_povm()]
    dil = naimark_family(fams)
    p = dil.pvms[0][1]
    bound = games._recall(p, "projectivity")
    assert 0 < bound <= 1e-10
    calls = _counting_projector_defect(monkeypatch)

    def defect(q, tol):
        calls.clear()
        pvms = (dil.pvms[0][:1] + (q,) + dil.pvms[0][2:], dil.pvms[1])
        check = verify_dilation(fams, NaimarkDilation(pvms, dil.isometry, dil.dims), tol)
        return check.projection_defects[0][1], len(calls)

    assert defect(p, 1e-10) == (bound, 0)
    measured = linalg.projector_defect(p)
    assert measured <= bound
    assert defect(p, bound / 2)[0] == measured  # its siblings share the bound: measured too
    assert defect(p.copy(), 1e-10) == (measured, 1)
    with pytest.raises(ValueError):
        p.setflags(write=True)  # sealed: p cannot change, so its fact stands
    assert defect(p, 1e-10) == (bound, 0)


def test_a_nan_record_is_not_read(monkeypatch):
    fams = [trine_povm(), trine_povm()]
    dil = naimark_family(fams)
    games._remember(dil.pvms[0][1], projectivity=float("nan"))
    calls = _counting_projector_defect(monkeypatch)
    check = verify_dilation(fams, dil, tol=1e-10)
    assert calls == [1] and check.passed
    assert not np.isnan(check.projection_defects[0][1])


@pytest.mark.parametrize("kind", ["projection", "strategy"])
def test_facts_leave_with_their_objects(kind):
    if kind == "projection":
        objs = [p for fam in naimark_family([trine_povm(), trine_povm()]).pvms for p in fam]
    else:
        objs = [canonical_chsh()]
        assert games._is_valid(objs[0], 1e-9)
    keys = {id(x) for x in objs}
    assert keys <= set(games._FACTS)
    del objs
    gc.collect()
    assert not keys & set(games._FACTS)
