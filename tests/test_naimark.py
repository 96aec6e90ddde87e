import copy
import dataclasses
import gc
import pickle
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selftest_lab import games, linalg, naimark, serialize
from selftest_lab.dilation import dilation_residuals, naimark_embedding
from selftest_lab.errors import DimensionMismatch, InvalidPovm, PureStateRequired
from selftest_lab.games import Strategy, correlation_of, validate_strategy
from selftest_lab.lab import canonical_chsh, trine_povm, trine_strategy
from selftest_lab.metrics import projective_eps, support_preserving_eps, strategy_metrics
from selftest_lab.naimark import (
    NaimarkDilation,
    naimark_family,
    naimark_strategy,
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
            w = fam.w
            if w is not None:  # the sealed W_k, which no caller can make writable, nor a slice
                with pytest.raises(ValueError):
                    w[:, 1:].setflags(write=True)
                with pytest.raises(ValueError):
                    w.setflags(write=True)
    # a Strategy adopts them as they are: one storage per projection
    shared = Strategy(state=dilated.state, dims=dilated.dims, alice=dilated.alice, bob=dil.pvms)
    assert all(x is y for fam, fam_d in zip(shared.bob, dil.pvms) for x, y in zip(fam, fam_d))


def _rebuilt_from_factor(fam, j):
    """Projection ``j`` of ``fam`` rebuilt from the family's factor with the build's
    operations in its order: ``B B*``, the identity less each ``B_j B_j*`` of ``fam``
    in turn, or the 0/1 rows of the last family."""
    assert type(fam) is games._ProvenFamily and fam.m == len(fam)
    dim = fam[j].shape[0]
    if fam.w is None:
        want = np.zeros((dim, dim), dtype=complex)
        rows = np.arange(dim)[j::fam.m]
        want[rows, rows] = 1.0
        return want
    n = fam.w.shape[1] // fam.m
    blocks = [fam.w[:, i * n:(i + 1) * n] for i in range(fam.m)]
    if j:
        return blocks[j] @ blocks[j].conj().T
    want = np.eye(dim, dtype=complex)
    for b in blocks[1:]:
        want = want - b @ b.conj().T
    return want


def _assert_one_arena(families):
    """Every projection of one dilated side is a sealed view of one array over
    ``bytes``, equal bit for bit to its rebuilt factor."""
    views = [p for fam in families for p in fam]
    arena = views[0].base
    assert isinstance(arena.base, bytes)
    assert arena.shape == (len(views),) + views[0].shape
    assert all(p.base is arena and p.flags.c_contiguous for p in views)
    for x in views + [arena]:
        assert games._is_sealed(x)
        with pytest.raises(ValueError):
            x.setflags(write=True)
    for fam in families:
        for j, p in enumerate(fam):
            assert np.array_equal(p, _rebuilt_from_factor(fam, j))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(povm_lists(), povm_lists(), st.integers(0, 2**32 - 1))
def test_each_dilated_side_is_one_sealed_arena(fams_a, fams_b, seed):
    d_a, d_b = fams_a[0][0].shape[0], fams_b[0][0].shape[0]
    state = random_bipartite_state(np.random.default_rng(seed), d_a, d_b)
    s = Strategy(state=state, dims=(d_a, d_b), alice=fams_a, bob=fams_b)
    dilated, _, _ = naimark_strategy(s)
    for side in (dilated.alice, dilated.bob, naimark_family(fams_a).pvms):
        _assert_one_arena(side)
    assert dilated.alice[0][0].base is not dilated.bob[0][0].base
    # a Strategy rebuilt from the dilated families adopts the very views
    again = Strategy(state=dilated.state, dims=dilated.dims, alice=dilated.alice, bob=dilated.bob)
    for side, side_d in ((again.alice, dilated.alice), (again.bob, dilated.bob)):
        assert all(x is y for fam, fam_d in zip(side, side_d) for x, y in zip(fam, fam_d))


def _counting_arenas(monkeypatch):
    """The shapes of the 3-d arrays ``games._sealed`` allocates from now on: the
    arenas of dilated sides."""
    arenas = []
    real = games._sealed

    def sealed(shape):
        if len(shape) == 3:
            arenas.append(shape)
        return real(shape)

    monkeypatch.setattr(games, "_sealed", sealed)
    return arenas


def test_every_side_allocates_one_arena(monkeypatch):
    arenas = _counting_arenas(monkeypatch)
    s = canonical_chsh()
    src = Strategy(state=s.state, dims=s.dims, alice=[], bob=s.bob)
    dilated, _, v_b = naimark_strategy(src)
    dil = naimark_family(s.bob)
    dim = v_b.shape[0]
    assert arenas == []  # no projection read yet, so no arena
    for side in (dilated.bob, dil.pvms):
        side[1][0]  # one Bob element read builds the whole side
        assert arenas == [(4, dim, dim)]
        _assert_one_arena(side)  # every projection read again: no second arena
        assert arenas == [(4, dim, dim)]
        arenas.clear()


def test_threads_reading_a_fresh_side_share_one_arena(monkeypatch):
    arenas = _counting_arenas(monkeypatch)
    dil = naimark_family([trine_povm()] * 3)
    n = 8
    barrier, seen = threading.Barrier(n), []

    def read():
        barrier.wait()
        seen.append([p for fam in dil.pvms for p in fam])

    threads = [threading.Thread(target=read) for _ in range(n)]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads) and len(seen) == n
    assert len(arenas) == 1  # one build, however the first reads interleave
    assert all(x is y for views in seen for x, y in zip(views, seen[0], strict=True))


def test_a_proven_family_reads_as_its_tuple():
    dilated, _, _ = naimark_strategy(trine_strategy())
    fam = dilated.bob[2]
    members = tuple(fam)
    assert type(fam) is games._ProvenFamily and len(fam) == fam.m == len(members) == 3
    assert all(x is y for x, y in zip(fam, members, strict=True))  # iteration order
    assert fam[-1] is members[2] and fam[0] is fam[-3] is members[0]
    assert type(fam[1:]) is tuple and fam[1:] == members[1:] and fam[:0] == ()
    with pytest.raises(IndexError):
        fam[3]
    assert fam == members and members == fam and fam != members[:2] and fam != list(members)
    assert repr(fam) == repr(members)
    with pytest.raises(TypeError):  # as for its tuple: numpy arrays do not hash
        hash(fam)
    assert copy.copy(dilated) == dilated and copy.copy(dilated).bob[2] is fam
    with pytest.raises(AttributeError):
        fam.gate = None
    plain = dataclasses.asdict(dilated)["bob"][2]
    for other in (pickle.loads(pickle.dumps(fam)), copy.deepcopy(fam), copy.copy(fam), plain):
        assert type(other) is tuple and len(other) == 3
        assert all(np.array_equal(x, y) for x, y in zip(other, members))


def test_naimark_strategy_builds_no_projection():
    # Bob dilates to D = 324; its 13 projections would take 20.8 MiB
    s = _deep_source(910)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        dilated, _, _ = naimark_strategy(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dilated.dims == (12, 324)
    assert peak - start < 4 * 2**20


def test_a_dense_fallback_builds_its_side_once(monkeypatch):
    # six trine families dilate to D = 2 * 3^6 = 1458, where 15 of the 18
    # projectivity bounds exceed the default tol: those entries are measured
    fams = [trine_povm()] * 6
    dil = naimark_family(fams)
    arenas = _counting_arenas(monkeypatch)
    squares = []
    real = linalg.projector_defect
    monkeypatch.setattr(linalg, "projector_defect", lambda p: squares.append(1) or real(p))
    check = verify_dilation(fams, dil)
    assert check.passed and len(squares) == 15 and arenas == [(18, 1458, 1458)]
    proven = [x for fam, row in zip(dil.pvms, check.projection_defects) for x in row
              if x == fam.square]
    assert len(proven) == 18 - 15


def test_a_pickled_projection_holds_its_own_bytes_not_the_arena():
    dilated, _, _ = naimark_strategy(trine_strategy())
    p = dilated.bob[1][0]
    assert p.base.nbytes == 7 * p.nbytes
    assert len(pickle.dumps(p)) < p.nbytes + 1024
    back = pickle.loads(pickle.dumps(dilated))
    assert np.array_equal(back.state, dilated.state)
    for fam, fam_d in zip(back.alice + back.bob, dilated.alice + dilated.bob):
        for x, y in zip(fam, fam_d):
            assert x is not y and x.base is not y.base and np.array_equal(x, y)
            with pytest.raises(ValueError):
                x.setflags(write=True)


def test_proven_projections_are_not_scanned_again(monkeypatch):
    scanned = []
    real = linalg._all_finite
    monkeypatch.setattr(linalg, "_all_finite", lambda a: scanned.append(a.shape) or real(a))
    dilated, _, _ = naimark_strategy(trine_strategy())
    big = [(n, n) for n in dilated.dims]
    assert not set(scanned) & set(big)
    Strategy(state=dilated.state, dims=dilated.dims, alice=dilated.alice, bob=dilated.bob)
    assert not set(scanned) & set(big)
    # the same arrays read from a file carry no proof: every element is scanned
    serialize.strategy_from_jsonable(serialize.strategy_to_jsonable(dilated))
    elements = [e.shape for fam in dilated.alice + dilated.bob for e in fam]
    assert sorted(x for x in scanned if x in big) == sorted(elements)


def test_naimark_strategy_peak_memory_near_its_output():
    # Bob dilates to D = 3*2*2*3*3*3 = 324: 13 projections of 1.6 MiB each.
    # Holding each projection once, the peak of the build and a read of every
    # projection stays near their size; a second copy of each would double it.
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
        elements = [e for fam in dilated.alice + dilated.bob for e in fam]  # built here
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dilated.dims == (12, 324)
    assert peak - start < 1.25 * sum(e.nbytes for e in elements)


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


def _counting_dense_reads(monkeypatch):
    """The names of the dense checks ``verify_dilation`` makes, one per call."""
    calls = []
    for module, name in (
        (linalg, "projector_defect"),
        (games, "_completeness_defect"),
        (naimark, "_compression_defect"),
    ):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    return calls


def _dense_check(fams, dil):
    """``verify_dilation`` of ``dil`` on copies of its projections in plain tuples,
    which carry no proof: every entry measured, at the default ``tol``."""
    copied = tuple(tuple(p.copy() for p in fam) for fam in dil.pvms)
    return verify_dilation(fams, NaimarkDilation(copied, dil.isometry, dil.dims))


def _worst(check):
    """The largest entry of ``check``'s defect tables: on a dense check, the
    verdict is ``worst <= tol``."""
    return np.max(
        [check.isometry_defect, *check.completeness_defects]
        + [x for t in check.element_defects + check.projection_defects for x in t]
    )


def _dilated_cases(fams_a, fams_b, seed):
    """Each side of ``naimark_strategy`` on the families, and ``naimark_family``
    of Alice's, as (source families, dilation) pairs."""
    d_a, d_b = fams_a[0][0].shape[0], fams_b[0][0].shape[0]
    state = random_bipartite_state(np.random.default_rng(seed), d_a, d_b)
    s = Strategy(state=state, dims=(d_a, d_b), alice=fams_a, bob=fams_b)
    dilated, v_a, v_b = naimark_strategy(s)
    return [
        (fams_a, naimark_family(fams_a)),
        (s.alice, NaimarkDilation(dilated.alice, v_a, (d_a, v_a.shape[0]))),
        (s.bob, NaimarkDilation(dilated.bob, v_b, (d_b, v_b.shape[0]))),
    ]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(povm_lists(), povm_lists(), st.integers(0, 2**32 - 1))
def test_recorded_projectivity_is_sound(fams_a, fams_b, seed):
    for fams, dil in _dilated_cases(fams_a, fams_b, seed):
        for fam in dil.pvms:
            for p in fam:
                assert fam.square >= linalg.projector_defect(p)
        worst = _worst(_dense_check(fams, dil))
        for tol in (1e-12, 1e-10, 1e-8):
            assert verify_dilation(fams, dil, tol).passed == (worst <= tol)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(povm_lists(), povm_lists(), st.integers(0, 2**32 - 1))
def test_recorded_completeness_and_compressions_are_sound(fams_a, fams_b, seed):
    # an entry read from a proof bounds the dense value; a measured one is it
    for fams, dil in _dilated_cases(fams_a, fams_b, seed):
        dense = _dense_check(fams, dil)
        for tol in (1e-10, 1e-13):
            check = verify_dilation(fams, dil, tol)
            assert check.passed == (_worst(dense) <= tol)
            pairs = list(zip(check.completeness_defects, dense.completeness_defects, strict=True))
            for row, want_row in zip(check.element_defects, dense.element_defects, strict=True):
                pairs += zip(row, want_row, strict=True)
            for got, want in pairs:
                assert got >= want and (got == want or got <= tol)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(povm_lists(), povm_lists(), st.integers(0, 2**32 - 1))
def test_proven_tol_covers_the_measured_defects(fams_a, fams_b, seed):
    # the Hermiticity and completeness defects the gate would measure on each
    # dilated family are bounded by its record's gate, never measured there
    d_a, d_b = fams_a[0][0].shape[0], fams_b[0][0].shape[0]
    state = random_bipartite_state(np.random.default_rng(seed), d_a, d_b)
    s = Strategy(state=state, dims=(d_a, d_b), alice=fams_a, bob=fams_b)
    dilated, _, _ = naimark_strategy(s)
    pvms, _ = naimark._proven_dilation(fams_a, gate=True)  # naimark_family's proof
    for fam in pvms + dilated.alice + dilated.bob:
        proven = fam.gate
        assert games._completeness_defect(fam) <= proven
        for p in fam:
            assert linalg.hermiticity_defect(p) <= proven


@settings(max_examples=100, deadline=None, derandomize=True)
@given(povm_lists(), povm_lists(), st.integers(0, 2**32 - 1))
def test_the_gate_that_reads_a_record_gives_the_dense_verdict(fams_a, fams_b, seed):
    d_a, d_b = fams_a[0][0].shape[0], fams_b[0][0].shape[0]
    state = random_bipartite_state(np.random.default_rng(seed), d_a, d_b)
    s = Strategy(state=state, dims=(d_a, d_b), alice=fams_a, bob=fams_b)
    dilated, _, _ = naimark_strategy(s)
    for families in (naimark_family(fams_a).pvms, dilated.alice, dilated.bob):
        # the last family's 0/1 diagonals are singular unless it has one outcome,
        # and the dense gate refuses a singular projection at tol 0
        assert families[-1].gate > 0
        for fam in families:
            gate = fam.gate
            copies = tuple(np.array(p) for p in fam)  # no proof: the dense gate
            assert type(copies) is not games._ProvenFamily
            for tol in (0.0, gate / 2, gate, 1e-9):
                assert games._family_valid(fam, tol) == games._family_valid(copies, tol), tol


def _counting_cholesky(monkeypatch):
    calls = []
    real = linalg._shifted_cholesky_exists
    monkeypatch.setattr(
        linalg, "_shifted_cholesky_exists", lambda *a: calls.append(1) or real(*a)
    )
    return calls


def test_a_shallow_copy_is_gated_by_its_records_a_deep_one_densely(monkeypatch):
    dilated = naimark_strategy(_deep_source(909))[0]
    calls = _counting_cholesky(monkeypatch)
    assert games._is_valid(copy.copy(dilated), 1e-9)  # the same sealed arrays
    assert calls == []
    n = sum(len(fam) for fam in dilated.alice + dilated.bob)
    for other in (copy.deepcopy(dilated), pickle.loads(pickle.dumps(dilated, protocol=4))):
        calls.clear()
        assert games._is_valid(other, 1e-9)
        assert len(calls) == n
    p0, p1, p2 = dilated.bob[2]
    for fam in ((p1, p0, p2), (p0, p1), (p0, p1, dilated.bob[3][2])):
        want = games._family_valid([np.array(p) for p in fam], 1e-9)
        calls.clear()
        assert games._family_valid(fam, 1e-9) == want and len(calls) == len(fam)


def _factored_product_bound(fam, p, x) -> float:
    """The bound of ``naimark._proven_dilation`` on ``||games._times(fam, j, x) - p @ x||_F``
    for the projection ``p = fam[j]`` of the dilated family ``fam``: ``e`` plus both
    products' rounding, times ``||x||_F``; 0 in the last family, whose 0/1 diagonals
    make both products exact."""
    w = fam.w  # the stored W_k
    if w is None:
        return 0.0
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
        assert type(fam) is games._ProvenFamily
        for j, p in enumerate(fam):
            x = rng.normal(size=(p.shape[0], 3)) + 1j * rng.normal(size=(p.shape[0], 3))
            got = games._times(fam, j, x)
            assert np.linalg.norm(got - p @ x) <= _factored_product_bound(fam, p, x)
    # the same kernels on a copy with no proofs take the dense products
    dense = serialize.strategy_from_jsonable(serialize.strategy_to_jsonable(dilated))
    assert all(type(fam) is tuple for fam in dense.alice + dense.bob)
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
    calls = _counting_dense_reads(monkeypatch)
    for fams, pvms, v in ((s.alice, dilated.alice, v_a), (s.bob, dilated.bob, v_b)):
        dil = NaimarkDilation(pvms, v, (v.shape[1], v.shape[0]))
        assert verify_dilation(fams, dil, tol=1e-10).passed
    assert calls == []  # no P @ P, no summed family, no dense V* P V


def test_a_regrouped_truncated_or_copied_family_is_measured(monkeypatch):
    fams = [trine_povm(), trine_povm()]
    dil = naimark_family(fams)
    (p0, p1, p2), last = dil.pvms
    r0, r1, r2 = fams[0]
    other = naimark_family(fams).pvms[0]  # the same values, other objects
    calls = _counting_dense_reads(monkeypatch)

    def reads(family, source):
        calls.clear()
        pvms = (family, last)
        check = verify_dilation([source, fams[1]], NaimarkDilation(pvms, dil.isometry, dil.dims))
        return sorted(calls), check.passed

    def measured(n):
        """Every entry of a family of ``n`` measured: ``n`` compressions, ``n``
        squares and the summed family."""
        return sorted(["_completeness_defect"] + ["_compression_defect", "projector_defect"] * n)

    assert reads(dil.pvms[0], fams[0]) == ([], True)
    # a proof holds for its own family tuple alone: the same members in a new
    # tuple, regrouped, truncated, mixed with another family's, repeated or
    # copied, carry none, so every entry is measured
    assert reads((p0, p1, p2), fams[0]) == (measured(3), True)
    assert reads((p1, p0, p2), [r1, r0, r2]) == (measured(3), True)
    assert reads((other[0], p1, p2), fams[0]) == (measured(3), True)
    assert reads(dil.pvms[0][:2], [r0, r1]) == (measured(2), False)
    assert reads((p0, p1, last[2]), fams[0]) == (measured(3), False)
    assert reads((p0, p0, p2), [r0, r0, r2]) == (measured(3), False)
    assert reads((p0, p1.copy(), p2), fams[0]) == (measured(3), True)


class _Forged(tuple):
    """A tuple that carries what a proven family carries, but is not one."""


def test_only_a_proven_family_is_trusted():
    # three zero projections under the fields of a real family: the forged family
    # is measured, so its completeness defect is ||0 - 1||_F = sqrt(18)
    fams = [trine_povm()] * 2
    dil = naimark_family(fams)
    real = dil.pvms[0]
    bad = _Forged(np.zeros((18, 18), dtype=complex) for _ in range(3))
    for name in type(real).__slots__:
        if name not in ("_read", "__weakref__"):
            setattr(bad, name, getattr(real, name))
    check = verify_dilation(fams, dataclasses.replace(dil, pvms=(bad, dil.pvms[1])))
    assert not check.passed
    assert abs(check.completeness_defects[0] - 18**0.5) <= 1e-12
    assert not games._family_valid(bad, 1e-9)
    x = RNG.normal(size=(18, 2)) + 1j * RNG.normal(size=(18, 2))
    for j in range(3):
        assert np.array_equal(games._times(bad, j, x), bad[j] @ x)


def test_a_perturbed_element_or_isometry_fails_as_the_dense_check_does():
    s = _deep_source(908)
    dilated, _, v = naimark_strategy(s)
    rng = np.random.default_rng(908)

    def bumped(a):
        return a + 1e-6 * (rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape))

    fams = [list(fam) for fam in s.bob]
    moved = [list(fam) for fam in s.bob]
    moved[2][1] = bumped(moved[2][1])
    for source, iso in ((moved, v), (fams, bumped(v))):
        dil = NaimarkDilation(dilated.bob, iso, (3, iso.shape[0]))
        check, dense = verify_dilation(source, dil), _dense_check(source, dil)
        assert not check.passed and not dense.passed
        assert check.isometry_defect == dense.isometry_defect
        for row, want_row in zip(check.element_defects, dense.element_defects, strict=True):
            for got, want in zip(row, want_row, strict=True):
                assert got == want if want > 1e-10 else want <= got <= 1e-10
    assert check.element_defects == dense.element_defects  # a moved V: all measured


def test_a_copied_or_loosely_proven_projection_is_measured(monkeypatch):
    fams = [trine_povm(), trine_povm()]
    dil = naimark_family(fams)
    p = dil.pvms[0][1]
    bound = dil.pvms[0].square
    assert 0 < bound <= 1e-10
    squared = []
    real = linalg.projector_defect
    monkeypatch.setattr(linalg, "projector_defect", lambda a: squared.append(a) or real(a))

    def defect(q, tol):
        """Entry 1 of the family, ``q`` in place of ``p`` unless it is ``p``, and the
        squares measured of ``q``."""
        squared.clear()
        fam = dil.pvms[0] if q is p else dil.pvms[0][:1] + (q,) + dil.pvms[0][2:]
        check = verify_dilation(fams, NaimarkDilation((fam, dil.pvms[1]), dil.isometry, dil.dims), tol)
        return check.projection_defects[0][1], sum(a is q for a in squared)

    assert defect(p, 1e-10) == (bound, 0)
    measured = linalg.projector_defect(p)
    assert measured <= bound
    assert defect(p, bound / 2)[0] == measured  # its siblings share the bound: measured too
    assert defect(p.copy(), 1e-10) == (measured, 1)
    with pytest.raises(ValueError):
        p.setflags(write=True)  # sealed: p cannot change, so its family's proof stands
    assert defect(p, 1e-10) == (bound, 0)


def _with_proof(dil, **bounds):
    """``dil`` with its first family rebuilt from its fields with ``bounds``
    replaced, the members unchanged."""
    first, *rest = dil.pvms
    fields = {name: getattr(first, name) for name in games._ProvenFamily._FIELDS}
    bad = games._ProvenFamily(*{**fields, **bounds}.values())
    return dataclasses.replace(dil, pvms=(bad, *rest))


def test_a_nan_record_is_not_read(monkeypatch):
    fams = [trine_povm(), trine_povm()]
    dil = _with_proof(naimark_family(fams), square=float("nan"))
    calls = _counting_dense_reads(monkeypatch)
    check = verify_dilation(fams, dil, tol=1e-10)
    assert calls == ["projector_defect"] * 3 and check.passed  # the family's members
    assert not np.isnan(check.projection_defects[0][1])


@pytest.mark.parametrize("kind", ["projection", "strategy"])
def test_facts_leave_with_their_objects(kind):
    if kind == "projection":
        dil = naimark_family([trine_povm(), trine_povm()])
        objs = [p for fam in dil.pvms for p in fam]
        # the side's arena, each family, and the W_k each family holds
        families = list(dil.pvms)
        refs = [weakref.ref(objs[0].base)] + [weakref.ref(x) for x in families]
        refs += [weakref.ref(fam.w) for fam in families if fam.w is not None]
        assert len(refs) == 4 and all(r() is not None for r in refs)
        del dil, families
    else:
        objs = [canonical_chsh()]
        assert games._is_valid(objs[0], 1e-9) and objs[0]._valid_tol == 1e-9
        refs = [weakref.ref(objs[0])]
    del objs
    gc.collect()
    assert all(r() is None for r in refs)  # no proof keeps a projection or W_k alive


@pytest.mark.parametrize("fact", ["completeness", "kappa", "norm"])
def test_a_nan_completeness_or_compression_fact_is_not_read(monkeypatch, fact):
    fams = [trine_povm(), trine_povm()]
    dil = naimark_family(fams)
    if fact == "completeness":
        dil = _with_proof(dil, complete=float("nan"))
        read = ["_completeness_defect"]
    else:
        dil = _with_proof(dil, **{fact: float("nan")})
        read = ["_compression_defect"] * 3  # the family's members
    calls = _counting_dense_reads(monkeypatch)
    check = verify_dilation(fams, dil, tol=1e-10)
    assert calls == read and check.passed
    assert not np.isnan(check.completeness_defects[0])
    assert not np.isnan(check.element_defects[0][1])
