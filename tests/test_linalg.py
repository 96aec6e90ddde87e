import math
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selftest_lab import linalg
from selftest_lab.errors import DimensionMismatch, NotHermitian
from selftest_lab.lab import PAULI_X, PAULI_Z

from helpers import haar_isometry, haar_unitary, random_density, random_pure_state

RNG = np.random.default_rng(101)


def test_partial_trace_maximally_entangled():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    assert np.allclose(linalg.partial_trace(rho, (2, 2), "A"), np.eye(2) / 2)
    assert np.allclose(linalg.partial_trace(rho, (2, 2), "B"), np.eye(2) / 2)


def test_partial_trace_product_case():
    for _ in range(10):
        rho = random_density(RNG, 3)
        sig = random_density(RNG, 2)
        big = np.kron(rho, sig)
        assert np.max(np.abs(linalg.partial_trace(big, (3, 2), "A") - rho)) <= 1e-12
        assert np.max(np.abs(linalg.partial_trace(big, (3, 2), "B") - sig)) <= 1e-12


def test_partial_trace_preserves_trace_and_hermiticity():
    for _ in range(10):
        rho = random_density(RNG, 6)
        out = linalg.partial_trace(rho, (2, 3), "A")
        assert abs(np.trace(out) - np.trace(rho)) <= 1e-12
        assert linalg.hermiticity_defect(out) <= 1e-12


def test_partial_trace_dimension_error():
    with pytest.raises(DimensionMismatch):
        linalg.partial_trace(np.eye(5), (2, 2), "A")


@pytest.mark.parametrize("keep", [0, 1, "a", "b", "AB"])
def test_partial_trace_keeps_only_a_or_b(keep):
    with pytest.raises(DimensionMismatch, match="keep must designate subsystem A or B"):
        linalg.partial_trace(np.eye(4), (2, 2), keep)


def test_hermitian_eig_identity_and_z():
    spec = linalg.hermitian_eig(np.eye(2))
    assert np.allclose(spec.eigenvalues, [1, 1])
    spec = linalg.hermitian_eig(PAULI_Z)
    assert np.allclose(spec.eigenvalues, [1, -1])
    # eigenvectors |0>, |1> up to phase; the convention makes them exact
    assert np.allclose(np.abs(spec.eigenvectors), np.eye(2))


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        linalg.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_eig_reconstruction_random():
    for k in range(200):
        d = int(RNG.integers(2, 13))
        g = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
        h = (g + g.conj().T) / 2
        spec = linalg.hermitian_eig(h)
        v = spec.eigenvectors
        recon = (v * spec.eigenvalues) @ v.conj().T
        scale = max(1.0, linalg.frobenius(h))
        assert linalg.frobenius(recon - h) <= 1e-10 * scale
        assert linalg.frobenius(v.conj().T @ v - np.eye(d)) <= 1e-10
        assert np.all(np.diff(spec.eigenvalues) <= 1e-12)


def test_is_psd():
    assert linalg.is_psd(np.eye(2), 1e-9)
    assert not linalg.is_psd(-np.eye(2), 1e-9)
    m1 = (np.eye(2) - PAULI_Z / 2 + np.sqrt(3) / 2 * PAULI_X) / 3
    assert linalg.is_psd(m1, 1e-9)
    evals = np.linalg.eigvalsh(m1)
    assert np.allclose(sorted(evals), [0, 2 / 3], atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, np.nan)])
@pytest.mark.parametrize("where", [(0, 1), (1, 0), (1, 1)])
def test_is_psd_rejects_non_finite(bad, where):
    # Cholesky reads one triangle and returns NaN for NaN input without raising
    m = np.eye(2, dtype=complex)
    m[where] = bad
    assert not linalg.is_psd(m, 1e-9)


PARTS = [0.0, -0.0, 1.0, -2.5, 1e-300, 1e308, -1e308, math.inf, -math.inf, math.nan]


@st.composite
def complex_arrays(draw):
    shape = draw(st.sampled_from([(0,), (1,), (5,), (2, 2), (3, 4)]))
    parts = st.lists(st.sampled_from(PARTS), min_size=math.prod(shape), max_size=math.prod(shape))
    out = np.empty(shape, dtype=np.complex128)
    out.real = np.reshape(draw(parts), shape)
    out.imag = np.reshape(draw(parts), shape)
    return out


def _parts(re, im):
    out = np.empty(len(re), dtype=np.complex128)
    out.real, out.imag = re, im
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(complex_arrays())
@example(_parts([1.0, 2.0], [0.0, math.nan]))  # a NaN in an imaginary part only
@example(_parts([math.inf, -math.inf], [0.0, 0.0]))  # infinities that cancel to NaN
@example(_parts([1e308, 1e308, 1.0], [-1e308, -1e308, 0.0]))  # finite; the sum overflows
def test_finiteness_verdict_is_entrywise(a):
    want = bool(np.all(np.isfinite(a)))
    if want:
        assert linalg.require_finite(a) is a
    else:
        with pytest.raises(DimensionMismatch, match="non-finite"):
            linalg.require_finite(a)
        if a.ndim == 2 and a.shape[0] == a.shape[1]:
            assert not linalg.is_psd(a)


def test_is_psd_boundary_against_eigenvalues():
    u = haar_unitary(RNG, 6)
    for tol in (1e-9, 1e-12):
        for lam, want in ((-2 * tol, False), (-tol / 2, True), (0.0, True)):
            h = u @ np.diag([lam, 0.1, 0.3, 0.5, 0.7, 1.0]).astype(complex) @ u.conj().T
            assert linalg.is_psd(h, tol) is want


def test_dagger_is_contiguous_conjugate_transpose():
    m = RNG.normal(size=(5, 3)) + 1j * RNG.normal(size=(5, 3))
    d = linalg.dagger(m)
    assert d.flags["C_CONTIGUOUS"]
    assert np.array_equal(d, m.conj().T)


def test_permute_systems_roundtrip():
    v = random_pure_state(RNG, 24)
    w = linalg.permute_systems(v, (2, 3, 4), (2, 0, 1))
    back = linalg.permute_systems(w, (4, 2, 3), (1, 2, 0))
    assert np.allclose(v, back)
    op = RNG.normal(size=(6, 6)) + 1j * RNG.normal(size=(6, 6))
    swapped = linalg.permute_systems(op, (2, 3), (1, 0))
    assert np.allclose(linalg.permute_systems(swapped, (3, 2), (1, 0)), op)


def test_apply_factors_matches_kron():
    v = random_pure_state(RNG, 6)
    a = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    b = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
    assert np.allclose(linalg.apply_factors(v, (2, 3), (a, b)), np.kron(a, b) @ v)
    iso = np.zeros((5, 3), dtype=complex)
    iso[:3, :3] = np.eye(3)
    out = linalg.apply_factors(v, (2, 3), (None, iso))
    assert out.size == 10
    assert np.allclose(out, np.kron(np.eye(2), iso) @ v)


@st.composite
def factor_problems(draw):
    """A vector on 1-4 factors of dimension 1-4 and one operator per factor:
    None, square, a rectangular isometry, or a general rectangular matrix."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = []
    for d in dims:
        kind = draw(st.sampled_from(["none", "square", "isometry", "matrix"]))
        if kind == "none":
            ops.append(None)
        elif kind == "isometry":
            ops.append(haar_isometry(rng, d + draw(st.integers(0, 3)), d))
        else:
            rows = d if kind == "square" else draw(st.integers(1, 5))
            g = rng.normal(size=(rows, d)) + 1j * rng.normal(size=(rows, d))
            ops.append(g / np.linalg.norm(g))
    return random_pure_state(rng, math.prod(dims)), dims, ops


@settings(max_examples=300, deadline=None, derandomize=True)
@given(factor_problems())
def test_apply_factors_matches_explicit_kron(problem):
    vec, dims, ops = problem
    full = reduce(np.kron, [np.eye(d) if op is None else op for d, op in zip(dims, ops)])
    out = linalg.apply_factors(vec, dims, ops)
    assert out.shape == (full.shape[0],)
    assert np.max(np.abs(out - full @ vec)) <= 1e-12


def test_apply_factors_checks_dimensions():
    v = random_pure_state(RNG, 6)
    with pytest.raises(DimensionMismatch):
        linalg.apply_factors(v, (2, 2), (None, None))
    with pytest.raises(DimensionMismatch):
        linalg.apply_factors(v, (2, 3), (None, np.eye(2)))
    with pytest.raises(DimensionMismatch):  # factor 1 keeps dimension 3 after factor 0 grows
        linalg.apply_factors(v, (2, 3), (np.ones((3, 2)), np.eye(2)))


def test_decode_infinite_imaginary_part_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = linalg.decode_complex_array([[0.0, math.inf], [-0.0, -0.0]])
    assert out[0].real == 0.0 and out[0].imag == math.inf
    # each part is stored as given, signed zeros included
    assert math.copysign(1.0, out[1].real) == -1.0 and math.copysign(1.0, out[1].imag) == -1.0


def test_complex_array_roundtrip():
    m = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
    assert np.array_equal(linalg.decode_complex_array(linalg.encode_complex_array(m)), m)
    v = random_pure_state(RNG, 5)
    assert np.array_equal(linalg.decode_complex_array(linalg.encode_complex_array(v)), v)


def test_require_square_refuses_a_rectangle():
    with pytest.raises(DimensionMismatch, match=r"square matrix, got shape \(2, 3\)"):
        linalg.require_square(np.ones((2, 3)))


@pytest.mark.parametrize(
    "a, perm, message",
    [
        (np.ones(4), (0, 0), r"perm \(0, 0\) is not a permutation of 0..1"),
        (np.ones(5), (1, 0), "vector size does not match dims"),
        (np.ones((4, 5)), (1, 0), "operator shape does not match dims"),
        (np.ones((4, 4, 4)), (1, 0), "expected a vector or a square operator"),
    ],
)
def test_permute_systems_refuses_a_bad_perm_or_shape(a, perm, message):
    with pytest.raises(DimensionMismatch, match=message):
        linalg.permute_systems(a, (2, 2), perm)


def test_encode_complex_array_refuses_three_axes():
    with pytest.raises(DimensionMismatch, match="only vectors and matrices serialize"):
        linalg.encode_complex_array(np.ones((2, 2, 2)))
