"""Dense complex linear algebra for small multipartite systems.

Everything here works on plain ``numpy`` arrays of dtype complex128.  Vectors
are 1-D, operators are square 2-D, and bipartite structure is always passed
explicitly as a ``dims`` tuple.  Default tolerances: 1e-9 for semantic checks
(Hermiticity, positivity, completeness) and 1e-12 for algebraic identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian

DEFAULT_TOL = 1e-9
EXACT_TOL = 1e-12


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


def dagger(a) -> np.ndarray:
    """Conjugate transpose as a C-ordered copy.

    Arithmetic between ``a`` and the strided view ``a.conj().T`` runs about
    ten times slower at a few hundred rows than on this copy; the entries
    are the same.
    """
    t = as_complex(a).T.copy()
    return np.conjugate(t, out=t)


def identity(d: int) -> np.ndarray:
    return np.eye(d, dtype=np.complex128)


def basis_state(d: int, i: int) -> np.ndarray:
    v = np.zeros(d, dtype=np.complex128)
    v[i] = 1.0
    return v


def frobenius(a) -> float:
    return float(np.linalg.norm(a))


def require_finite(a, what: str = "array") -> np.ndarray:
    a = as_complex(a)
    if not np.all(np.isfinite(a)):
        raise DimensionMismatch(f"{what} contains non-finite entries")
    return a


def require_square(a, what: str = "operator") -> np.ndarray:
    a = as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{what} must be a square matrix, got shape {a.shape}")
    return a


def hermiticity_defect(h) -> float:
    h = as_complex(h)
    d = dagger(h)
    return frobenius(np.subtract(h, d, out=d))


def kron(a, b) -> np.ndarray:
    """Kronecker product with the left factor on the coarse index."""
    return np.kron(as_complex(a), as_complex(b))


def partial_trace(op, dims: tuple[int, int], keep) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator.

    ``dims = (dA, dB)`` declares the factorization; ``keep`` is ``"A"``/``0``
    or ``"B"``/``1``.  The traced result preserves the total trace and
    Hermiticity of the input.
    """
    op = require_square(as_complex(op))
    d_a, d_b = dims
    if op.shape[0] != d_a * d_b:
        raise DimensionMismatch(
            f"operator of dimension {op.shape[0]} does not factor as {d_a}x{d_b}"
        )
    t = op.reshape(d_a, d_b, d_a, d_b)
    if keep in (0, "A", "a"):
        return np.einsum("ijkj->ik", t)
    if keep in (1, "B", "b"):
        return np.einsum("ijil->jl", t)
    raise DimensionMismatch(f"keep must designate subsystem A or B, got {keep!r}")


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (real, descending) and aligned orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_column_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-modulus entry is real nonnegative."""
    v = v.copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        i = int(np.argmax(np.abs(col)))
        a = col[i]
        if abs(a) > 0:
            v[:, k] = col * (a.conjugate() / abs(a))
    return v


def hermitian_eig(h, tol: float = DEFAULT_TOL) -> SpectralData:
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending.

    Raises :class:`NotHermitian` when the input is not Hermitian within
    ``tol`` (relative to its Frobenius norm).  Eigenvector phases follow the
    convention of :func:`_fix_column_phases` so the output is deterministic.
    """
    h = require_square(require_finite(h, "matrix"))
    if hermiticity_defect(h) > tol * max(1.0, frobenius(h)):
        raise NotHermitian(
            f"matrix is not Hermitian within tolerance: defect {hermiticity_defect(h):.3e}"
        )
    sym = (h + h.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(sym)
    evals = evals[::-1].copy()
    evecs = _fix_column_phases(evecs[:, ::-1])
    return SpectralData(eigenvalues=evals, eigenvectors=evecs)


def is_psd(h, tol: float = DEFAULT_TOL) -> bool:
    """True iff the Hermitian part of ``h`` has min eigenvalue > -tol.

    The package's only PSD predicate, and the one that decides validity of
    strategies and POVMs (eigenvalues are computed only for reports).  It is
    a Cholesky factorization of ``(h + h*)/2 + tol*1``, which exists exactly
    when the minimum eigenvalue exceeds ``-tol``, up to a backward error of
    about ``n*u*||h||`` (u the unit roundoff; about 4e-14 at n = 324), the
    same floor ``eigvalsh`` has.  Non-finite input is not PSD: Cholesky
    reads one triangle and returns NaN there without raising.
    """
    h = require_square(as_complex(h))
    if not np.all(np.isfinite(h)):
        return False
    sym = dagger(h)
    sym += h
    sym *= 0.5
    sym[np.diag_indices_from(sym)] += tol
    try:
        np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        return False
    return True


def psd_sqrt(h) -> np.ndarray:
    """Square root of a PSD matrix.

    Eigenvalues within double-precision dust of zero (including tiny negative
    ones) are clipped to exactly 0 so the square root never amplifies 1e-16
    roundoff into 1e-8 entries.
    """
    h = require_square(as_complex(h))
    sym = (h + h.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(sym)
    floor = 1e-13 * max(1.0, float(evals[-1]) if evals.size else 1.0)
    evals = np.where(evals > floor, evals, 0.0)
    return (evecs * np.sqrt(evals)) @ evecs.conj().T


def projector_defect(p) -> float:
    """Frobenius distance of ``p`` from being an orthogonal projection."""
    p = as_complex(p)
    return max(frobenius(p @ p - p), hermiticity_defect(p))


def permute_systems(x, dims, perm) -> np.ndarray:
    """Reorder tensor factors of a vector or square operator.

    ``dims`` lists the current factor dimensions and ``perm`` the new order:
    factor ``perm[k]`` of the input becomes factor ``k`` of the output.
    """
    x = as_complex(x)
    dims = tuple(int(d) for d in dims)
    perm = tuple(int(p) for p in perm)
    n = len(dims)
    if sorted(perm) != list(range(n)):
        raise DimensionMismatch(f"perm {perm} is not a permutation of 0..{n - 1}")
    total = int(np.prod(dims))
    if x.ndim == 1:
        if x.size != total:
            raise DimensionMismatch("vector size does not match dims")
        return x.reshape(dims).transpose(perm).reshape(-1)
    if x.ndim == 2:
        if x.shape != (total, total):
            raise DimensionMismatch("operator shape does not match dims")
        full = x.reshape(dims + dims)
        axes = perm + tuple(p + n for p in perm)
        return full.transpose(axes).reshape(total, total)
    raise DimensionMismatch("expected a vector or a square operator")


def apply_factors(vec, dims, ops) -> np.ndarray:
    """Apply one operator per tensor factor to a vector (None = identity).

    Operators may be rectangular (isometries), in which case the factor
    dimension changes.  Avoids materializing large Kronecker products.
    """
    vec = as_complex(vec)
    dims = tuple(int(d) for d in dims)
    if vec.size != int(np.prod(dims)):
        raise DimensionMismatch("vector size does not match dims")
    t = vec.reshape(dims)
    for axis, op in enumerate(ops):
        if op is None:
            continue
        op = as_complex(op)
        if op.shape[1] != t.shape[axis]:
            raise DimensionMismatch(
                f"factor {axis} has dimension {t.shape[axis]}, operator expects {op.shape[1]}"
            )
        t = np.moveaxis(np.tensordot(op, t, axes=([1], [axis])), 0, axis)
    return t.reshape(-1)


def encode_complex_array(a) -> list:
    """Nested lists of [re, im] pairs (row-major), the package wire format."""
    a = as_complex(a)
    if a.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in a]
    if a.ndim == 2:
        return [[[float(z.real), float(z.imag)] for z in row] for row in a]
    raise DimensionMismatch("only vectors and matrices serialize")


def decode_complex_array(obj) -> np.ndarray:
    """Inverse of :func:`encode_complex_array`; exact for round-tripped floats."""
    arr = np.asarray(obj, dtype=np.float64)
    if arr.ndim == 2 and arr.shape[-1] == 2:
        return arr[:, 0] + 1j * arr[:, 1]
    if arr.ndim == 3 and arr.shape[-1] == 2:
        return arr[:, :, 0] + 1j * arr[:, :, 1]
    raise DimensionMismatch("expected nested [re, im] pairs for a vector or matrix")
