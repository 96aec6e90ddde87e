"""Dense complex linear algebra for small multipartite systems.

Everything here works on plain ``numpy`` arrays of dtype complex128.  Vectors
are 1-D, operators are square 2-D, and bipartite structure is always passed
explicitly as a ``dims`` tuple.  The default tolerance for semantic checks
(Hermiticity, positivity, completeness) is 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian

DEFAULT_TOL = 1e-9
_U = np.finfo(np.float64).eps / 2  # unit roundoff


def _gamma(n: float) -> float:
    """``n u / (1 - n u)``, the relative error bound of ``n`` roundings."""
    return n * _U / (1 - n * _U)


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


def _identity_defect(x: np.ndarray) -> float:
    """``||x - 1||_F`` for a square ``x``, whose diagonal it shifts in place."""
    x.flat[:: x.shape[0] + 1] -= 1.0
    return frobenius(x)


def _all_finite(a: np.ndarray) -> bool:
    """``np.all(np.isfinite(a))``, from one sum when that sum is finite: a sum
    with a NaN or infinite term is not finite, and one that overflowed (or had
    ``inf`` and ``-inf`` terms) is checked entry by entry."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = a.sum()
    return bool(np.isfinite(total) or np.all(np.isfinite(a)))


def require_finite(a, what: str = "array") -> np.ndarray:
    a = as_complex(a)
    if not _all_finite(a):
        raise DimensionMismatch(f"{what} contains non-finite entries")
    return a


def require_square(a) -> np.ndarray:
    a = as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"operator must be a square matrix, got shape {a.shape}")
    return a


def hermiticity_defect(h) -> float:
    h = as_complex(h)
    d = dagger(h)
    return frobenius(np.subtract(h, d, out=d))


def partial_trace(op, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator.

    ``dims = (dA, dB)`` declares the factorization; ``keep`` names the factor
    that stays, ``"A"`` or ``"B"`` (anything else raises
    :class:`DimensionMismatch`).  The traced result preserves the total trace
    and Hermiticity of the input.
    """
    op = require_square(as_complex(op))
    d_a, d_b = dims
    if op.shape[0] != d_a * d_b:
        raise DimensionMismatch(
            f"operator of dimension {op.shape[0]} does not factor as {d_a}x{d_b}"
        )
    t = op.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        return np.einsum("ijkj->ik", t)
    if keep == "B":
        return np.einsum("ijil->jl", t)
    raise DimensionMismatch(f"keep must designate subsystem A or B, got {keep!r}")


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (real, descending) and aligned orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _column_phases(v: np.ndarray):
    """Yield ``(k, phase)`` per nonzero column ``k`` of ``v``, the unit phase making its
    largest-modulus entry real positive; column ``k`` is read only when yielded."""
    for k in range(v.shape[1]):
        a = v[int(np.argmax(np.abs(v[:, k]))), k]
        if abs(a) > 0:
            yield k, a.conjugate() / abs(a)


def _fix_column_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-modulus entry is real nonnegative."""
    v = v.copy()
    for k, phase in _column_phases(v):
        v[:, k] = v[:, k] * phase
    return v


def hermitian_eig(h) -> SpectralData:
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending.

    Raises :class:`NotHermitian` when the input is not Hermitian within
    ``DEFAULT_TOL`` (relative to its Frobenius norm).  Eigenvector phases follow the
    convention of :func:`_fix_column_phases` so the output is deterministic.
    """
    h = require_square(require_finite(h, "matrix"))
    if hermiticity_defect(h) > DEFAULT_TOL * max(1.0, frobenius(h)):
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
    if not _all_finite(h):
        return False
    return _shifted_cholesky_exists(h, dagger(h), tol)


def _hermitian_psd(h: np.ndarray, tol: float) -> bool:
    """``hermiticity_defect(h) <= tol and is_psd(h, tol)`` for a finite square
    complex128 ``h``, from one conjugate transpose."""
    d = dagger(h)
    return frobenius(h - d) <= tol and _shifted_cholesky_exists(h, d, tol)


def _shifted_cholesky_exists(h: np.ndarray, d: np.ndarray, tol: float) -> bool:
    """Whether ``(h + d)/2 + tol*1`` has a Cholesky factor, with ``d = dagger(h)``;
    overwrites ``d``, halving both terms first so that no finite sum overflows."""
    d *= 0.5
    d += 0.5 * h
    d.flat[:: d.shape[0] + 1] += tol
    try:
        np.linalg.cholesky(d)
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
    herm = hermiticity_defect(p)  # first, so its copy is freed before p @ p
    sq = p @ p
    sq -= p
    return max(frobenius(sq), herm)


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
    dimension changes.  Each is one ``matmul`` on the vector viewed as
    ``(before, d_k, after)``: ``O(size * d_k)`` time, no Kronecker product
    and no axis reordering.
    """
    t = as_complex(vec)
    dims = [int(d) for d in dims]
    if t.size != math.prod(dims):
        raise DimensionMismatch("vector size does not match dims")
    for axis, op in enumerate(ops):
        if op is None:
            continue
        op = as_complex(op)
        d = dims[axis]
        if op.shape[1] != d:
            raise DimensionMismatch(
                f"factor {axis} has dimension {d}, operator expects {op.shape[1]}"
            )
        t = op @ t.reshape(math.prod(dims[:axis]), d, math.prod(dims[axis + 1 :]))
        dims[axis] = op.shape[0]
    return t.reshape(-1)


def encode_complex_array(a) -> list:
    """Nested lists of [re, im] pairs (row-major), the package wire format."""
    a = as_complex(a)
    if a.ndim not in (1, 2):
        raise DimensionMismatch("only vectors and matrices serialize")
    return np.stack((a.real, a.imag), axis=-1).tolist()


def decode_complex_array(obj) -> np.ndarray:
    """Inverse of :func:`encode_complex_array`; exact for round-tripped floats, whose
    parts are assigned (``re + 1j*im`` warns on an infinite imaginary part)."""
    arr = np.asarray(obj, dtype=np.float64)
    if arr.ndim not in (2, 3) or arr.shape[-1] != 2:
        raise DimensionMismatch("expected nested [re, im] pairs for a vector or matrix")
    out = np.empty(arr.shape[:-1], dtype=np.complex128)
    out.real, out.imag = arr[..., 0], arr[..., 1]
    return out
