"""Schmidt decomposition, local supports, purification, and strategy restriction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidState
from .games import Strategy

RANK_TOL = 1e-10


@dataclass(frozen=True)
class SchmidtData:
    """Retained Schmidt coefficients (descending) with aligned local bases.

    ``left`` and ``right`` hold the Schmidt vectors as columns; only
    coefficients above ``RANK_TOL`` times the largest one are retained.
    """

    coefficients: np.ndarray
    left: np.ndarray
    right: np.ndarray
    rank: int


def schmidt_decompose(psi, dims: tuple[int, int]) -> SchmidtData:
    """SVD-based Schmidt decomposition of a bipartite vector, whose norm the caller checks.

    Phase convention: coefficients are real positive, and each left vector's
    largest-modulus entry is made real positive with the compensating phase
    pushed onto the right vector.
    """
    psi = linalg.require_finite(psi, "state")
    d_a, d_b = (int(dims[0]), int(dims[1]))
    if psi.ndim != 1 or psi.size != d_a * d_b:
        raise DimensionMismatch(f"state of size {psi.size} does not factor as {d_a}x{d_b}")
    m = psi.reshape(d_a, d_b)
    u, sing, vh = np.linalg.svd(m, full_matrices=False)
    keep = sing > RANK_TOL * (sing[0] if sing.size else 0.0)
    rank = int(np.count_nonzero(keep))
    coeffs = sing[:rank].copy()
    left = u[:, :rank].copy()
    right = vh[:rank, :].T.copy()  # column k is the k-th right Schmidt vector
    for k, phase in linalg._column_phases(left):  # the convention of hermitian_eig
        left[:, k] = left[:, k] * phase
        right[:, k] = right[:, k] * phase.conjugate()
    return SchmidtData(coefficients=coeffs, left=left, right=right, rank=rank)


def local_supports(sd: SchmidtData) -> tuple[np.ndarray, np.ndarray]:
    """Projections onto the left and right local supports of the state."""
    pi_a = sd.left @ sd.left.conj().T
    pi_b = sd.right @ sd.right.conj().T
    return pi_a, pi_b


def restrict(s: Strategy) -> tuple[Strategy, np.ndarray, np.ndarray]:
    """Compress a pure strategy to the local supports of its state.

    Returns the full-rank restricted strategy together with the isometries
    ``U_A, U_B`` mapping the compressed spaces back into the original ones:
    their columns are the Schmidt vectors of :func:`schmidt_decompose` at
    ``RANK_TOL``.  Elements become ``U* E U`` and the state
    ``(U_A* (x) U_B*) psi``, which is the diagonal vector of Schmidt
    coefficients.  Completeness on the support is exact: ``U* (sum E) U = 1``.
    """
    psi = s.pure_state()
    sd = schmidt_decompose(psi, s.dims)
    u_a, u_b = sd.left, sd.right
    alice = [[u_a.conj().T @ e @ u_a for e in fam] for fam in s.alice]
    bob = [[u_b.conj().T @ e @ u_b for e in fam] for fam in s.bob]
    psi_res = linalg.apply_factors(psi, s.dims, (u_a.conj().T, u_b.conj().T))
    psi_res = psi_res / np.linalg.norm(psi_res)
    restricted = Strategy(state=psi_res, dims=(sd.rank, sd.rank), alice=alice, bob=bob)
    return restricted, u_a, u_b


def purify(rho) -> np.ndarray:
    """Spectral purification ``sum_i sqrt(p_i) |v_i>|i>_P`` of a density operator.

    The purifying factor comes last and has dimension equal to the numerical
    rank of ``rho``: the number of eigenvalues above 1e-12 times the largest.
    """
    rho = linalg.require_square(linalg.require_finite(rho, "density operator"))
    if linalg.hermiticity_defect(rho) > 1e-9 * max(1.0, linalg.frobenius(rho)):
        raise InvalidState("density operator must be Hermitian")
    if abs(float(np.real(np.trace(rho))) - 1.0) > 1e-9:
        raise InvalidState("density operator must have unit trace")
    spec = linalg.hermitian_eig(rho)
    if spec.eigenvalues[-1] < -1e-9:
        raise InvalidState("density operator must be positive semidefinite")
    return _purification(spec)


def _purification(spec: linalg.SpectralData) -> np.ndarray:
    """:func:`purify` from the spectrum of ``rho``, with no check of ``rho``."""
    lam = spec.eigenvalues  # descending, so the kept ones come first
    rank = int(np.count_nonzero(lam > 1e-12 * max(lam[0], 0.0)))
    psi = (spec.eigenvectors[:, :rank] * np.sqrt(lam[:rank])).reshape(-1)
    return psi / np.linalg.norm(psi)
