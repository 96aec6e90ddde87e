"""Naimark dilation of POVM families and of pure strategies.

The iterative construction dilates any finite list of POVM families on one
space to simultaneous projective families on ``C^d (x) C^{m_1} (x) ...``,
one ancilla factor per family.  Step ``k`` pushes family ``k`` forward
through the isometry built so far (the identity defect ``1 - V V*`` joins
outcome 0) and maps ``C^{D_{k-1}}`` into ``C^{D_{k-1}} (x) C^{m_k}`` by the
square-root isometry ``V2_k``; the embedding is ``V = V2_n ... V2_1``.

The dilated projections are computed in closed form rather than by
re-embedding every earlier family at each later step.  With
``W_k = V2_n ... V2_{k+1}`` (``D x D_k``, columns grouped as
``(D_{k-1}, m_k)``) and ``W_kj`` its column block of outcome ``j``,

    P_kj = W_kj W_kj*            (j >= 1)
    P_k0 = 1 - sum_{j>=1} P_kj   = W_k0 W_k0* + (1 - W_k W_k*)

The second form of ``P_k0`` is the telescoped sum of the defects
``1 - V2 V2*`` that each later step adds at outcome 0:
``W (1 - V2 V2*) W* + (1 - W W*) = 1 - (W V2)(W V2)*``.  The last family is
``1 (x) |j><j|``.  Family ``k`` costs ``D^2 D_k`` (one Gram product per
projection) instead of ``O(n)`` products of ``D x D`` matrices per element.

:func:`naimark_strategy` proves its output valid from the same factors:
``||W_k* W_k - 1||_F`` (one Gram product, ``D D_k^2``) and a GEMM rounding
term bound the spectrum of every stored ``P_kj`` near ``[0, 1]``, in place
of the gate's ``D^3/3`` Cholesky per element (see :func:`_proven_dilation`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import games, linalg
from .errors import DimensionMismatch, InvalidPovm
from .games import Strategy

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


@dataclass(frozen=True)
class NaimarkDilation:
    """Projective families on the dilated space plus the embedding isometry.

    Invariants: ``V* V = 1`` on the source space, every element of ``pvms``
    is a projection, each family sums to the identity, and the compressions
    ``V* P V`` reproduce the source POVM elements.
    """

    pvms: tuple[tuple[np.ndarray, ...], ...]
    isometry: np.ndarray
    dims: tuple[int, int]


def _step_isometries(povms, gate: bool = True) -> tuple[list[np.ndarray], np.ndarray]:
    """The per-family step isometries ``V2_k`` and their product ``V = V2_n ... V2_1``.

    Needs non-empty families (else :class:`InvalidPovm`), built by ``games._families`` at
    the first element's dimension; with ``gate``, each must pass ``games._family_valid``
    at the default tolerance (else :class:`InvalidPovm`)."""
    povms = [list(family) for family in povms]
    if not povms or not all(povms):
        raise InvalidPovm("need at least one POVM family, each with at least one element")
    d = np.atleast_1d(povms[0][0]).shape[0]
    povms = games._families(povms, d, "POVM")
    for k, family in enumerate(povms):
        if gate and not games._family_valid(family, linalg.DEFAULT_TOL):
            raise InvalidPovm(f"POVM family {k} fails the validity gate")

    dim_now = d
    v_total = linalg.identity(d)
    steps = []
    for family in povms:
        m = len(family)
        pushed = [v_total @ e @ v_total.conj().T for e in family]
        pushed[0] = pushed[0] + (linalg.identity(dim_now) - v_total @ v_total.conj().T)
        # v2: phi -> sum_j sqrt(pushed_j) phi (x) e_j, an isometry into dim_now*m
        v2 = np.zeros((dim_now * m, dim_now), dtype=np.complex128)
        v2_view = v2.reshape(dim_now, m, dim_now)
        for j in range(m):
            v2_view[:, j, :] = linalg.psd_sqrt(pushed[j])
        steps.append(v2)
        v_total = v2 @ v_total
        dim_now *= m
    return steps, v_total


def naimark_isometry(povms) -> np.ndarray:
    """The embedding isometry of :func:`naimark_family`, without the projections."""
    return _step_isometries(povms)[1]


def _factored_families(steps: list[np.ndarray], dim: int):
    """Yield each dilated family, the last first, with its factor ``W_k``:
    ``None`` for the last family ``1 (x) |j><j|``.  Every projection is read-only."""
    w = None  # W_k; the identity for the last family
    for v2 in reversed(steps):
        dim_prev = v2.shape[1]
        m = v2.shape[0] // dim_prev
        if w is None:
            fam = [_outcome_projector(dim, m, j) for j in range(m)]
        else:
            blocks = w.reshape(dim, dim_prev, m)
            tail = [blocks[:, :, j] @ blocks[:, :, j].conj().T for j in range(1, m)]
            first = linalg.identity(dim)
            for p in tail:
                first -= p
            fam = [first] + tail
        for p in fam:
            p.setflags(write=False)
        yield tuple(fam), w
        w = v2 if w is None else w @ v2


def naimark_family(povms) -> NaimarkDilation:
    """Dilate a list of POVM families on a common space simultaneously.

    Builds the step isometries ``V2_k`` once, then each dilated family from
    ``W_k = V2_n ... V2_{k+1}``: ``P_kj = W_kj W_kj*`` for ``j >= 1`` and
    ``P_k0 = 1 - sum_{j>=1} P_kj``, which equals the iterative
    construction's ``W_k0 W_k0*`` plus the telescoped identity defects
    ``1 - W_k W_k*`` (see the module docstring).  Costs ``D^2 D_k`` per
    family on the dilated dimension ``D``.  The projections are read-only, so
    a :class:`Strategy` built from them stores them without a copy.
    """
    steps, v_total = _step_isometries(povms)
    pvms = [fam for fam, _ in _factored_families(steps, v_total.shape[0])]
    return NaimarkDilation(
        pvms=tuple(reversed(pvms)),
        isometry=v_total,
        dims=(v_total.shape[1], v_total.shape[0]),
    )


def _outcome_projector(dim: int, m: int, j: int) -> np.ndarray:
    """``1 (x) |j><j|`` on ``C^{dim/m} (x) C^m``."""
    proj = np.zeros((dim, dim), dtype=np.complex128)
    idx = np.arange(j, dim, m)
    proj[idx, idx] = 1.0
    return proj


def naimark_single(povm) -> NaimarkDilation:
    """Dilate one POVM; the dilated space is ``C^d (x) C^m``."""
    return naimark_family([povm])


_U = np.finfo(np.float64).eps / 2  # unit roundoff


def _gamma(n: int) -> float:
    return n * _U / (1 - n * _U)


def _proven_dilation(povms, gate: bool):
    """The dilated families of :func:`naimark_family`, the isometry ``V``, and
    a ``tol`` at which the dense gate ``games._family_valid`` passes on every
    family, proven from the factors.

    Let ``B = W_k`` (``D x D_k``, as stored), ``B_j`` its column block of
    outcome ``j``, ``f = ||B||_F^2`` and ``delta = ||B* B - 1||_F``.  A
    complex GEMM with inner dimension at most ``D`` errs entrywise by at most
    ``g |X||Y|``, ``g = gamma(D + 2)``, so the computed Gram product
    understates ``delta`` by at most ``g f`` (plus its norm's relative
    rounding), and each stored ``P_j = fl(B_j B_j*)`` is within
    ``g ||B_j||_F^2`` of ``B_j B_j* >= 0`` in Frobenius norm, with
    ``||B_j||^2 <= ||B||^2 <= 1 + delta``.  ``P_0`` is ``1 - sum_{j>=1} P_j``
    plus the rounding of ``m - 1 <= D`` subtractions, at most
    ``g (sqrt(D) + 2f)``, and that exact part lies in ``[1 - B B*, 1]``.  So
    the Hermitian part of every stored element has its spectrum in
    ``[-beta, 1 + beta]`` with ``beta = delta + g (sqrt(D) + 4f)``; ``5f``
    also covers the rounding of ``f``.  The Gram product costs ``D D_k^2``.
    The last family has 0/1 diagonals summing to the identity: ``beta = 0``.

    The Cholesky test of ``H + t 1`` passes when ``lambda_min(H) + t``
    exceeds its backward error, ``n u ||H + t 1||`` as :func:`linalg.is_psd`
    states; doubled for forming the shifted Hermitian part, that holds for
    ``t >= (beta + c (1 + beta)) / (1 - c)`` with ``c = 2 D u``.
    Hermiticity and completeness defects are measured on the stored arrays,
    as the gate measures them, at ``O(D^2)`` each; the last family's are 0.
    """
    steps, v = _step_isometries(povms, gate)
    dim = v.shape[0]
    c = 2 * dim * _U
    pvms, bounds = [], []
    for fam, w in _factored_families(steps, dim):
        beta = 0.0
        if w is not None:
            g = linalg.dagger(w) @ w
            f = float(np.trace(g).real)
            delta = linalg._identity_defect(g) * (1 + _gamma(2 * g.size))
            beta = delta + _gamma(dim + 2) * (dim**0.5 + 5 * f)
            bounds.append(games._completeness_defect(fam))
            bounds.extend(map(linalg.hermiticity_defect, fam))
        bounds.append((beta + c * (1 + beta)) / (1 - c))
        pvms.append(fam)
    return tuple(reversed(pvms)), v, float(np.max(bounds))


def naimark_strategy(s: Strategy) -> tuple[Strategy, np.ndarray, np.ndarray]:
    """Dilate both players' families; the state is embedded as ``(V_A (x) V_B) psi``.

    The returned strategy is projective, produces the same correlation as
    the input, and carries its validity: the largest of
    :func:`_proven_dilation`'s two ``tol`` values and the state's norm
    defect, so the gate answers any ``tol`` at or above it with no Cholesky.
    ``V_A`` and ``V_B`` stay on ``s`` (read-only copies) for
    ``dilation.naimark_embedding``.  A source that has passed the validity
    gate (at any ``tol``) is dilated without gating its families again.
    """
    psi = s.pure_state()
    gate = games._recall(s, "_valid_tol") is None
    pvms_a, v_a, tol_a = _proven_dilation(s.alice, gate)
    pvms_b, v_b, tol_b = _proven_dilation(s.bob, gate)
    dilated = Strategy(
        state=linalg.apply_factors(psi, s.dims, (v_a, v_b)),
        dims=(v_a.shape[0], v_b.shape[0]),
        alice=pvms_a,
        bob=pvms_b,
    )
    norm_defect = abs(float(np.linalg.norm(dilated.state)) - 1.0)
    object.__setattr__(dilated, "_valid_tol", float(np.max([tol_a, tol_b, norm_defect])))
    object.__setattr__(s, "_naimark_isometries", (games._freeze(v_a), games._freeze(v_b)))
    return dilated, v_a, v_b


def trine_povm() -> list[np.ndarray]:
    """The three-outcome qubit POVM with effects (1/3)(1 + n.sigma) on a trine.

    The last element is defined as the completeness complement so the family
    sums to the identity exactly in floating point.
    """
    eye = linalg.identity(2)
    m0 = (eye + PAULI_Z) / 3.0
    m1 = (eye - PAULI_Z / 2.0 + (np.sqrt(3.0) / 2.0) * PAULI_X) / 3.0
    m2 = eye - m0 - m1
    return [m0, m1, m2]


def trine_projector_vectors() -> list[np.ndarray]:
    """The rank-1 directions on C^3 whose projectors compress to the trine."""
    e0 = np.array([np.sqrt(2.0), 0.0, 1.0], dtype=np.complex128) / np.sqrt(3.0)
    e1 = np.array([-1.0, -np.sqrt(3.0), np.sqrt(2.0)], dtype=np.complex128) / np.sqrt(6.0)
    e2 = np.array([-1.0, np.sqrt(3.0), np.sqrt(2.0)], dtype=np.complex128) / np.sqrt(6.0)
    return [e0, e1, e2]


def minimal_trine_dilation() -> NaimarkDilation:
    """Minimal simultaneous dilation of Bob's three canonical families to C^3.

    ``V`` is the canonical embedding C^2 -> C^3.  The trine becomes the three
    rank-1 projectors onto the vectors of :func:`trine_projector_vectors`;
    each binary family is extended projectively, with the off-range defect
    ``1 - V V*`` joining the +1-eigenprojector of the underlying observable.
    Family order matches the Bob questions of the canonical CHSH+trine
    strategy: (X+Z)/sqrt(2) first, (Z-X)/sqrt(2) second, trine third.
    """
    v = np.zeros((3, 2), dtype=np.complex128)
    v[0, 0] = 1.0
    v[1, 1] = 1.0
    eye3 = linalg.identity(3)
    complement = eye3 - v @ v.conj().T

    h_obs = (PAULI_X + PAULI_Z) / np.sqrt(2.0)
    k_obs = (PAULI_Z - PAULI_X) / np.sqrt(2.0)
    h_plus = (linalg.identity(2) + h_obs) / 2.0
    k_plus = (linalg.identity(2) + k_obs) / 2.0
    # k_minus is the +1-eigenprojector of (X-Z)/sqrt(2); the complement rides
    # on the +1 side of each observable as written in the dilated basis
    fam_h = (v @ h_plus @ v.conj().T + complement, v @ (linalg.identity(2) - h_plus) @ v.conj().T)
    fam_k = (v @ k_plus @ v.conj().T, v @ (linalg.identity(2) - k_plus) @ v.conj().T + complement)
    fam_m = tuple(np.outer(e, e.conj()) for e in trine_projector_vectors())
    return NaimarkDilation(pvms=(fam_h, fam_k, fam_m), isometry=v, dims=(2, 3))


@dataclass(frozen=True)
class DilationCheck:
    """Defect tables from verifying a claimed Naimark dilation."""

    tol: float
    isometry_defect: float
    element_defects: tuple[tuple[float, ...], ...]
    projection_defects: tuple[tuple[float, ...], ...]
    completeness_defects: tuple[float, ...]
    passed: bool


def verify_dilation(povms, d: NaimarkDilation, tol: float = 1e-10) -> DilationCheck:
    """Check ``R = V* P V``, projectivity, and completeness of a dilation.

    Raises ``DimensionMismatch`` when the families and the dilation differ in
    family count, in element count per family (an empty family is one), or
    in dimension (each ``R`` on the domain of ``V``, each ``P`` on its codomain).
    """
    v = d.isometry
    povms = [[linalg.as_complex(r) for r in fam] for fam in povms]
    pvms = [[linalg.as_complex(p) for p in fam] for fam in d.pvms]
    if len(povms) != len(pvms):
        raise DimensionMismatch(f"{len(povms)} families against {len(pvms)} dilated ones")
    for k, (family, dilated) in enumerate(zip(povms, pvms)):
        if len(family) != len(dilated) or not family:
            raise DimensionMismatch(
                f"family {k} has {len(family)} elements, its dilation {len(dilated)}"
            )
        for r, p in zip(family, dilated):
            if r.shape != (v.shape[1],) * 2 or p.shape != (v.shape[0],) * 2:
                raise DimensionMismatch(
                    f"family {k} pairs elements of shape {r.shape} and {p.shape} "
                    f"with an isometry of shape {v.shape}"
                )
    iso_defect = linalg._identity_defect(v.conj().T @ v)
    element_defects = tuple(
        tuple(linalg.frobenius(r - v.conj().T @ p @ v) for r, p in zip(family, dilated))
        for family, dilated in zip(povms, pvms)
    )
    projection_defects = tuple(tuple(map(linalg.projector_defect, fam)) for fam in pvms)
    completeness = [games._completeness_defect(fam) for fam in pvms]
    # np.max, unlike max, keeps a NaN defect, which then fails the verdict
    worst = np.max(
        [iso_defect]
        + [x for t in element_defects for x in t]
        + [x for t in projection_defects for x in t]
        + completeness
    )
    return DilationCheck(
        tol=tol,
        isometry_defect=iso_defect,
        element_defects=element_defects,
        projection_defects=projection_defects,
        completeness_defects=tuple(completeness),
        passed=bool(worst <= tol),
    )
