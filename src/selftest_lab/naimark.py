"""Naimark dilation of POVM families and of pure strategies.

The iterative construction dilates any finite list of POVM families on one
space to simultaneous projective families on ``C^d (x) C^{m_1} (x) ...``,
one ancilla factor per family.  Step ``k`` pushes family ``k`` forward
through the isometry built so far (the identity defect ``1 - V V*`` joins
outcome 0) and maps ``C^{D_{k-1}}`` into ``C^{D_{k-1}} (x) C^{m_k}`` by the
square-root isometry ``V2_k``; the embedding is ``V = V2_n ... V2_1``.
No square root is taken above the source dimension ``d``: for an isometry
``V`` (``V* V = 1``, so ``V V*`` is a projection),

    sqrt(V E V*)                 = V sqrt(E) V*
    sqrt(V E_0 V* + 1 - V V*)    = V sqrt(E_0) V* + (1 - V V*)
                                 = 1 + V (sqrt(E_0) - 1) V*

so step ``k`` costs one ``d x d`` root per element and ``D_{k-1}^2 d`` per
block of ``V2_k``, where the pushed elements' roots cost ``D_{k-1}^3`` each.

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

:func:`naimark_family` and :func:`naimark_strategy` prove their output valid
from the same factors, reading no projection once it is built:
``||W_k* W_k - 1||_F`` (one Gram product, ``D D_k^2``) and a GEMM rounding
term put every stored ``P_kj`` within ``e`` (Frobenius) of a Hermitian
``X_kj`` with spectrum near ``[0, 1]``.  That bounds, in place of the gate's
``D^3/3`` Cholesky and its ``O(D^2)`` Hermiticity and completeness passes per
element, the spectrum, ``||P - P*||_F <= 2e``, each family's completeness
defect (of order ``gamma(m) (sqrt(D) + f + e)``, ``f = ||W_k||_F^2``) and
each ``||P_kj^2 - P_kj||_F`` (:func:`_proven_dilation` derives them).  The
validity ``tol`` and the projectivity bounds are kept as facts (see
``games.Strategy``); :func:`verify_dilation` reads the second in place of a
dense ``P @ P``, and measures a dilation given as matrices.  The proof holds
whatever ``V2_k`` is, because the Gram defect is measured on the stored ``W_k``.

Each projection also keeps its factor as a fact: ``W_kj`` (``j >= 1``), the
tail ``[W_k1 ... W_k(m-1)]`` (``j = 0``) or its rows (last family), all slices
of one sealed ``W_k`` per family.  ``games._times`` takes ``P x`` through it
for a thin ``x``, at ``D D_k`` per column in place of ``D^2``, so the
pure-state kernels read no ``D x D`` projection of a dilated strategy; the
result is within ``(e + gamma(D + 2) ||P||_F + gamma(D + D_k + 5) (f + 1 +
delta)) ||x||_F`` of the dense ``P @ x`` (:func:`_proven_dilation`).
:func:`verify_dilation` never reads the factor: it measures the stored arrays.
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


def _step_isometries(
    povms, gate: bool = True, d: int | None = None
) -> tuple[list[np.ndarray], np.ndarray]:
    """The per-family step isometries ``V2_k`` and their product ``V = V2_n ... V2_1``,
    each block of ``V2_k`` from the ``d x d`` root of a source element (module docstring).

    Needs non-empty families (else :class:`InvalidPovm`), built by ``games._families`` at
    the source dimension ``d``, or the first element's dimension when ``d`` is None; with
    ``gate``, each must pass ``games._family_valid`` at the default tolerance (else
    :class:`InvalidPovm`).  With ``d``, no families is a valid input: no steps, and ``V``
    the identity on ``C^d``."""
    povms = [list(family) for family in povms]
    if not all(povms) or (not povms and d is None):
        raise InvalidPovm("need at least one POVM family, each with at least one element")
    if d is None:
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
        # v2: phi -> sum_j sqrt(pushed_j) phi (x) e_j, an isometry into dim_now*m,
        # with sqrt(pushed_j) = V sqrt(E_j) V*, and 1 + V (sqrt(E_0) - 1) V* at j = 0
        roots = [v_total @ linalg.psd_sqrt(e) for e in family]
        roots[0] -= v_total
        v_h = linalg.dagger(v_total)
        v2 = np.empty((dim_now, m, dim_now), dtype=np.complex128)
        for j, r in enumerate(roots):
            v2[:, j, :] = r @ v_h
        v2[:, 0, :] += linalg.identity(dim_now)
        steps.append(v2.reshape(dim_now * m, dim_now))
        v_total = steps[-1] @ v_total
        dim_now *= m
    return steps, v_total


def naimark_isometry(povms, d: int | None = None) -> np.ndarray:
    """The embedding isometry of :func:`naimark_family`, without the projections;
    the identity on ``C^d`` for no families when the source dimension ``d`` is given."""
    return _step_isometries(povms, d=d)[1]


def _factored_families(steps: list[np.ndarray], dim: int):
    """Yield each dilated family, the last first, with its factor ``W_k`` stored
    sealed with its columns grouped by outcome, so each ``W_kj`` is a column
    slice: ``None`` for the last family ``1 (x) |j><j|``.  Every projection is
    built in place in sealed memory (``games._sealed``), so none is copied, and
    keeps its factor as its fact ``factor`` (see ``games._times``): ``("range",
    W_kj)`` for ``j >= 1``, ``("complement", [W_k1 ... W_k(m-1)])`` for ``j = 0``,
    and ``("rows", slice(j, None, m))`` in the last family."""
    w = None  # W_k, columns grouped (D_{k-1}, m); the identity for the last family
    for v2 in reversed(steps):
        dim_prev = v2.shape[1]
        m = v2.shape[0] // dim_prev
        fam, outs = zip(*(games._sealed((dim, dim)) for _ in range(m)))
        if w is None:
            w_k = None
            for j in range(m):
                outs[j][np.arange(j, dim, m), np.arange(j, dim, m)] = 1.0
                games._remember(fam[j], factor=("rows", slice(j, None, m)))
        else:
            w_k, out = games._sealed((dim, m * dim_prev))
            out.reshape(dim, m, dim_prev)[...] = w.reshape(dim, dim_prev, m).transpose(0, 2, 1)
            del out
            outs[0][np.diag_indices(dim)] = 1.0
            for j in range(1, m):
                b = w_k[:, j * dim_prev:(j + 1) * dim_prev]
                np.matmul(b, b.conj().T, out=outs[j])
                np.subtract(outs[0], outs[j], out=outs[0])
                games._remember(fam[j], factor=("range", b))
            games._remember(fam[0], factor=("complement", w_k[:, dim_prev:]))
        del outs  # the writable aliases die before the family is yielded
        yield fam, w_k
        w = v2 if w is None else w @ v2


def naimark_family(povms) -> NaimarkDilation:
    """Dilate a list of POVM families on a common space simultaneously.

    Builds the step isometries ``V2_k`` once, then each dilated family from
    ``W_k = V2_n ... V2_{k+1}``: ``P_kj = W_kj W_kj*`` for ``j >= 1`` and
    ``P_k0 = 1 - sum_{j>=1} P_kj``, which equals the iterative
    construction's ``W_k0 W_k0*`` plus the telescoped identity defects
    ``1 - W_k W_k*`` (see the module docstring).  Costs ``D^2 D_k`` per
    family on the dilated dimension ``D``.  The projections are built sealed,
    so a :class:`Strategy` built from them adopts them without a copy, and each
    carries the projectivity bound of :func:`_proven_dilation`.
    """
    pvms, v, _ = _proven_dilation(povms, gate=True)
    return NaimarkDilation(pvms=pvms, isometry=v, dims=(v.shape[1], v.shape[0]))


def _proven_dilation(povms, gate: bool, d: int | None = None):
    """The dilated families of :func:`naimark_family`, the isometry ``V``, and
    a ``tol`` at which the dense gate ``games._family_valid`` passes on every
    family, proven from the factors; each projection's ``projectivity`` fact
    bounds its :func:`linalg.projector_defect`.  ``d`` is the source dimension,
    as in :func:`_step_isometries`; with no families, ``tol`` is 0.

    Let ``B = W_k`` (``D x D_k``, as stored), ``B_j`` its column block of
    outcome ``j`` (``D x n``, ``D_k = n m``), ``f = ||B||_F^2`` and ``X_j``
    the exact ``B_j B_j*`` (``j >= 1``) or ``1 - sum_{j>=1} X_j`` (``j = 0``).
    A complex GEMM with inner dimension ``p`` errs entrywise by at most
    ``gamma(p + 2) |X||Y|``, so the computed Gram product (``p = D``)
    understates ``||B* B - 1||_F`` by at most ``g f``, ``g = gamma(D + 2)``,
    plus its norm's relative rounding: ``delta`` below bounds it, with ``2f``
    covering the rounding of ``f`` itself.  Each stored ``P_j = fl(B_j B_j*)``
    is within ``gamma(n + 2) ||B_j||_F^2`` of ``X_j``; the stored ``P_0`` adds
    those errors to the rounding of ``m - 1`` subtractions,
    ``gamma(m - 1) (sqrt(D) + f)``.  So every stored element is within
    ``e = gamma(n + m + 1) (sqrt(D) + 2f)`` of its ``X_j`` in Frobenius norm.

    *Spectrum.*  ``X_j`` lies in ``[0, ||B_j||^2]`` for ``j >= 1`` and ``X_0``
    in ``[1 - B B*, 1]``, with ``||B_j||^2 <= ||B||^2 <= 1 + delta``.  So the
    Hermitian part of every stored element has its spectrum in
    ``[-beta, 1 + beta]``, ``beta = delta + e``.  The Cholesky test of
    ``H + t 1`` passes when ``lambda_min(H) + t`` exceeds its backward error,
    ``n u ||H + t 1||`` as :func:`linalg.is_psd` states; doubled for forming
    the shifted Hermitian part, that holds for
    ``t >= (beta + c (1 + beta)) / (1 - c)`` with ``c = 2 D u``.

    *Hermiticity.*  Every ``X_j`` is Hermitian, so
    ``||P - P*||_F <= ||P - X_j||_F + ||X_j - P*||_F <= 2e``; the gate's
    difference and norm add the relative ``r = 1 + gamma(2 D^2 + 16)`` (see
    below), so it measures at most ``2 e r``.

    *Completeness.*  The stored ``P_0`` is ``1 - sum_{j>=1} P_j`` up to the
    rounding of its ``m - 1`` subtractions, so the exact sum of the stored
    family is ``1 + E`` with ``||E||_F <= gamma(m - 1) (sqrt(D) + sum_{j>=1}
    ||P_j||_F)``.  The gate adds the ``m`` stored elements in order, which
    errs by at most ``gamma(m - 1) (||P_0||_F + sum_{j>=1} ||P_j||_F)``, then
    subtracts 1 and takes the norm (relative ``r``).  Here
    ``sum_{j>=1} ||P_j||_F <= (1 + gamma(n + 2)) f <= 3f/2`` (the entrywise
    GEMM bound, and ``sum_j ||B_j||_F^2 = f``) and
    ``||P_0||_F <= ||X_0||_F + e <= sqrt(D) (1 + delta) + e``.  So the gate
    measures at most ``gamma(m - 1) ((2 + delta) sqrt(D) + e + 3f) r``.
    Neither bound reads a projection: the proof costs one Gram product
    ``W_k* W_k`` (``D D_k^2``) per family.

    *Projectivity.*  ``X_j^2 - X_j = B_j (B_j* B_j - 1) B_j*`` for ``j >= 1``,
    and ``X_0^2 - X_0`` is the same with ``B_j`` the tail ``[B_1 ... B_{m-1}]``;
    ``B_j* B_j - 1`` is a principal block of ``B* B - 1``, so
    ``||X_j^2 - X_j||_F <= (1 + delta) delta``, and with ``P = X_j + E``,
    ``||P^2 - P||_F <= (1 + delta) delta + (3 + 2 delta) e + e^2``.  The dense
    check rounds its ``P @ P`` by at most ``g ||P||_F^2 <= g D (1 + beta)^2``
    and its difference and norm by a relative ``gamma(2 D^2 + 2)``
    (``gamma(2 D^2 + 16)`` also covers evaluating this bound).  The fact is
    that bound, ``square``; it is at least ``3 e r``, so it also covers the
    Hermiticity term of :func:`linalg.projector_defect`.  A NaN in a factor
    makes ``delta`` NaN, and every bound with it, which no ``tol`` admits.
    The last family has 0/1 diagonals summing to the identity: every bound
    is 0.

    *Products through the factor* (``games._times``, for a finite ``x`` with
    ``r`` columns).  With ``B = B_j`` (``j >= 1``), the computed ``B (B* x)``
    errs from ``X_j x`` by at most ``(gamma(D + 2) + gamma(n + 2) (1 +
    gamma(D + 2))) ||B||_F^2 ||x||_F``, the entrywise GEMM bound of each
    product, and ``||B_j||_F^2 <= f``.  With ``T`` the tail (``j = 0``, inner
    width at most ``D_k``), ``x - T (T* x)`` adds the relative rounding ``u``
    of the difference, whose exact value is at most ``(1 + delta) ||x||_F``
    as ``||1 - T T*|| <= max(1, ||T||^2 - 1) <= 1 + delta``.  So either is
    within ``gamma(D + D_k + 5) (f + 1 + delta) ||x||_F`` of ``X_j x``.  The
    dense ``P @ x`` is within ``(e + gamma(D + 2) ||P||_F) ||x||_F`` of it, as
    ``||P - X_j||_F <= e``; the sum of the two bounds the distance between the
    products.  In the last family both are exact: the row selection copies,
    and every dense term is a product with 0 or 1.  :func:`verify_dilation`
    reads no factor, so what it reports is measured on the stored arrays (or
    read from ``projectivity``), not inferred from ``W_k``.
    """
    steps, v = _step_isometries(povms, gate, d)
    dim = v.shape[0]
    c = 2 * dim * linalg._U
    g = linalg._gamma(dim + 2)
    r = 1 + linalg._gamma(2 * dim * dim + 16)
    pvms, tols = [], []
    for fam, w in _factored_families(steps, dim):
        beta = square = 0.0
        if w is not None:
            m = len(fam)
            delta, e, f = _factor_errors(w, m)
            beta = delta + e
            square = (1 + delta) * delta + (3 + 2 * delta) * e + e * e + g * dim * (1 + beta) ** 2
            square *= r
            tols.append(2 * e * r)
            tols.append(linalg._gamma(m - 1) * ((2 + delta) * dim**0.5 + e + 3 * f) * r)
        tols.append((beta + c * (1 + beta)) / (1 - c))
        for p in fam:
            games._remember(p, projectivity=square)
        pvms.append(fam)
    return tuple(reversed(pvms)), v, float(np.max(tols, initial=0.0))


def _factor_errors(w: np.ndarray, m: int) -> tuple[float, float, float]:
    """``delta``, ``e`` and ``f`` of :func:`_proven_dilation` for the stored factor
    ``w`` (``D x D_k``) of a family of ``m`` projections."""
    dim = w.shape[0]
    gram = linalg.dagger(w) @ w
    f = float(np.trace(gram).real)
    g = linalg._gamma(dim + 2)
    delta = linalg._identity_defect(gram) * (1 + linalg._gamma(2 * gram.size)) + 2 * g * f
    e = linalg._gamma(w.shape[1] // m + m + 1) * (dim**0.5 + 2 * f)
    return delta, e, f


def naimark_strategy(s: Strategy) -> tuple[Strategy, np.ndarray, np.ndarray]:
    """Dilate both players' families; the state is embedded as ``(V_A (x) V_B) psi``.

    The returned strategy is projective, produces the same correlation as
    the input, and carries its validity: the largest of
    :func:`_proven_dilation`'s two ``tol`` values and the state's norm
    defect, so the gate answers any ``tol`` at or above it with no Cholesky.
    ``V_A`` and ``V_B`` are kept as a fact of ``s`` (sealed copies) for
    ``dilation.naimark_embedding``.  A side with no questions is dilated by the
    identity of its dimension.  A source that has passed the validity
    gate (at any ``tol``) is dilated without gating its families again.
    """
    psi = s.pure_state()
    gate = games._recall(s, "valid_tol") is None
    pvms_a, v_a, tol_a = _proven_dilation(s.alice, gate, s.dims[0])
    pvms_b, v_b, tol_b = _proven_dilation(s.bob, gate, s.dims[1])
    dilated = Strategy(
        state=linalg.apply_factors(psi, s.dims, (v_a, v_b)),
        dims=(v_a.shape[0], v_b.shape[0]),
        alice=pvms_a,
        bob=pvms_b,
    )
    norm_defect = abs(float(np.linalg.norm(dilated.state)) - 1.0)
    games._remember(dilated, valid_tol=float(np.max([tol_a, tol_b, norm_defect])))
    games._remember(s, naimark_isometries=(games._freeze(v_a), games._freeze(v_b)))
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
    """Defect tables from verifying a claimed Naimark dilation.

    Each ``projection_defects`` entry is the measured
    :func:`linalg.projector_defect`, or the projection's ``projectivity`` fact
    (see ``games.Strategy``) when that bound is at most ``tol``.
    """

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
    A projection's ``projectivity`` fact stands in for its dense ``P @ P``
    when it is at most ``tol``: the verdict is the dense one.
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
    projection_defects = tuple(tuple(_projection_defect(p, tol) for p in fam) for fam in pvms)
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


def _projection_defect(p: np.ndarray, tol: float) -> float:
    """The fact ``projectivity`` of ``p`` when it is at most ``tol``, else the
    measured :func:`linalg.projector_defect`."""
    bound = games._recall(p, "projectivity")
    if bound is not None and bound <= tol:
        return bound
    return linalg.projector_defect(p)
