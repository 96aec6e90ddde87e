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

Each dilated family is a ``games._ProvenFamily``: one immutable sequence that
carries its sealed factor ``W_k`` and what :func:`_proven_dilation` proves of the
family from that factor alone, at one Gram product ``W_k* W_k`` (``D D_k^2``): its
validity ``gate``, read by the validity gate in place of a ``D^3/3`` Cholesky and
``O(D^2)`` Hermiticity and completeness passes per element, and bounds on each
projector defect, the completeness defect and the compressions.  ``games._times``
takes ``P x`` for a thin ``x`` through ``W_k``, at ``D D_k`` per column in place of
``D^2``, so the pure-state kernels read no projection; :func:`verify_dilation`
reads a bound where it is at most ``tol`` and measures densely otherwise, so its
verdict is the dense one.  The projections of one side are the rows of one sealed
``N x D x D`` arena, ``N`` the side's element count, built once, under the side's
lock, when any of its families is first read, so a side no caller reads allocates
none, and a kept projection keeps its whole side alive.  Only that exact type is
trusted: a family read from a file, copied, regrouped or truncated is a plain
tuple and is measured as matrices.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import games, linalg
from .errors import DimensionMismatch, InvalidPovm
from .games import Strategy


@dataclass(frozen=True)
class NaimarkDilation:
    """Projective families on the dilated space plus the embedding isometry.

    Invariants: ``V* V = 1`` on the source space, every element of ``pvms``
    is a projection, each family sums to the identity, and the compressions
    ``V* P V`` reproduce the source POVM elements.  The families of
    :func:`naimark_family` are those of the module docstring's last paragraph.
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


def _side(dim: int, factors: list[tuple[np.ndarray | None, int]]) -> list[tuple]:
    """The projections of one dilated side from its families' ``(W_k, m_k)``, as the
    rows of one sealed arena, ``games._sealed((N, D, D))`` with ``N = sum_k m_k``:
    ``P_kj = W_kj W_kj*`` for ``j >= 1``, the identity less each in turn at ``j = 0``,
    and the 0/1 diagonals of the last family.  Each is a sealed C-contiguous view,
    built in place through the arena's one writable alias, so none is copied.  The
    alias covers every family, so all are built before it is dropped and any is
    handed out."""
    arena, block = games._sealed((sum(m for _, m in factors), dim, dim))
    families, start = [], 0
    for w_k, m in factors:
        outs = block[start:start + m]
        if w_k is None:
            for j in range(m):
                outs[j][np.arange(j, dim, m), np.arange(j, dim, m)] = 1.0
        else:
            dim_prev = w_k.shape[1] // m
            outs[0][np.diag_indices(dim)] = 1.0
            for j in range(1, m):
                b = w_k[:, j * dim_prev:(j + 1) * dim_prev]
                np.matmul(b, b.conj().T, out=outs[j])
                np.subtract(outs[0], outs[j], out=outs[0])
        del outs  # the writable alias lives on in block alone
        families.append(tuple(arena[start:start + m]))
        start += m
    del block  # the writable alias dies before any family leaves
    return families


def naimark_family(povms) -> NaimarkDilation:
    """Dilate a list of POVM families on a common space simultaneously.

    Builds the step isometries ``V2_k`` once, then each dilated family from
    ``W_k = V2_n ... V2_{k+1}``: ``P_kj = W_kj W_kj*`` for ``j >= 1`` and
    ``P_k0 = 1 - sum_{j>=1} P_kj``, which equals the iterative
    construction's ``W_k0 W_k0*`` plus the telescoped identity defects
    ``1 - W_k W_k*`` (see the module docstring).  Costs ``D^2 D_k`` per
    family on the dilated dimension ``D``, paid when a projection is first read.  Each
    family is a sealed ``games._ProvenFamily`` (module docstring), so a
    :class:`Strategy` adopts it without a copy.
    """
    pvms, v = _proven_dilation(povms, gate=True)
    return NaimarkDilation(pvms=pvms, isometry=v, dims=(v.shape[1], v.shape[0]))


def _proven_dilation(povms, gate: bool, d: int | None = None):
    """The dilated families of :func:`naimark_family` and the isometry ``V``; a
    family is a ``games._ProvenFamily`` when its bounds are finite, else a plain
    tuple of its projections, built at once.  Each ``W_k`` is built from the last
    step back and stored sealed with its columns grouped by outcome, so each
    ``W_kj`` is a column slice.  A family's ``gate``, the largest ``t`` of *Spectrum*,
    *Hermiticity* and *Completeness*, is a ``tol`` at and above which the dense
    ``games._family_valid`` passes on the family.  ``d`` is the source dimension, as
    in :func:`_step_isometries`.

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
    Neither bound reads a projection: they cost one Gram product
    ``W_k* W_k`` (``D D_k^2``) per family.  The second is the family's
    ``complete``.

    *Projectivity.*  ``X_j^2 - X_j = B_j (B_j* B_j - 1) B_j*`` for ``j >= 1``,
    and ``X_0^2 - X_0`` is the same with ``B_j`` the tail ``[B_1 ... B_{m-1}]``;
    ``B_j* B_j - 1`` is a principal block of ``B* B - 1``, so
    ``||X_j^2 - X_j||_F <= (1 + delta) delta``, and with ``P = X_j + E``,
    ``||P^2 - P||_F <= (1 + delta) delta + (3 + 2 delta) e + e^2``.  The dense
    check rounds its ``P @ P`` by at most ``g ||P||_F^2 <= g D (1 + beta)^2``
    and its difference and norm by a relative ``gamma(2 D^2 + 2)``
    (``gamma(2 D^2 + 16)`` also covers evaluating this bound).  The family's
    ``square`` is that bound; it is at least ``3 e r``, so it also covers the
    Hermiticity term of :func:`linalg.projector_defect`.  A NaN in a factor
    makes ``delta`` NaN, and every bound with it, so the family is a plain
    tuple.  The last family has 0/1 diagonals summing to the identity: every
    bound is 0.

    *Products through the factor* (``games._ProvenFamily.times``, for a finite
    ``x`` with ``r`` columns).  With ``B = B_j`` (``j >= 1``), the computed ``B (B* x)``
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
    and every dense term is a product with 0 or 1.

    *Compressions* (:func:`verify_dilation`, with ``V`` (``D x d``) and ``R``
    as the caller passes them).  The family's ``kappa = (e + gamma(D + D_k +
    5) (f + 1 + delta)) r`` is the bound above less the dense product's
    rounding, so ``Z = family.times(j, V)`` is within ``kappa ||V||_F`` of the
    exact ``P V`` (``kappa = 0`` in the last family), and its ``norm``
    ``N = (sqrt(D) (1 + delta) + e) r >= ||P||_F``.  The
    dense check forms ``C = fl(fl(V* P) V)``, within ``g ||P||_F ||V||_F (2
    ||V||_2 + g ||V||_F) <= 3 g N ||V||_F^2`` of ``Y = V* P V``, then
    ``||R - C||_F`` with a relative rounding ``s = 1 + gamma(2 D d + 16)``
    (which also covers evaluating the bound below).  With ``W = fl(V* Z)``,
    within ``g ||V||_F ||Z||_F`` of ``V* Z``,
    ``||R - Y||_F <= ||R - W||_F + g ||V||_F ||Z||_F + ||V||_2 kappa ||V||_F``.
    So the dense check measures at most
    ``(s ||R - W||_F + ||V||_2 kappa ||V||_F + g ||V||_F (s ||Z||_F + 3 N
    ||V||_F)) s``, at ``D d n`` for a factor of width ``n`` in place of
    ``D^2 d``; ``||V||_F`` is bounded by its computed norm times ``s``, and
    ``||V||_2^2 <= 1 + ||V* V - 1||_F`` by the measured isometry defect.  It
    reads no ``D x D`` array, and a NaN anywhere in it makes it NaN.
    """
    steps, v = _step_isometries(povms, gate, d)
    dim = v.shape[0]
    c = 2 * dim * linalg._U
    g = linalg._gamma(dim + 2)
    r = 1 + linalg._gamma(2 * dim * dim + 16)
    # the side is built from its own list of (W_k, m_k), not from the families, so
    # no family refers to itself and each is freed by reference counting alone
    factors, pvms = [None] * len(steps), [None] * len(steps)
    lock, built = threading.Lock(), []

    def read(k: int) -> tuple[np.ndarray, ...]:
        """Family ``k``'s projections; the first read builds the whole side, once, also
        when threads make it at the same time."""
        if not built:
            with lock:
                if not built:
                    built.append(_side(dim, factors))
        return built[0][k]

    w = None  # W_k, columns grouped (D_{k-1}, m); the identity for the last family
    for k in reversed(range(len(steps))):
        dim_prev = steps[k].shape[1]
        m = steps[k].shape[0] // dim_prev
        w_k = None
        beta = square = complete = delta = e = kappa = 0.0
        if w is not None:
            w_k, out = games._sealed((dim, m * dim_prev))
            out.reshape(dim, m, dim_prev)[...] = w.reshape(dim, dim_prev, m).transpose(0, 2, 1)
            del out
            delta, e, f = _factor_errors(w_k, m)
            beta = delta + e
            square = (1 + delta) * delta + (3 + 2 * delta) * e + e * e + g * dim * (1 + beta) ** 2
            square *= r
            complete = linalg._gamma(m - 1) * ((2 + delta) * dim**0.5 + e + 3 * f) * r
            kappa = (e + linalg._gamma(dim + w_k.shape[1] + 5) * (f + 1 + delta)) * r
        gate = max((beta + c * (1 + beta)) / (1 - c), 2 * e * r, complete)
        norm = (dim**0.5 * (1 + delta) + e) * r
        factors[k] = w_k, m
        bounds = gate, square, complete, kappa, norm
        if all(map(math.isfinite, bounds)):
            pvms[k] = games._ProvenFamily(functools.partial(read, k), w_k, m, dim, *bounds)
        w = steps[k] if w is None else w @ steps[k]
    return tuple(read(k) if fam is None else fam for k, fam in enumerate(pvms)), v


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

    The returned strategy is projective and produces the same correlation as
    the input.  Its families are ``games._ProvenFamily`` (module docstring), so
    gating it measures only the state's norm; the strategy holds no
    ``_valid_tol`` until a gate passes.
    ``V_A`` and ``V_B`` are kept as ``s._naimark_isometries`` (sealed) for
    :func:`_strategy_isometries`.  A side with no questions is dilated by the
    identity of its dimension.  A source that has passed the validity
    gate (at any ``tol``) is dilated without gating its families again.
    """
    psi = s.pure_state()
    gate = s._valid_tol is None
    pvms_a, v_a = _proven_dilation(s.alice, gate, s.dims[0])
    pvms_b, v_b = _proven_dilation(s.bob, gate, s.dims[1])
    dilated = Strategy(
        state=linalg.apply_factors(psi, s.dims, (v_a, v_b)),
        dims=(v_a.shape[0], v_b.shape[0]),
        alice=pvms_a,
        bob=pvms_b,
    )
    object.__setattr__(s, "_naimark_isometries", (games._freeze(v_a), games._freeze(v_b)))
    return dilated, v_a, v_b


def _strategy_isometries(s: Strategy) -> tuple[np.ndarray, np.ndarray]:
    """``V_A`` and ``V_B`` of :func:`naimark_strategy`: those it kept on ``s``, or, before
    it has run, its steps built under its gate with no projection, so they are the same."""
    built = s._naimark_isometries
    if built is None:
        gate = s._valid_tol is None
        built = tuple(_step_isometries(f, gate, d)[1] for f, d in zip((s.alice, s.bob), s.dims))
    return built


@dataclass(frozen=True)
class DilationCheck:
    """Defect tables from verifying a claimed Naimark dilation.

    Each entry is the measured defect, or, when that is at most ``tol``, a
    bound that the projection's ``games._ProvenFamily`` carries
    (:func:`verify_dilation`): its ``square``, its ``complete``, or
    ``||R - V* P V||_F`` bounded through its factor.  Such an entry bounds
    the measured value.
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
    A ``games._ProvenFamily`` (module docstring) stands in for a dense check wherever
    its bound is at most ``tol``; every other entry is measured, so the verdict is
    the dense one: ``square`` for ``P @ P``, ``complete`` for the summed family,
    and a bound on ``||R - V* P V||_F`` through the factor, at ``D d n`` in place
    of ``D^2 d`` (:func:`_proven_dilation`, *Compressions*).  Any other family
    (copied, regrouped, truncated, or read from a file) is measured densely.  A
    proven family's shape is its ``dim``, so a projection is read, and its side
    built, only where an entry is measured.
    """
    v = d.isometry
    povms = [[linalg.as_complex(r) for r in fam] for fam in povms]
    # a proven family stays as it is, unread; every other family's elements are read here
    pvms = [
        fam if type(fam) is games._ProvenFamily else [linalg.as_complex(p) for p in fam]
        for fam in d.pvms
    ]
    if len(povms) != len(pvms):
        raise DimensionMismatch(f"{len(povms)} families against {len(pvms)} dilated ones")
    for k, (family, dilated) in enumerate(zip(povms, pvms)):
        if len(family) != len(dilated) or not family:
            raise DimensionMismatch(
                f"family {k} has {len(family)} elements, its dilation {len(dilated)}"
            )
        proven = type(dilated) is games._ProvenFamily
        shapes = [(dilated.dim,) * 2] * len(dilated) if proven else [p.shape for p in dilated]
        for r, shape in zip(family, shapes):
            if r.shape != (v.shape[1],) * 2 or shape != (v.shape[0],) * 2:
                raise DimensionMismatch(
                    f"family {k} pairs elements of shape {r.shape} and {shape} "
                    f"with an isometry of shape {v.shape}"
                )
    iso_defect = linalg._identity_defect(v.conj().T @ v)
    s = 1 + linalg._gamma(2 * v.size + 16)
    v_f = linalg.frobenius(v) * s  # >= ||V||_F
    # >= ||V||_2, as ||V||_2^2 <= 1 + ||V* V - 1||_F (_proven_dilation, *Compressions*)
    v_2 = (1 + iso_defect * s + linalg._gamma(v.shape[0] + 2) * v_f * v_f) ** 0.5 * s
    element_defects = tuple(
        tuple(_element_defect(r, fam, j, v, (v_2, v_f, s), tol) for j, r in enumerate(family))
        for family, fam in zip(povms, pvms)
    )
    projection_defects = tuple(
        tuple(_projection_defect(fam, j, tol) for j in range(len(fam))) for fam in pvms
    )
    completeness = [_completeness(fam, tol) for fam in pvms]
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


def _projection_defect(family, j: int, tol: float) -> float:
    """``square`` of a proven ``family`` when it is at most ``tol``, else the
    measured :func:`linalg.projector_defect` of its projection ``j``."""
    if type(family) is games._ProvenFamily and family.square <= tol:
        return family.square
    return linalg.projector_defect(family[j])


def _element_defect(r, family, j: int, v, norms, tol: float) -> float:
    """A bound on :func:`_compression_defect` of projection ``j`` of ``family`` from
    its factor, when it is proven and the bound is at most ``tol``, else the
    measured value.  ``norms`` holds the bounds on ``||V||_2`` and ``||V||_F`` and
    the relative rounding ``s``.  The bound multiplies through the factor and reads
    no ``D x D`` array (:func:`_proven_dilation`, *Compressions*)."""
    if type(family) is games._ProvenFamily:
        v_2, v_f, s = norms
        z = family.times(j, v)
        g = linalg._gamma(v.shape[0] + 2)
        rounding = g * v_f * (linalg.frobenius(z) * s + 3 * family.norm * v_f)
        bound = (linalg.frobenius(r - v.conj().T @ z) * s + v_2 * family.kappa * v_f + rounding) * s
        if bound <= tol:
            return bound
    return _compression_defect(r, family[j], v)


def _compression_defect(r: np.ndarray, p: np.ndarray, v: np.ndarray) -> float:
    """The measured ``||R - V* P V||_F``."""
    return linalg.frobenius(r - v.conj().T @ p @ v)


def _completeness(family, tol: float) -> float:
    """``complete`` of a proven ``family`` when it is at most ``tol``, else the
    measured ``games._completeness_defect``."""
    if type(family) is games._ProvenFamily and family.complete <= tol:
        return family.complete
    return games._completeness_defect(family)
