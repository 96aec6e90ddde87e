"""Local dilation residuals between strategies under three checkable forms.

A witness consists of local isometries ``U_A : H_A -> H_A~ (x) H_A^`` and
``U_B : H_B -> H_B~ (x) H_B^`` (target factor first) plus an auxiliary state
on the hat spaces (times the purifier for mixed sources).  The vector-form
residual of each measurement row is

    || (U_A (x) U_B (x) 1_P) (E (x) 1 (x) 1_P) |psi>  -  perm(row~ (x) aux) ||

and the reported epsilon is the maximum over the state row and all element
rows.  The matrix and extraction forms are alternative conditions, and the
vector and matrix forms read one grid of rotations, purifying once per check.
:func:`check` returns the :class:`ResidualReport` of any form; converters
between exact witnesses of the different forms are provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import games, linalg, schmidt
from .errors import DimensionMismatch, FullRankRequired, WitnessMismatch
from .games import Strategy


@dataclass(frozen=True)
class DilationWitness:
    """Local isometries with declared factorizations and an auxiliary state.

    ``dims_a = (d_target, d_hat)`` factorizes the codomain of ``u_a`` with the
    target factor first; same for Bob.  ``aux`` lives on hat_A (x) hat_B, with
    an extra trailing purifier factor when the witness certifies a dilation of
    a mixed-state strategy.  The arrays are stored sealed (``games._freeze``);
    copies and pickles are rebuilt through the constructor.
    """

    u_a: np.ndarray
    u_b: np.ndarray
    dims_a: tuple[int, int]
    dims_b: tuple[int, int]
    aux: np.ndarray

    def __post_init__(self):
        dims_a = (int(self.dims_a[0]), int(self.dims_a[1]))
        dims_b = (int(self.dims_b[0]), int(self.dims_b[1]))
        u_a = _require_isometry(self.u_a, "U_A", dims_a[0] * dims_a[1])
        u_b = _require_isometry(self.u_b, "U_B", dims_b[0] * dims_b[1])
        aux = linalg.require_finite(self.aux, "aux")
        with np.errstate(over="ignore"):  # a huge finite entry's norm is inf, and fails
            if aux.ndim != 1 or abs(np.linalg.norm(aux) - 1.0) > 1e-12:
                raise WitnessMismatch("aux must be a normalized vector")
        if aux.size % (dims_a[1] * dims_b[1]) != 0:
            raise WitnessMismatch("aux size is not a multiple of the hat dimensions")
        for name, val in (("u_a", u_a), ("u_b", u_b), ("aux", aux)):
            object.__setattr__(self, name, games._freeze(val))
        object.__setattr__(self, "dims_a", dims_a)
        object.__setattr__(self, "dims_b", dims_b)

    def __reduce__(self):
        return (DilationWitness, (self.u_a, self.u_b, self.dims_a, self.dims_b, self.aux))

    @property
    def purifier_dim(self) -> int:
        return self.aux.size // (self.dims_a[1] * self.dims_b[1])


def _require_isometry(u, name: str, rows: int, cols: int | None = None) -> np.ndarray:
    """``u`` as a complex array, once finite (else :class:`DimensionMismatch`), with ``rows``
    rows (and ``cols`` columns if given) and an isometry (else :class:`WitnessMismatch`)."""
    u = linalg.require_finite(u, name)
    if u.ndim != 2 or u.shape[0] != rows or cols not in (None, u.shape[1]):
        want = f"{rows} rows" if cols is None else (rows, cols)
        raise WitnessMismatch(f"{name} has shape {u.shape}, expected {want}")
    with np.errstate(over="ignore", invalid="ignore"):  # a huge finite entry reads inf or NaN
        defect = linalg._identity_defect(u.conj().T @ u)
    if not defect <= 1e-12 * max(1.0, u.shape[1]):  # a NaN defect fails too
        raise WitnessMismatch(f"{name} is not an isometry (defect {defect:.3e})")
    return u


@dataclass(frozen=True)
class ResidualReport:
    """The rows of one dilation form and their maximum ``eps`` (0 if there are none).

    The vector and extraction forms lay out ``rows`` as ``(state, alice[s][a],
    bob[t][b])``: the state row, then one row per element of each side.  The
    matrix form has one row per pair of elements, ``rows[s][a][t][b]``."""

    form: str
    rows: tuple
    eps: float


def _leaves(rows):
    """The floats of nested ``rows``, depth first."""
    for r in rows:
        yield from (r,) if isinstance(r, float) else _leaves(r)


def _report(form: str, rows) -> ResidualReport:
    # np.max, unlike max, keeps a NaN row
    return ResidualReport(form=form, rows=rows, eps=float(np.max([*_leaves(rows)], initial=0.0)))


def _side_rows(fams, dst_fams, row) -> tuple:
    """``row(E, F~, a)`` of each element ``E = F[a]`` of one side, ``F~`` the image of ``F``."""
    return tuple(tuple(row(e, t, a) for a, e in enumerate(f)) for f, t in zip(fams, dst_fams))


def _fit_witness(src: Strategy, dst: Strategy, u_a, u_b, dims_a, dims_b):
    """The witness contract of all three forms and the converters, returning
    ``U_A, U_B`` as complex arrays.  In order: per side the same questions, and per
    question the same answers (else :class:`DimensionMismatch`); each ``U`` by
    :func:`_require_isometry` with shape ``(prod(dims), src factor)``; target
    factors equal to ``dst.dims``."""
    for side, fams, dst_fams in (("Alice", src.alice, dst.alice), ("Bob", src.bob, dst.bob)):
        counts, dst_counts = [len(f) for f in fams], [len(f) for f in dst_fams]
        if counts != dst_counts:
            raise DimensionMismatch(
                f"src and dst give {side} answer counts {counts} and {dst_counts} per question"
            )
    u_a = _require_isometry(u_a, "U_A", dims_a[0] * dims_a[1], src.dims[0])
    u_b = _require_isometry(u_b, "U_B", dims_b[0] * dims_b[1], src.dims[1])
    if (dims_a[0], dims_b[0]) != dst.dims:
        raise WitnessMismatch("witness target factors do not match dst dimensions")
    return u_a, u_b


def _target_vector(row_target: np.ndarray, aux: np.ndarray, dims) -> np.ndarray:
    """(target (x) aux) in the (A~ A^ B~ B^ P) factor order, as one broadcast product
    of ``row_target`` (a vector or the ``(A~, B~)`` matrix) and ``aux``; an ``aux`` of
    shape ``(hat, n)`` is read as ``n`` columns in the P slot (``dims[4] = n``)."""
    d_ta, d_ha, d_tb, d_hb, d_p = dims
    full = row_target.reshape(d_ta, 1, d_tb, 1) * aux.reshape(d_ha, 1, d_hb * d_p)
    return full.reshape(-1)


def _purified(s: Strategy) -> tuple[np.ndarray, int]:
    """The state as a vector and its purifier dimension: ``s.state`` and 1 when
    pure, else the spectral purification.  A source that has passed the
    validity gate (at any ``tol``) is purified without :func:`schmidt.purify`'s
    fixed checks of the state, which the gate has made at that ``tol``."""
    if s.is_pure:
        return s.state, 1
    if s._valid_tol is None:
        psi = schmidt.purify(s.state)
    else:  # the Hermitian part, which hermitian_eig takes anyway, to the same bits
        psi = schmidt._purification(linalg.hermitian_eig((s.state + linalg.dagger(s.state)) / 2))
    return psi, psi.size // (s.dims[0] * s.dims[1])


class _Rotated:
    """The purified source ``psi`` under ``U_A (x) U_B (x) 1_P``, one side at a time,
    beside ``dst``'s state matrix ``M~``: the one object every state-based row reads.

    Construction makes the checks of those rows, in order: the witness contract
    (:func:`_fit_witness`), ``dst`` pure, ``sigma`` (when given) a finite square
    matrix on the hat factors, then one purification of the source, whose
    purifier factor must be any declared ``purifier`` (else
    :class:`WitnessMismatch`)."""

    def __init__(self, src, dst, u_a, u_b, dims_a, dims_b, sigma=None, purifier=None):
        self.u_a, self.u_b = _fit_witness(src, dst, u_a, u_b, dims_a, dims_b)
        self.m_dst = dst.pure_state().reshape(dst.dims)
        if sigma is not None:
            sigma = linalg.require_square(linalg.require_finite(sigma, "sigma_aux"))
            if sigma.shape[0] != dims_a[1] * dims_b[1]:
                raise DimensionMismatch("sigma_aux does not match the hat dimensions")
        self.sigma = sigma
        psi, d_p = _purified(src)
        if purifier not in (None, d_p):
            raise WitnessMismatch(f"aux purifier factor is {purifier}, purification needs {d_p}")
        self.psi, self.d_b = psi.reshape(src.dims[0], -1), src.dims[1]
        self.dims = (*dims_a, *dims_b, d_p)

    def alice(self, e=None, fam=None, a=None) -> tuple[np.ndarray, np.ndarray]:
        """``((U_A E (x) 1 (x) 1_P) psi, E~ M~)`` with ``E~ = fam[a]``, or ``U_A`` and
        ``M~`` with no element."""
        if e is None:
            return self.u_a @ self.psi, self.m_dst
        return (self.u_a @ e) @ self.psi, games._times(fam, a, self.m_dst)

    def pair(self, half, f=None, fam=None, b=None) -> tuple[np.ndarray, np.ndarray]:
        """``U_B F`` (``U_B`` with no element) on an :meth:`alice` half: the rotated
        source as a ``(.., P)`` matrix in the ``(A~ A^ B~ B^)`` rows of
        :func:`_target_vector`, and ``E~ M~ F~^T`` with ``F~ = fam[b]``."""
        rotated, tgt = half
        op, tgt = (self.u_b, tgt) if f is None else (self.u_b @ f, games._times(fam, b, tgt.T).T)
        return (op @ rotated.reshape(-1, self.d_b, self.dims[4])).reshape(-1, self.dims[4]), tgt


def _aux_component(rotated: np.ndarray, m_dst: np.ndarray, dims) -> np.ndarray:
    """Recover aux as the normalized ``psi~``-component of a rotated state.

    ``rotated`` is in (A~ A^ B~ B^ P) factor order with ``dims`` those five
    dimensions, and ``m_dst`` is ``psi~`` as a matrix; the result lives on (A^ B^ P).
    """
    m = rotated.reshape(*dims[:3], -1).swapaxes(1, 2).reshape(m_dst.size, -1)
    aux = m_dst.reshape(-1).conj() @ m
    norm = np.linalg.norm(aux)
    if norm < 1e-6:
        raise WitnessMismatch("rotated state has no component along the target state")
    return aux / norm


def dilation_residuals(
    src: Strategy,
    dst: Strategy,
    w: DilationWitness,
    purification_probes: int = 0,
    seed: int = 0,
) -> ResidualReport:
    """Vector-form residuals certifying ``src`` dilates to ``dst`` via ``w``.

    ``dst`` must be pure.  A mixed ``src`` is purified spectrally, the
    isometries act as ``U (x) 1_P``, and ``w.aux`` must include the purifier
    factor.  The rows do not depend on the purification chosen: any other
    one with this purifier is ``(1 (x) R) psi`` for a unitary ``R``, and
    rotating ``psi`` and ``aux`` together by ``1 (x) R`` multiplies both
    sides of every row by the same unitary, which the isometries and the
    elements (acting on the other factors) commute with.  So
    ``purification_probes`` and ``seed`` are accepted and have no effect.
    """
    g = _Rotated(src, dst, w.u_a, w.u_b, w.dims_a, w.dims_b, purifier=w.purifier_dim)
    one = g.alice()

    def row(rotated, tgt) -> float:
        return float(np.linalg.norm(rotated.reshape(-1) - _target_vector(tgt, w.aux, g.dims)))

    return _report("vector", (
        row(*g.pair(one)),
        _side_rows(src.alice, dst.alice, lambda e, *image: row(*g.pair(g.alice(e, *image)))),
        _side_rows(src.bob, dst.bob, lambda f, *image: row(*g.pair(one, f, *image))),
    ))


def check(
    src: Strategy, dst: Strategy, w: DilationWitness, form: str = "vector"
) -> ResidualReport:
    """The report of ``w`` for ``src -> dst`` in ``form``: ``"vector"``,
    ``"matrix"`` (``sigma`` from :func:`matrix_aux_from_vector`) or ``"extraction"``
    (of ``w``'s isometries, factored as :func:`_extraction_dims`); every form
    purifies the source once, where it checks ``w``'s purifier factor."""
    if form == "vector":
        return dilation_residuals(src, dst, w)
    if form == "matrix":
        sigma = matrix_aux_from_vector(w)
        return _matrix_report(src, dst, w.u_a, w.u_b, w.dims_a, w.dims_b, sigma, w.purifier_dim)
    if form == "extraction":
        if (w.dims_a, w.dims_b) != (dims := _extraction_dims(src, dst)):
            raise WitnessMismatch(f"extraction needs factors {dims}, not {w.dims_a, w.dims_b}")
        return _extraction_report(src, dst, w.u_a, w.u_b, w.purifier_dim)
    raise ValueError(f"unknown dilation form {form!r}")


def scalar_aux() -> np.ndarray:
    return np.ones(1, dtype=np.complex128)


def _trivial_ancilla_witness(u_a: np.ndarray, u_b: np.ndarray) -> DilationWitness:
    """Witness of ``U_A, U_B`` with one-dimensional hat factors and the scalar aux."""
    return DilationWitness(
        u_a=u_a, u_b=u_b, dims_a=(u_a.shape[0], 1), dims_b=(u_b.shape[0], 1), aux=scalar_aux()
    )


def restriction_embedding(s: Strategy) -> DilationWitness:
    """Witness embedding the restriction of ``s`` back into ``s``.

    Certifies ``restrict(s) -> s`` with trivial ancillas at epsilon bounded by
    the support defect of ``s``.  The isometries are the Schmidt vectors that
    ``restrict`` returns, taken without compressing the elements.
    """
    sd = schmidt.schmidt_decompose(s.pure_state(), s.dims)
    return _trivial_ancilla_witness(sd.left, sd.right)


def naimark_embedding(s: Strategy) -> DilationWitness:
    """Witness embedding ``s`` into its constructed Naimark dilation.

    Certifies ``s -> naimark_strategy(s)`` with trivial ancillas at epsilon
    bounded by the projectivity defect of ``s``.  The isometries are those
    ``naimark_strategy(s)`` keeps on ``s``; it runs first if it has not run yet,
    so the order of the two calls does not change the witness.
    """
    from . import naimark

    s.pure_state()  # PureStateRequired on a mixed strategy, before any POVM work
    return _trivial_ancilla_witness(*naimark._strategy_isometries(s))


def _complete_isometry(v: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns ``v`` to a unitary by the null eigenvectors of ``v v*``."""
    n, m = v.shape
    return np.hstack((v, np.linalg.eigh(v @ v.conj().T)[1][:, : n - m]))


def reverse_witness(src: Strategy, dst: Strategy, w: DilationWitness) -> DilationWitness:
    """Turn a product-ancilla witness for ``src -> dst`` into one for ``dst -> src``.

    Requires ``w.aux`` to be a product state across the hat factors (no
    purifier part).  Each side maps ``v`` to ``u_ext* (v (x) aux)``, with
    ``u_ext`` a unitary completion of ``U``, zero-padded to ``m q`` rows for
    ``q = ceil(U.shape[0] / m)`` and laid out on ``C^m (x) C^q``, so every
    per-row residual is preserved exactly.
    """
    _fit_witness(src, dst, w.u_a, w.u_b, w.dims_a, w.dims_b)
    if w.purifier_dim != 1:
        raise WitnessMismatch("reverse construction applies to pure-source witnesses only")
    d_ha, d_hb = w.dims_a[1], w.dims_b[1]
    aux = w.aux.reshape(d_ha, d_hb)
    u_svd, sing, vh = np.linalg.svd(aux)
    if sing.size > 1 and sing[1] > 1e-9:
        raise WitnessMismatch("aux is entangled across the hat factors")
    # rank-1 SVD reconstructs aux as sing[0] * kron(u0, vh0) with sing[0] ~ 1
    aux_a = u_svd[:, 0]
    aux_b = vh[0, :]

    m_a, m_b = src.dims

    def one_side(u, d_target, aux_vec, m):
        iota = np.kron(linalg.identity(d_target), aux_vec.reshape(-1, 1))  # v -> v (x) aux
        rows = _complete_isometry(u).conj().T @ iota
        q = -(-rows.shape[0] // m)  # ceil
        padded = np.pad(rows, ((0, m * q - rows.shape[0]), (0, 0)))
        # row k lands on e_(k mod m) (x) e_(k div m): the source space on e_k (x) e_0
        return padded.reshape(q, m, -1).transpose(1, 0, 2).reshape(m * q, -1), q

    v_a, q_a = one_side(w.u_a, w.dims_a[0], aux_a, m_a)
    v_b, q_b = one_side(w.u_b, w.dims_b[0], aux_b, m_b)
    aux_back = np.kron(linalg.basis_state(q_a, 0), linalg.basis_state(q_b, 0))
    return DilationWitness(
        u_a=v_a, u_b=v_b, dims_a=(m_a, q_a), dims_b=(m_b, q_b), aux=aux_back
    )


def compose_witnesses(w_xy: DilationWitness, w_yz: DilationWitness) -> DilationWitness:
    """Chain witnesses: if X -> Y at eps1 and Y -> Z at eps2 then X -> Z at eps1+eps2.
    X may be mixed (``w_xy``'s purifier factor stays last in ``aux``); Y must be pure."""
    d_ta1, d_ha1 = w_xy.dims_a
    d_tb1, d_hb1 = w_xy.dims_b
    d_ta2, d_ha2 = w_yz.dims_a
    d_tb2, d_hb2 = w_yz.dims_b
    if w_yz.u_a.shape[1] != d_ta1 or w_yz.u_b.shape[1] != d_tb1:
        raise WitnessMismatch("witnesses do not chain: middle dimensions differ")
    if w_yz.purifier_dim != 1:
        raise WitnessMismatch("composition needs a pure source for the second witness")
    u_a = np.kron(w_yz.u_a, linalg.identity(d_ha1)) @ w_xy.u_a
    u_b = np.kron(w_yz.u_b, linalg.identity(d_hb1)) @ w_xy.u_b
    aux = linalg.permute_systems(
        np.kron(w_yz.aux, w_xy.aux),
        (d_ha2, d_hb2, d_ha1, d_hb1, w_xy.purifier_dim),
        (0, 2, 1, 3, 4),
    )
    return DilationWitness(
        u_a=u_a,
        u_b=u_b,
        dims_a=(d_ta2, d_ha2 * d_ha1),
        dims_b=(d_tb2, d_hb2 * d_hb1),
        aux=aux,
    )


def matrix_form_residual(
    src: Strategy,
    dst: Strategy,
    u_a,
    u_b,
    dims_a: tuple[int, int],
    dims_b: tuple[int, int],
    sigma_aux,
) -> float:
    """Max Frobenius defect of ``U (E (x) F) rho U* = (E~ (x) F~) |psi~><psi~| (x) sigma``.

    Zero to rounding exactly when the matrix-form condition holds, for a density
    operator ``sigma_aux`` on the hat factors (any square matrix is read).  The
    witness must fit the pair, and ``src`` is purified to ``psi``, as in the
    vector form.  In the ``(A~ A^ B~ B^)`` order each row's defect is ``A B*`` for

        A = [(U_A E (x) U_B F (x) 1_P) psi,  (E~ psi~ F~^T) (x) sigma]
        B = [(U_A (x) U_B (x) 1_P) psi,     -psi~ (x) 1_hat]

    (columns over the purifier, then the hat basis), and ``||A B*||_F = ||A T*||_F``
    for the QR ``B = Q T``, made once per witness.  Expanded, ``||L||^2 + ||R||^2 -
    2 Re<L, R>`` would cancel to a floor near ``1e-8`` at an exact witness.
    """
    return _matrix_report(src, dst, u_a, u_b, dims_a, dims_b, sigma_aux).eps


def _matrix_report(src, dst, u_a, u_b, dims_a, dims_b, sigma_aux, purifier=None):
    g = _Rotated(src, dst, u_a, u_b, dims_a, dims_b, sigma_aux, purifier)
    hat = dims_a[1] * dims_b[1]
    dims5 = (*dims_a, *dims_b, hat)

    def factor(rotated, tgt, aux) -> np.ndarray:
        """``A`` or ``B`` of :func:`matrix_form_residual`."""
        return np.hstack((rotated, _target_vector(tgt, aux, dims5).reshape(-1, hat)))

    rotated, m_dst = g.pair(g.alice())
    t_h = np.linalg.qr(factor(rotated, -m_dst, linalg.identity(hat)), mode="r").conj().T

    def alice_rows(e, fam, a) -> tuple:
        half = g.alice(e, fam, a)
        return _side_rows(src.bob, dst.bob, lambda f, *image: linalg.frobenius(
            factor(*g.pair(half, f, *image), g.sigma) @ t_h
        ))

    return _report("matrix", _side_rows(src.alice, dst.alice, alice_rows))


def _extraction_dims(src: Strategy, dst: Strategy):
    """The (target, hat) factorizations of the source spaces for an extraction witness."""
    if src.dims[0] % dst.dims[0] or src.dims[1] % dst.dims[1]:
        raise WitnessMismatch("target dimension does not divide source dimension")
    return tuple((t, d // t) for d, t in zip(src.dims, dst.dims))


def extraction_residual(src: Strategy, dst: Strategy, u_a, u_b) -> ResidualReport:
    """Residuals of the unitary-extraction dilation condition on full-rank pairs.

    Rows ``||U psi - psi~ (x) aux||`` (aux recovered by projecting onto ``psi~``)
    and, per element, ``||U E U* - E~ (x) 1||_F``.  Both strategies must be
    pure and full-rank; the witness must fit the pair as in the other two
    forms (:func:`_fit_witness`), with the factorizations of
    :func:`_extraction_dims`, so ``U_A, U_B`` are square unitaries.
    """
    return _extraction_report(src, dst, u_a, u_b)


def _extraction_report(src, dst, u_a, u_b, purifier=None) -> ResidualReport:
    dims_a, dims_b = _extraction_dims(src, dst)
    # a declared purifier factor (from check) is checked against the purification
    g = _Rotated(src, dst, u_a, u_b, dims_a, dims_b, purifier=purifier)
    for st, name in ((src, "src"), (dst, "dst")):
        sd = schmidt.schmidt_decompose(st.pure_state(), st.dims)
        if sd.rank != min(st.dims) or st.dims[0] != st.dims[1]:
            raise FullRankRequired(f"{name} strategy is not full-Schmidt-rank")
    rotated, m_dst = g.pair(g.alice())
    aux = _aux_component(rotated, m_dst, g.dims)
    state = float(np.linalg.norm(rotated.reshape(-1) - _target_vector(m_dst, aux, g.dims)))

    def side(fams, dst_fams, u, d_hat) -> tuple:
        eye = linalg.identity(d_hat)
        return _side_rows(fams, dst_fams, lambda e, f, a: linalg.frobenius(
            u @ e @ u.conj().T - np.kron(f[a], eye)
        ))

    return _report("extraction", (state, side(src.alice, dst.alice, g.u_a, dims_a[1]),
                                  side(src.bob, dst.bob, g.u_b, dims_b[1])))


def vector_witness_from_matrix_form(
    src: Strategy, dst: Strategy, u_a, u_b, dims_a, dims_b
) -> DilationWitness:
    """Recover a vector-form witness from matrix-form-exact data.

    The auxiliary state is read off as the ``psi~``-component of the rotated
    (purified) source state; exact when the matrix-form condition holds.
    """
    g = _Rotated(src, dst, u_a, u_b, dims_a, dims_b)
    aux = _aux_component(*g.pair(g.alice()), g.dims)
    return DilationWitness(u_a=g.u_a, u_b=g.u_b, dims_a=dims_a, dims_b=dims_b, aux=aux)


def matrix_aux_from_vector(w: DilationWitness) -> np.ndarray:
    """Matrix-form auxiliary state: the purifier traced out of ``|aux><aux|``, as
    ``a a*`` for ``aux`` read as the ``(hat, P)`` matrix ``a``."""
    a = w.aux.reshape(w.dims_a[1] * w.dims_b[1], w.purifier_dim)
    return a @ a.conj().T


def extraction_witness_from_vector(
    src: Strategy, dst: Strategy, w: DilationWitness
) -> tuple[np.ndarray, np.ndarray]:
    """Compress an exact vector-form witness between full-rank strategies to unitaries.

    Splits ``aux`` in its Schmidt bases and cuts each isometry down to the
    support, which the dilation condition makes unitary.
    """
    _fit_witness(src, dst, w.u_a, w.u_b, w.dims_a, w.dims_b)
    if w.purifier_dim != 1:
        raise WitnessMismatch("extraction form applies to pure sources only")
    sd = schmidt.schmidt_decompose(w.aux, (w.dims_a[1], w.dims_b[1]))
    t_a, t_b = sd.left, sd.right
    w_a = np.kron(linalg.identity(w.dims_a[0]), t_a.conj().T) @ w.u_a
    w_b = np.kron(linalg.identity(w.dims_b[0]), t_b.conj().T) @ w.u_b
    if w_a.shape[0] != w_a.shape[1] or w_b.shape[0] != w_b.shape[1]:
        raise FullRankRequired(
            "compressed witnesses are not square; strategies are not full-rank-compatible"
        )
    return w_a, w_b


def vector_witness_from_extraction(
    src: Strategy, dst: Strategy, u_a, u_b
) -> DilationWitness:
    """Wrap extraction unitaries as a vector-form witness, recovering aux."""
    return vector_witness_from_matrix_form(src, dst, u_a, u_b, *_extraction_dims(src, dst))
