"""Nonlocal games, quantum strategies, correlations, and winning probabilities.

Conventions: questions and answers are 0-based integer ranges.  A pure state
is stored as a 1-D vector on ``C^{dA*dB}`` (Alice's factor first); a mixed
state as a density matrix of the same total dimension.  Measurement families
are per-question lists of POVM elements indexed by answer.

Correlations and game operators are contractions, element by element, with
no ``kron`` per pair of elements.  With ``dA <= dB`` (else the roles swap)
each Bob element ``F`` is first reduced to a ``dA x dA`` operator: for a pure
state, ``conj(M) F M^T`` on the state matrix ``M`` (``dA dB^2`` time);
for a mixed state, one matrix-vector product with the reordered density
matrix (``dA^2 dB^2``).  Each pair of elements then costs ``dA^2``.
:func:`game_operator` sums ``pi V`` over Bob's elements (``dB^2`` per pair)
and takes one ``kron`` per Alice element; :func:`win_probability` needs no
game operator.  Intermediates are at most the size of the state.
"""

from __future__ import annotations

import math
import types
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidState, InvalidStrategy, PureStateRequired


def _is_sealed(a: np.ndarray) -> bool:
    """Whether ``a`` is complex128, C-contiguous, read-only down its ``.base`` chain and
    over ``bytes``, which numpy refuses to make writable.  An unpickled array can have
    a ``bytes`` base and stay writable, so the base alone proves nothing."""
    if a.dtype != np.complex128 or not a.flags.c_contiguous:
        return False
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return type(a) is bytes


def _freeze(a: np.ndarray) -> np.ndarray:
    """``a`` itself when :func:`_is_sealed`, else a C-contiguous complex128 copy
    over a new ``bytes`` object."""
    a = np.asarray(a)
    if _is_sealed(a):
        return a
    return np.ndarray(a.shape, np.complex128, np.ascontiguousarray(a, np.complex128).tobytes())


def _sealed(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """A new sealed array of complex128 zeros and a writable alias of its memory,
    to build it in place with no copy.  The ``bytes`` object is new, so nothing
    else sees the writes; drop the alias before the array is shared.  The alias
    covers every view of the array, so a build that keeps several results in one
    array (one family per row block) finishes all of them before it drops the
    alias and hands any out."""
    a = np.ndarray(shape, np.complex128, bytes(16 * math.prod(shape)))
    # not a.__array_interface__: each read interns and drops the key "typestr", and in
    # a long run those dead entries make Python's interned-string table resize mid-job
    face = {"shape": a.shape, "typestr": "<c16", "data": (a.ctypes.data, False), "version": 3}
    return a, np.asarray(types.SimpleNamespace(__array_interface__=face, owner=a))


class _ProvenFamily(Sequence):
    """One Naimark-dilated family of ``m`` projections on ``C^dim``, immutable, with
    what ``naimark._proven_dilation`` proves of exactly it:

    - ``w``, its sealed factor ``W_k``, columns grouped by outcome (``None`` for the
      last family);
    - ``gate``, the ``tol`` from which on it passes the validity gate;
    - ``square``, a bound on each :func:`linalg.projector_defect`;
    - ``complete``, a bound on its completeness defect;
    - ``kappa`` and ``norm``, the bounds of its compressions.

    ``_read()`` returns the projections as a tuple; the first read of any family of
    a side builds the whole side.  ``len`` is ``m``; indexing and iteration read the
    projections, and ``==`` and ``repr`` are those of their tuple, which no hash
    takes.  A slice, a regrouping, a copy, a pickle, or ``dataclasses.asdict`` gives
    a plain tuple: what it holds is measured, not proven.  Only this exact type is
    trusted."""

    _FIELDS = ("_read", "w", "m", "dim", "gate", "square", "complete", "kappa", "norm")
    __slots__ = _FIELDS + ("__weakref__",)

    def __init__(self, *values):
        for name, value in zip(self._FIELDS, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("a proven family is immutable")

    __delattr__ = __setattr__

    def __len__(self):
        return self.m

    def __getitem__(self, i):
        return self._read()[i]

    def __iter__(self):
        return iter(self._read())

    def __eq__(self, other):
        if type(other) is _ProvenFamily:
            other = other._read()
        return self._read() == other if isinstance(other, tuple) else NotImplemented

    def __repr__(self):
        return repr(self._read())

    def __reduce__(self):
        return tuple, (self._read(),)

    def times(self, j: int, x: np.ndarray) -> np.ndarray:
        """``P_kj x`` for a thin ``x``: ``B (B* x)`` with ``B = W_kj`` for ``j >= 1``,
        ``x - T (T* x)`` with the tail ``T = [W_k1 ... W_k(m-1)]`` for ``j = 0``, and
        the rows ``j::m`` of ``x`` in the last family.  That costs ``D n r`` for a
        ``D x n`` factor and ``r`` columns, in place of ``D^2 r``."""
        if self.w is None:
            out = np.zeros(x.shape, np.result_type(np.complex128, x))
            out[j::self.m] = x[j::self.m]
            return out
        n = self.w.shape[1] // self.m
        b = self.w[:, max(j, 1) * n:(j + 1) * n if j else None]
        y = b @ (b.T @ x.conj()).conj()  # B* x as conj(B^T conj(x)): no copy of B
        return y if j else x - y


def _families(raw, dim: int, side: str) -> tuple[tuple[np.ndarray, ...], ...]:
    """``raw`` as tuples of :func:`_freeze`-d elements.  An empty family raises
    :class:`InvalidStrategy`; an element not finite or not ``dim x dim``,
    :class:`DimensionMismatch`.  A :class:`_ProvenFamily` is kept as it is and not
    read: it carries its dimension, its projections are sealed, and its bounds are
    finite, so finite ``delta``, ``e`` and ``f``; then ``||B_j||^2 <= f`` and every
    entry is finite."""
    families = []
    for q, family in enumerate(raw):
        proven = type(family) is _ProvenFamily
        if not proven:
            family = tuple(_freeze(linalg.require_finite(e, f"{side} element")) for e in family)
        if not family:
            raise InvalidStrategy(f"{side} question {q} has an empty measurement family")
        for shape in [(family.dim,) * 2] if proven else (e.shape for e in family):
            if shape != (dim, dim):
                raise DimensionMismatch(
                    f"{side} element has shape {shape}, expected {(dim, dim)}"
                )
        families.append(family)
    return tuple(families)


@dataclass(frozen=True)
class NonlocalGame:
    """Question distribution ``pi[s, t]`` and predicate ``predicate[s, t, a, b]``."""

    pi: np.ndarray
    predicate: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=np.float64).copy()
        pred = np.asarray(self.predicate, dtype=np.float64).copy()
        if pi.ndim != 2 or pred.ndim != 4 or pred.shape[:2] != pi.shape:
            raise DimensionMismatch(
                f"pi {pi.shape} and predicate {pred.shape} are inconsistent"
            )
        if np.min(pi) < 0 or abs(pi.sum() - 1.0) > 1e-12:
            raise InvalidState("question distribution must be nonnegative and sum to 1")
        pi.setflags(write=False)
        pred.setflags(write=False)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "predicate", pred)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        """(questions S, questions T, answers A, answers B)."""
        s, t, a, b = self.predicate.shape
        return s, t, a, b


@dataclass(frozen=True)
class Strategy:
    """Shared state plus per-question POVM families for Alice and Bob.

    ``state`` is a vector (pure) or density matrix (mixed) on the joint space
    of dimension ``dims[0] * dims[1]``.  Construction checks that both local
    dimensions are at least 1, the state's shape, that the state and every
    element are finite (a :class:`_ProvenFamily`'s bounds show it, so it is not
    scanned again), and that every family is non-empty with elements of its
    side's ``d x d`` shape; semantic validity is checked by
    :func:`validate_strategy`.

    The state and the elements are stored sealed (:func:`_freeze`): a sealed
    array, as every array of a strategy is, is adopted as is; any other input
    is copied, so later writes to the caller's arrays never reach the strategy,
    and no stored array can be made writable.  Copies and pickles are rebuilt
    through the constructor.

    Two facts proven of the strategy are kept on it, outside the fields, so
    equality, ``repr``, ``asdict``, copies and pickles ignore them: ``_valid_tol``,
    the smallest ``tol`` of a passed gate (:func:`_is_valid`), and
    ``_naimark_isometries`` of ``naimark.naimark_strategy``.  None until set.
    """

    _valid_tol = None
    _naimark_isometries = None

    state: np.ndarray
    dims: tuple[int, int]
    alice: tuple[tuple[np.ndarray, ...], ...]
    bob: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        d_a, d_b = (int(self.dims[0]), int(self.dims[1]))
        if min(d_a, d_b) < 1:
            raise DimensionMismatch(f"local dimensions must be >= 1, not {(d_a, d_b)}")
        state = linalg.require_finite(self.state, "state")
        n = d_a * d_b
        if state.ndim == 1:
            if state.size != n:
                raise DimensionMismatch(f"pure state has size {state.size}, expected {n}")
        elif state.ndim == 2:
            if state.shape != (n, n):
                raise DimensionMismatch(
                    f"density operator has shape {state.shape}, expected {(n, n)}"
                )
        else:
            raise DimensionMismatch("state must be a vector or a density matrix")
        object.__setattr__(self, "state", _freeze(state))
        object.__setattr__(self, "dims", (d_a, d_b))
        object.__setattr__(self, "alice", _families(self.alice, d_a, "alice"))
        object.__setattr__(self, "bob", _families(self.bob, d_b, "bob"))

    def __reduce__(self):
        return (Strategy, (self.state, self.dims, self.alice, self.bob))

    @property
    def is_pure(self) -> bool:
        return self.state.ndim == 1

    def pure_state(self) -> np.ndarray:
        if not self.is_pure:
            raise PureStateRequired("strategy stores a density operator, not a vector")
        return self.state

    def density(self) -> np.ndarray:
        if self.is_pure:
            return np.outer(self.state, self.state.conj())
        return self.state


@dataclass(frozen=True)
class Correlation:
    """Outcome table ``p[s, t, a, b]`` produced by a strategy.

    Each question pair's entries must sum to one within ``tol``;
    :func:`correlation_of` passes ``inf``, as its gate has decided normalization.
    """

    table: np.ndarray
    tol: float = linalg.DEFAULT_TOL

    def __post_init__(self):
        p = np.asarray(self.table, dtype=np.float64).copy()
        if p.ndim != 4:
            raise DimensionMismatch("correlation table must be indexed [s, t, a, b]")
        if np.min(p) < -1e-12 or np.max(p) > 1 + 1e-12:
            raise InvalidState("correlation entries must lie in [0, 1] up to 1e-12")
        sums = p.sum(axis=(2, 3))
        if np.max(np.abs(sums - 1.0)) > self.tol:
            raise InvalidState("correlation must be normalized per question pair")
        p.setflags(write=False)
        object.__setattr__(self, "table", p)


@dataclass(frozen=True)
class ValidationReport:
    """Per-family and per-element defects of a strategy, and the verdict."""

    tol: float
    alice_completeness: tuple[float, ...]
    bob_completeness: tuple[float, ...]
    alice_min_eigenvalues: tuple[tuple[float, ...], ...]
    bob_min_eigenvalues: tuple[tuple[float, ...], ...]
    alice_hermiticity: tuple[tuple[float, ...], ...]
    bob_hermiticity: tuple[tuple[float, ...], ...]
    state_trace_defect: float
    state_min_eigenvalue: float
    state_hermiticity: float
    valid: bool


def _completeness_defect(family) -> float:
    total = family[0].copy()  # a new array, even for one element
    for e in family[1:]:
        total += e
    return linalg._identity_defect(total)


def _family_valid(family, tol: float) -> bool:
    """Validity at ``tol`` of a family of finite square complex128 elements: its
    ``gate`` at most ``tol`` (a :class:`_ProvenFamily`), or per element the
    Hermiticity defect, then :func:`linalg.is_psd`, and last the completeness
    defect."""
    if type(family) is _ProvenFamily and tol >= family.gate:
        return True
    if not all(linalg._hermitian_psd(e, tol) for e in family):
        return False
    return _completeness_defect(family) <= tol


def _times(family, j: int, x: np.ndarray) -> np.ndarray:
    """``family[j] @ x`` for a thin ``x``, or ``family.times(j, x)`` for a
    :class:`_ProvenFamily`, which reads no ``D x D`` array;
    ``naimark._proven_dilation`` bounds their distance."""
    return family.times(j, x) if type(family) is _ProvenFamily else family[j] @ x


def _is_valid(s: Strategy, tol: float) -> bool:
    """Validity of ``s`` at ``tol``, to the first failed check: per family
    :func:`_family_valid` (a :class:`_ProvenFamily` answers at or above its
    ``gate``), last the state's norm (pure), or its trace, Hermiticity and
    :func:`linalg.is_psd` (mixed).  No spectrum is computed.  The smallest ``tol``
    that passed is kept as ``s._valid_tol`` and answers any ``tol`` at or above
    it with no check: validity is monotone in ``tol``.  A failed check records
    nothing."""
    if s._valid_tol is not None and tol >= s._valid_tol:
        return True
    with np.errstate(over="ignore"):  # a huge finite entry's defect is inf, and fails
        valid = all(_family_valid(family, tol) for family in s.alice + s.bob) and (
            abs(float(np.linalg.norm(s.state)) - 1.0) <= tol
            if s.is_pure
            else abs(float(np.real(np.trace(s.state))) - 1.0) <= tol
            and linalg._hermitian_psd(s.state, tol)
        )
    if valid:
        object.__setattr__(s, "_valid_tol", tol)
    return valid


def _min_eigenvalue(h) -> float:
    h = h / 2.0  # halved before the Hermitian part is added, so no finite entry overflows
    return float(np.linalg.eigvalsh(h + linalg.dagger(h))[0])


def _family_defects(families):
    return (
        tuple(_completeness_defect(family) for family in families),
        tuple(tuple(_min_eigenvalue(e) for e in family) for family in families),
        tuple(tuple(linalg.hermiticity_defect(e) for e in family) for family in families),
    )


def validate_strategy(s: Strategy, tol: float = linalg.DEFAULT_TOL) -> ValidationReport:
    """Check POVM completeness/positivity and state normalization.

    Dimension inconsistencies raise; semantic defects are reported in the
    returned :class:`ValidationReport`.  ``valid`` is decided by the gate
    that :func:`correlation_of` and ``serialize.parse_strategy_file`` apply
    too, with positivity by the Cholesky test of :func:`linalg.is_psd`:
    minimum eigenvalue above ``-tol``, up to a backward error of about
    ``n*u*||E||``, the floor ``eigvalsh`` also has.  The minimum-eigenvalue
    tables are diagnostics only, and the one place element spectra are
    computed.
    """
    valid = _is_valid(s, tol)
    with np.errstate(over="ignore"):  # as in the gate: a defect may read inf
        a_comp, a_min, a_herm = _family_defects(s.alice)
        b_comp, b_min, b_herm = _family_defects(s.bob)
        if s.is_pure:
            trace_defect = abs(float(np.linalg.norm(s.state)) - 1.0)
            state_min = 0.0
            state_herm = 0.0
        else:
            rho = s.state
            trace_defect = abs(float(np.real(np.trace(rho))) - 1.0)
            state_herm = linalg.hermiticity_defect(rho)
            state_min = _min_eigenvalue(rho)
    return ValidationReport(
        tol=tol,
        alice_completeness=a_comp,
        bob_completeness=b_comp,
        alice_min_eigenvalues=a_min,
        bob_min_eigenvalues=b_min,
        alice_hermiticity=a_herm,
        bob_hermiticity=b_herm,
        state_trace_defect=trace_defect,
        state_min_eigenvalue=state_min,
        state_hermiticity=state_herm,
        valid=valid,
    )


def _check_compatible(g: NonlocalGame, s: Strategy):
    n_s, n_t, n_a, n_b = g.shape
    if len(s.alice) != n_s or len(s.bob) != n_t:
        raise DimensionMismatch("question sets of game and strategy differ")
    # families may omit trailing zero elements but never exceed the answer set
    if any(len(f) > n_a for f in s.alice) or any(len(f) > n_b for f in s.bob):
        raise DimensionMismatch("answer sets of game and strategy differ")


def _weights(g: NonlocalGame) -> np.ndarray:
    """``pi(s,t) V(a,b|s,t)`` indexed ``[s, t, a, b]``."""
    return g.pi[:, :, None, None] * g.predicate


def game_operator(g: NonlocalGame, s: Strategy) -> np.ndarray:
    """Weighted sum ``sum pi(s,t) V(a,b|s,t) A_sa (x) B_tb`` on the joint space.

    Computed as ``sum_sa A_sa (x) (sum_tb pi V B_tb)``: one ``kron`` per Alice
    element.
    """
    _check_compatible(g, s)
    d_a, d_b = s.dims
    weights = _weights(g)
    w = np.zeros((d_a * d_b, d_a * d_b), dtype=np.complex128)
    for qs, family in enumerate(s.alice):
        for a, e_a in enumerate(family):
            bob_sum = np.zeros((d_b, d_b), dtype=np.complex128)
            for qt, bob_family in enumerate(s.bob):
                for b, e_b in enumerate(bob_family):
                    c = weights[qs, qt, a, b]
                    if c != 0.0:
                        bob_sum += c * e_b
            w += np.kron(e_a, bob_sum)
    return w


def win_probability(g: NonlocalGame, s: Strategy) -> float:
    """Winning probability ``sum pi V p``, the state expectation of the game
    operator, from the unclipped outcome table; no validity gate."""
    _check_compatible(g, s)
    _, _, n_a, n_b = g.shape
    return float(np.sum(_weights(g) * _outcome_table(s, n_a, n_b)))


def correlation_of(s: Strategy, tol: float = linalg.DEFAULT_TOL) -> Correlation:
    """Outcome table ``p(a,b|s,t)`` of the strategy; validates on construction.

    Validity at ``tol`` is decided by the gate behind
    :func:`validate_strategy`'s verdict, with positivity by the Cholesky test
    of :func:`linalg.is_psd` (minimum eigenvalue above ``-tol``, up to a
    backward error of about ``n*u*||E||``); no spectrum is computed.  The
    table is rectangular over the largest answer count per side; questions
    with fewer outcomes contribute zero rows for the absent answers.  The gate
    at ``tol`` decides normalization once, so no row sum is checked again.
    """
    if not _is_valid(s, tol):
        raise InvalidStrategy("correlation requested for an invalid strategy")
    if not s.alice or not s.bob:
        raise InvalidStrategy("correlation needs at least one question on each side")
    n_a = max(len(f) for f in s.alice)
    n_b = max(len(f) for f in s.bob)
    table = _outcome_table(s, n_a, n_b)
    return Correlation(table=np.clip(table, 0.0, 1.0), tol=math.inf)


def _outcome_table(s: Strategy, n_a: int, n_b: int) -> np.ndarray:
    """Unclipped ``Re tr((A_sa (x) B_tb) rho)`` indexed ``[s, t, a, b]`` over
    ``n_a`` and ``n_b`` answers, zero for answers a family lacks; no gate.

    The larger side's elements are reduced to operators on the smaller side
    (see the module docstring), so the roles swap when ``dA > dB``.
    """
    d_a, d_b = s.dims
    if s.is_pure:
        state, swap = s.state.reshape(d_a, d_b), (1, 0)
    else:
        state, swap = s.state.reshape(d_a, d_b, d_a, d_b), (1, 0, 3, 2)
    if d_a <= d_b:
        return _reduced_table(state, s.alice, s.bob, n_a, n_b)
    return _reduced_table(state.transpose(swap), s.bob, s.alice, n_b, n_a).transpose(1, 0, 3, 2)


def _reduced_table(state, alice, bob, n_a, n_b) -> np.ndarray:
    """:func:`_outcome_table` from the state matrix ``M`` (``dA x dB``) or the
    density tensor ``rho[i, j, k, l]``, each Bob element ``F`` reduced to the
    ``dA x dA`` operator ``R`` with ``tr((E (x) F) rho) = sum_ki E_ki R_ki``."""
    d_a, d_b = state.shape[:2]
    if state.ndim == 2:  # R = conj(M) F M^T
        m_conj = state.conj()

        def reduce(family, b):
            return m_conj @ _times(family, b, state.T)
    else:  # R_ki = sum_lj rho[i, j, k, l] F_lj, one matrix-vector product
        r = state.transpose(2, 0, 3, 1).reshape(d_a * d_a, d_b * d_b)

        def reduce(family, b):
            return (r @ family[b].reshape(-1)).reshape(d_a, d_a)

    reduced = np.zeros((len(bob), n_b, d_a, d_a), dtype=np.complex128)
    for qt, family in enumerate(bob):
        for b in range(len(family)):
            reduced[qt, b] = reduce(family, b)
    table = np.zeros((len(alice), len(bob), n_a, n_b), dtype=np.float64)
    for qs, family in enumerate(alice):
        for a, e in enumerate(family):
            table[qs, :, a, :] = np.tensordot(reduced, e, axes=([2, 3], [0, 1])).real
    return table


def attach_product_ancilla(s: Strategy, aux_a, aux_b) -> Strategy:
    """Tensor a product ancilla onto a pure strategy, extending POVMs by identity.

    The original factors stay first on each side: Alice's new space is
    ``H_A (x) H_A'`` and the state becomes the reordered ``psi (x) a (x) b``.
    """
    psi = s.pure_state()
    aux_a = linalg.as_complex(aux_a)
    aux_b = linalg.as_complex(aux_b)
    for v, name in ((aux_a, "aux_a"), (aux_b, "aux_b")):
        if v.ndim != 1 or abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise InvalidState(f"{name} must be a normalized vector")
    d_a, d_b = s.dims
    k_a, k_b = aux_a.size, aux_b.size
    big = linalg.permute_systems(
        np.kron(np.kron(psi, aux_a), aux_b), (d_a, d_b, k_a, k_b), (0, 2, 1, 3)
    )
    alice = [[np.kron(e, linalg.identity(k_a)) for e in fam] for fam in s.alice]
    bob = [[np.kron(e, linalg.identity(k_b)) for e in fam] for fam in s.bob]
    return Strategy(state=big, dims=(d_a * k_a, d_b * k_b), alice=alice, bob=bob)


def conjugate_strategy(s: Strategy, u_a, u_b) -> Strategy:
    """Rotate a strategy by local unitaries: state and all elements conjugated."""
    u_a = linalg.as_complex(u_a)
    u_b = linalg.as_complex(u_b)
    d_a, d_b = s.dims
    if u_a.shape != (d_a, d_a) or u_b.shape != (d_b, d_b):
        raise DimensionMismatch("conjugation expects square local unitaries")
    if s.is_pure:
        state = linalg.apply_factors(s.state, (d_a, d_b), (u_a, u_b))
    else:
        u = np.kron(u_a, u_b)
        state = u @ s.state @ u.conj().T
    alice = [[u_a @ e @ u_a.conj().T for e in fam] for fam in s.alice]
    bob = [[u_b @ e @ u_b.conj().T for e in fam] for fam in s.bob]
    return Strategy(state=state, dims=s.dims, alice=alice, bob=bob)
