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
import weakref
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidState, InvalidStrategy, PureStateRequired


def _freeze(a: np.ndarray) -> np.ndarray:
    """``a`` sealed: itself when this function or :func:`_sealed` made it, else
    a C-contiguous complex128 copy over a ``bytes`` object, which numpy refuses
    to make writable.  An unpickled array can have a ``bytes`` base and stay
    writable, so the base alone proves nothing."""
    a = np.asarray(a)
    if not _recall(a, "sealed"):
        a = np.ndarray(a.shape, np.complex128, np.ascontiguousarray(a, np.complex128).tobytes())
        _remember(a, sealed=True)
    return a


def _sealed(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """A new sealed array of complex128 zeros and a writable alias of its memory,
    to build it in place with no copy.  The ``bytes`` object is new, so nothing
    else sees the writes; drop the alias before the array is shared."""
    a = np.ndarray(shape, np.complex128, bytes(16 * math.prod(shape)))
    _remember(a, sealed=True)
    face = dict(a.__array_interface__, data=(a.__array_interface__["data"][0], False))
    return a, np.asarray(types.SimpleNamespace(__array_interface__=face, owner=a))


def _families(raw, dim: int, side: str) -> tuple[tuple[np.ndarray, ...], ...]:
    """``raw`` as tuples of :func:`_freeze`-d elements.  An empty family raises
    :class:`InvalidStrategy`; an element not finite or not ``dim x dim``,
    :class:`DimensionMismatch`."""
    families = []
    for q, family in enumerate(raw):
        family = tuple(_freeze(linalg.require_finite(e, f"{side} element")) for e in family)
        if not family:
            raise InvalidStrategy(f"{side} question {q} has an empty measurement family")
        for e in family:
            if e.shape != (dim, dim):
                raise DimensionMismatch(
                    f"{side} element has shape {e.shape}, expected {(dim, dim)}"
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
    element are finite, and that every family is non-empty with elements of
    its side's ``d x d`` shape; semantic validity is checked by
    :func:`validate_strategy`.

    The state and the elements are stored sealed (:func:`_freeze`): an array
    sealed already, as every array of a strategy is, is adopted as is;
    any other input is copied, so later writes to the caller's arrays never
    reach the strategy, and no stored array can be made writable.  Copies and
    pickles are rebuilt through the constructor.

    Facts proven of a strategy or a sealed array (``valid_tol``, see
    :func:`_is_valid`; the ``naimark_isometries`` and ``projectivity`` of
    ``naimark.naimark_strategy``) live in one table held by weak reference
    (:func:`_remember`, :func:`_recall`), never on the object, so equality,
    copies and reports ignore them.  An entry leaves with its object.
    """

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
    :func:`correlation_of` passes the bound its validity gate implies.
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
    """Validity at ``tol`` of a family of finite square complex128 elements: per element
    the Hermiticity defect, then :func:`linalg.is_psd`; last the completeness defect."""
    if not all(linalg._hermitian_psd(e, tol) for e in family):
        return False
    return _completeness_defect(family) <= tol


# id(obj) -> (a weak reference to obj, {fact: value}) for each Strategy with a
# proven fact and each sealed array; the entry leaves as obj dies, before its
# id can be reused.  See Strategy.
_FACTS: dict[int, tuple[weakref.ref, dict]] = {}


def _remember(obj, **facts) -> None:
    """Add ``facts`` to what is known of ``obj``."""
    key = id(obj)
    if key in _FACTS:
        _FACTS[key][1].update(facts)
    else:
        # pop is bound now: at interpreter exit the module global may be gone first
        _FACTS[key] = (weakref.ref(obj, lambda _, pop=_FACTS.pop: pop(key, None)), facts)


def _recall(obj, name: str):
    """The fact ``name`` of ``obj``, or None."""
    entry = _FACTS.get(id(obj))
    return None if entry is None else entry[1].get(name)


def _times(e: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``e @ x`` for a thin ``x``, through the ``factor`` fact of a Naimark projection
    when ``e`` has one (``naimark._factored_families``): ``B (B* x)`` for ``("range",
    B)``, ``x - T (T* x)`` for ``("complement", T)``, and the rows ``x[rows]`` for
    ``("rows", rows)``.  That costs ``D n r`` for a ``D x n`` factor and ``r``
    columns, in place of ``D^2 r``, and reads no ``D x D`` array;
    ``naimark._proven_dilation`` bounds its distance from ``e @ x``."""
    fact = _recall(e, "factor")
    if fact is None:
        return e @ x
    kind, f = fact
    if kind == "rows":
        out = np.zeros(x.shape, np.result_type(e, x))
        out[f] = x[f]
        return out
    y = f @ (f.T @ x.conj()).conj()  # B* x as conj(B^T conj(x)): no copy of B
    return y if kind == "range" else x - y


def _is_valid(s: Strategy, tol: float) -> bool:
    """Validity of ``s`` at ``tol``: :func:`_dense_gate`, or the fact ``valid_tol``.

    The smallest ``tol`` that passed is remembered and answers any ``tol`` at
    or above it with no check: validity is monotone in ``tol``.  A failed check
    records nothing; ``naimark.naimark_strategy`` proves ``valid_tol`` of its
    output from the factors.
    """
    proven = _recall(s, "valid_tol")
    if proven is not None and tol >= proven:
        return True
    with np.errstate(over="ignore"):  # a huge finite entry's defect is inf, and fails
        valid = _dense_gate(s, tol)
    if valid:
        _remember(s, valid_tol=tol)
    return valid


def _dense_gate(s: Strategy, tol: float) -> bool:
    """Validity of ``s`` at ``tol``; returns at the first failed check.

    Per family: :func:`_family_valid`; last the state's norm (pure), or its
    trace, Hermiticity and :func:`linalg.is_psd` (mixed).  No spectrum is computed.
    """
    if not all(_family_valid(family, tol) for family in s.alice + s.bob):
        return False
    if s.is_pure:
        return abs(float(np.linalg.norm(s.state)) - 1.0) <= tol
    rho = s.state
    return abs(float(np.real(np.trace(rho))) - 1.0) <= tol and linalg._hermitian_psd(rho, tol)


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
    with fewer outcomes contribute zero rows for the absent answers.  Each
    question pair's entries sum to one within :func:`_row_sum_bound`, not
    within ``tol``.
    """
    if not _is_valid(s, tol):
        raise InvalidStrategy("correlation requested for an invalid strategy")
    if not s.alice or not s.bob:
        raise InvalidStrategy("correlation needs at least one question on each side")
    n_a = max(len(f) for f in s.alice)
    n_b = max(len(f) for f in s.bob)
    table = _outcome_table(s, n_a, n_b)
    return Correlation(table=np.clip(table, 0.0, 1.0), tol=_row_sum_bound(s, tol, n_a, n_b))


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

        def reduce(f):
            if _recall(f, "factor") is None:  # as before, so a report keeps its bytes
                return (m_conj @ f) @ state.T
            return m_conj @ _times(f, state.T)
    else:  # R_ki = sum_lj rho[i, j, k, l] F_lj, one matrix-vector product
        r = state.transpose(2, 0, 3, 1).reshape(d_a * d_a, d_b * d_b)

        def reduce(f):
            return (r @ f.reshape(-1)).reshape(d_a, d_a)

    reduced = np.zeros((len(bob), n_b, d_a, d_a), dtype=np.complex128)
    for qt, family in enumerate(bob):
        for b, f in enumerate(family):
            reduced[qt, b] = reduce(f)
    table = np.zeros((len(alice), len(bob), n_a, n_b), dtype=np.float64)
    for qs, family in enumerate(alice):
        for a, e in enumerate(family):
            table[qs, :, a, :] = np.tensordot(reduced, e, axes=([2, 3], [0, 1])).real
    return table


def _row_sum_bound(s: Strategy, tol: float, n_a: int, n_b: int) -> float:
    """How far from one a question pair's entries of ``correlation_of``'s
    clipped table may sum when ``s`` passes the gate at ``t = tol``, for at
    most ``n_a`` and ``n_b`` answers (exact arithmetic; rounding adds a few
    ulps per entry).

    The gate gives: each element is ``E = H + iG`` with ``H``, ``G``
    Hermitian, ``H >= -t`` and ``||G|| <= t/2``; each family sums to
    ``S = 1 + D`` with ``||D|| <= t``.  So for ``m`` answers
    ``sum |H| = sum H + 2 sum H- <= 1 + (2m+1)t`` and ``sum |G| <= mt/2``.
    The state ``rho = R + iJ`` (``psi psi*`` when pure) has
    ``|tr R - 1| <= eta`` and ``||R||_1 + ||J||_1 <= nu``: pure,
    ``eta = (1+t)^2 - 1`` and ``nu = (1+t)^2``; mixed on ``C^n``,
    ``eta = t`` and ``nu = 1 + (2n+1)t + sqrt(n) t/2`` (``R >= -t`` adds at
    most ``2nt`` to ``||R||_1``, and ``||J||_F <= t/2``).

    Unclipped, a row sums to ``Re tr((S_A (x) S_B) rho)`` with
    ``||S_A (x) S_B - 1|| <= (1+t)^2 - 1``, so within
    ``delta = eta + ((1+t)^2 - 1) nu`` of one; ``(1+t)^4 - 1`` when pure.
    An entry is ``tr((H (x) H' - G (x) G') R) - tr((H (x) G' + G (x) H') J)``
    and ``|tr((X (x) Y) W)| <= tr((|X| (x) |Y|) |W|)``, so the entries'
    absolute values sum to at most
    ``a = nu (1 + (5 n_a/2 + 1)t)(1 + (5 n_b/2 + 1)t)``.  Clipping to
    ``[0, 1]`` leaves a row sum at most ``sum p+ = (sum p + sum |p|)/2 <=
    1 + (delta + a - 1)/2`` and at least ``min(sum p+, 1) >= 1 - delta``.
    """
    t = tol
    if s.is_pure:
        nu = (1.0 + t) ** 2
        eta = nu - 1.0
    else:
        n = s.state.shape[0]
        nu = 1.0 + (2 * n + 1) * t + n**0.5 * t / 2
        eta = t
    delta = eta + ((1.0 + t) ** 2 - 1.0) * nu
    a = nu * (1.0 + (2.5 * n_a + 1) * t) * (1.0 + (2.5 * n_b + 1) * t)
    return max(delta, (delta + a - 1.0) / 2)


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
