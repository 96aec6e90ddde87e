"""Nonlocal games, quantum strategies, correlations, and winning probabilities.

Conventions: questions and answers are 0-based integer ranges.  A pure state
is stored as a 1-D vector on ``C^{dA*dB}`` (Alice's factor first); a mixed
state as a density matrix of the same total dimension.  Measurement families
are per-question lists of POVM elements indexed by answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidState, InvalidStrategy, PureStateRequired

# tr(rho^2) >= 1 - PURITY_TOL marks a density operator as numerically pure
PURITY_TOL = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    a = linalg.as_complex(a).copy()
    a.setflags(write=False)
    return a


def _freeze_families(families, side: str) -> tuple[tuple[np.ndarray, ...], ...]:
    return tuple(
        tuple(_freeze(linalg.require_finite(e, f"{side} element")) for e in fam)
        for fam in families
    )


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
    of dimension ``dims[0] * dims[1]``.  Construction checks the state's
    shape and that the state and every element are finite; semantic validity
    is checked by :func:`validate_strategy`.
    """

    state: np.ndarray
    dims: tuple[int, int]
    alice: tuple[tuple[np.ndarray, ...], ...]
    bob: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        d_a, d_b = (int(self.dims[0]), int(self.dims[1]))
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
        object.__setattr__(self, "alice", _freeze_families(self.alice, "alice"))
        object.__setattr__(self, "bob", _freeze_families(self.bob, "bob"))

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

    def purity(self) -> float:
        rho = self.density()
        return float(np.real(np.trace(rho @ rho)))

    @property
    def is_numerically_pure(self) -> bool:
        """True for vector states and for density operators with tr(rho^2)
        within :data:`PURITY_TOL` of one."""
        return self.is_pure or self.purity() >= 1.0 - PURITY_TOL


@dataclass(frozen=True)
class Correlation:
    """Outcome table ``p[s, t, a, b]`` produced by a strategy.

    Each question pair's entries must sum to one within ``tol``, the
    tolerance at which the producing strategy was validated.
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


def _check_families(families, dim, side):
    for q, family in enumerate(families):
        if not family:
            raise InvalidStrategy(f"{side} question {q} has an empty measurement family")
        for e in family:
            if e.shape != (dim, dim):
                raise DimensionMismatch(
                    f"{side} element has shape {e.shape}, expected {(dim, dim)}"
                )


def _completeness_defect(family) -> float:
    total = sum(family)  # a new array, even for one element
    total[np.diag_indices_from(total)] -= 1.0
    return linalg.frobenius(total)


def _is_valid(s: Strategy, tol: float) -> bool:
    """Validity of ``s`` at ``tol``; returns at the first failed check.

    Empty families and wrong shapes raise.  Per element: the Hermiticity
    defect, then :func:`linalg.is_psd`; per family: the completeness defect;
    last the state's norm (pure), or its trace, Hermiticity and
    :func:`linalg.is_psd` (mixed).  No spectrum is computed.
    """
    _check_families(s.alice, s.dims[0], "alice")
    _check_families(s.bob, s.dims[1], "bob")
    for family in s.alice + s.bob:
        for e in family:
            if linalg.hermiticity_defect(e) > tol or not linalg.is_psd(e, tol):
                return False
        if _completeness_defect(family) > tol:
            return False
    if s.is_pure:
        return abs(float(np.linalg.norm(s.state)) - 1.0) <= tol
    rho = s.state
    return (
        abs(float(np.real(np.trace(rho))) - 1.0) <= tol
        and linalg.hermiticity_defect(rho) <= tol
        and linalg.is_psd(rho, tol)
    )


def _min_eigenvalue(h) -> float:
    return float(np.linalg.eigvalsh((h + linalg.dagger(h)) / 2.0)[0])


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


def game_operator(g: NonlocalGame, s: Strategy) -> np.ndarray:
    """Weighted sum ``sum pi(s,t) V(a,b|s,t) A_sa (x) B_tb`` on the joint space."""
    _check_compatible(g, s)
    n_s, n_t, n_a, n_b = g.shape
    d = s.dims[0] * s.dims[1]
    w = np.zeros((d, d), dtype=np.complex128)
    for qs in range(n_s):
        for qt in range(n_t):
            weight = g.pi[qs, qt]
            if weight == 0.0:
                continue
            for a, e_a in enumerate(s.alice[qs]):
                for b, e_b in enumerate(s.bob[qt]):
                    v = g.predicate[qs, qt, a, b]
                    if v == 0.0:
                        continue
                    w += weight * v * np.kron(e_a, e_b)
    return w


def win_probability(g: NonlocalGame, s: Strategy) -> float:
    """Winning probability, the state expectation of the game operator."""
    w = game_operator(g, s)
    if s.is_pure:
        psi = s.state
        return float(np.real(psi.conj() @ (w @ psi)))
    return float(np.real(np.trace(w @ s.state)))


def correlation_of(s: Strategy, tol: float = linalg.DEFAULT_TOL) -> Correlation:
    """Outcome table ``p(a,b|s,t)`` of the strategy; validates on construction.

    Validity at ``tol`` is decided by the gate behind
    :func:`validate_strategy`'s verdict, with positivity by the Cholesky test
    of :func:`linalg.is_psd` (minimum eigenvalue above ``-tol``, up to a
    backward error of about ``n*u*||E||``); no spectrum is computed.  The
    table is rectangular over the largest answer count per side; questions
    with fewer outcomes contribute zero rows for the absent answers.
    """
    if not _is_valid(s, tol):
        raise InvalidStrategy("correlation requested for an invalid strategy")
    if not s.alice or not s.bob:
        raise InvalidStrategy("correlation needs at least one question on each side")
    d_a, d_b = s.dims
    n_s, n_t = len(s.alice), len(s.bob)
    n_a = max(len(f) for f in s.alice)
    n_b = max(len(f) for f in s.bob)
    table = np.zeros((n_s, n_t, n_a, n_b), dtype=np.float64)
    if s.is_pure:
        m = s.state.reshape(d_a, d_b)
        for qs in range(n_s):
            for a, e_a in enumerate(s.alice[qs]):
                left = e_a @ m
                for qt in range(n_t):
                    for b, e_b in enumerate(s.bob[qt]):
                        val = np.vdot(m, left @ e_b.T)
                        table[qs, qt, a, b] = float(np.real(val))
    else:
        rho = s.state
        for qs in range(n_s):
            for a, e_a in enumerate(s.alice[qs]):
                for qt in range(n_t):
                    for b, e_b in enumerate(s.bob[qt]):
                        op = np.kron(e_a, e_b)
                        table[qs, qt, a, b] = float(np.real(np.trace(op @ rho)))
    return Correlation(table=np.clip(table, 0.0, 1.0), tol=tol)


def optimality_gap(g: NonlocalGame, s: Strategy, omega_q: float) -> float:
    """``omega_q - omega(S, G)``; negative if the supplied bound is not one."""
    return float(omega_q) - win_probability(g, s)


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
