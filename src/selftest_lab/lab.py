"""Worked examples and quantitative diagnostics: CHSH, the trine extension and
its minimal dilations, Bell functionals, eigengap overlap bounds, effective
measurements, operator moments, and the rank-deficiency pencil.

Question and outcome conventions for the bundled strategies: Alice question 0
measures Z, question 1 measures X; Bob question 0 measures (X+Z)/sqrt(2),
question 1 measures (Z-X)/sqrt(2), and (in the extended strategy) question 2
is the trine POVM.  Outcome 0 of a binary question is the +1 eigenprojector
of its observable.  With these orderings the two Bell functionals evaluate to
(2*sqrt(2), 1) on the extended strategy.  They are linear functionals of the
unclipped outcome table ``p(a,b|s,t)``, evaluated with no validity gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import games, linalg
from .errors import (
    DegenerateTopEigenvalue,
    DimensionMismatch,
    InvalidState,
    LabError,
)
from .games import NonlocalGame, Strategy

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

CHSH_QUANTUM_VALUE = (2.0 + np.sqrt(2.0)) / 4.0
"""Largest eigenvalue of the CHSH game operator for the canonical qubit
measurements (Tsirelson's bound in game form); supplied as a constant because
computing optimal game values is out of scope."""

CLUSTER_TOL = 1e-9  # eigenvalues within this of each other count as one level


def _projector_pair(observable: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(+1, -1) eigenprojectors of a qubit observable with spectrum {+1, -1}."""
    plus = (linalg.identity(2) + observable) / 2.0
    return plus, linalg.identity(2) - plus


def bell_state() -> np.ndarray:
    v = np.zeros(4, dtype=np.complex128)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return v


def chsh_game() -> NonlocalGame:
    """Uniform questions; win iff the answers satisfy a XOR b = s AND t."""
    pi = np.full((2, 2), 0.25)
    pred = np.zeros((2, 2, 2, 2))
    for s in range(2):
        for t in range(2):
            for a in range(2):
                for b in range(2):
                    pred[s, t, a, b] = 1.0 if (a ^ b) == (s & t) else 0.0
    return NonlocalGame(pi=pi, predicate=pred)


def canonical_chsh() -> Strategy:
    """The maximally entangled qubit strategy reaching the CHSH quantum value."""
    h_obs = (PAULI_X + PAULI_Z) / np.sqrt(2.0)
    k_obs = (PAULI_Z - PAULI_X) / np.sqrt(2.0)
    return Strategy(
        state=bell_state(),
        dims=(2, 2),
        alice=[_projector_pair(PAULI_Z), _projector_pair(PAULI_X)],
        bob=[_projector_pair(h_obs), _projector_pair(k_obs)],
    )


def trine_strategy() -> Strategy:
    """Canonical CHSH plus a third Bob question measuring the trine POVM."""
    base = canonical_chsh()
    return Strategy(
        state=base.state,
        dims=base.dims,
        alice=base.alice,
        bob=list(base.bob) + [trine_povm()],
    )


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


def _minimal_trine_dilation(defect: tuple[int, int]):
    """``V = np.eye(3, 2)`` and Bob's families of :func:`trine_strategy` dilated
    through it: ``V F V*`` per element ``F`` of question ``q``, plus ``1 - V V*``
    (exactly ``diag(0, 0, 1)``, off the support of ``V F V*``) at outcome
    ``defect[q]``, and the trine as the rank-1 projectors onto
    :func:`trine_projector_vectors`."""
    v = np.eye(3, 2, dtype=np.complex128)
    complement = linalg.identity(3) - v @ v.conj().T
    families = []
    for q, family in enumerate(canonical_chsh().bob):
        pushed = [v @ f @ v.conj().T for f in family]
        pushed[defect[q]] = pushed[defect[q]] + complement
        families.append(tuple(pushed))
    families.append(tuple(np.outer(e, e.conj()) for e in trine_projector_vectors()))
    return v, tuple(families)


def minimal_trine_dilation():
    """Bob's families of :func:`trine_strategy` dilated minimally to C^3, as a
    ``naimark.NaimarkDilation``: the off-range defect ``1 - V V*`` joins outcome 0
    of question 0 and outcome 1 of question 1."""
    from .naimark import NaimarkDilation

    v, families = _minimal_trine_dilation((0, 1))
    return NaimarkDilation(pvms=families, isometry=v, dims=(2, 3))


@dataclass(frozen=True)
class BetaValues:
    beta0: float
    beta1: float


# Coefficients of p[s, t, a, b]: Alice's questions and Bob's first two are
# binary, with outcome a read as the eigenvalue (-1)^a; Bob's third has three.
_SIGN = np.array([1.0, -1.0, 0.0])
_R3 = np.sqrt(3.0) / 2.0
_BETA0 = np.einsum("st,a,b->stab", [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]], _SIGN[:2], _SIGN)
_BETA1 = np.einsum("t,a,sb->stab", [0.0, 0.0, 1.0], _SIGN[:2], [[1, -0.5, -0.5], [0, _R3, -_R3]])


def beta_functionals(s: Strategy) -> BetaValues:
    """The two Bell functionals of the CHSH+trine scenario.

    ``beta0`` is the CHSH combination of the four binary questions using
    observables ``E_0 - E_1`` per question; ``beta1`` pairs Alice's
    observables with the elements of Bob's three-outcome question as
    ``A0 F0 - (A0/2 - sqrt(3)A1/2) F1 - (A0/2 + sqrt(3)A1/2) F2``.  Both are
    linear functionals of the unclipped outcome table, contracted with
    constant coefficient tensors as :func:`games.win_probability` contracts
    the game's weights; no validity gate is applied.
    """
    if len(s.alice) != 2 or any(len(f) != 2 for f in s.alice):
        raise DimensionMismatch("expected two binary Alice questions")
    if len(s.bob) != 3 or len(s.bob[0]) != 2 or len(s.bob[1]) != 2 or len(s.bob[2]) != 3:
        raise DimensionMismatch("expected two binary Bob questions plus one trine-like question")
    p = games._outcome_table(s, 2, 3)
    return BetaValues(beta0=float(np.vdot(_BETA0, p)), beta1=float(np.vdot(_BETA1, p)))


@dataclass(frozen=True)
class EigengapReport:
    """Spectral gap data and the candidate's overlap with the top level.

    ``state_bound = sqrt(2 - 2 sqrt(p0))`` is the exact distance from the
    candidate to the best product ``canonical (x) aux``; when the candidate is
    ``delta``-optimal it is bounded by ``sqrt(2 delta / gap)``.
    """

    lambda0: float
    lambda1: float
    gap: float
    top_multiplicity: int
    p0: float
    state_bound: float


def eigengap_analysis(w, canonical_psi, candidate, delta_eff: float) -> EigengapReport:
    """Overlap-vs-gap analysis of a candidate state against a game operator.

    ``candidate`` may live on an extension ``H_W (x) H_aux`` (operator factor
    first); ``p0`` is then the squared norm of its component along the
    canonical state.  Raises when the top eigenvalue is degenerate at the
    clustering tolerance or when ``canonical_psi`` does not span the top
    eigenspace.
    """
    spec = linalg.hermitian_eig(linalg.as_complex(w))
    evals = spec.eigenvalues
    lam0 = float(evals[0])
    mult = int(np.count_nonzero(evals > lam0 - CLUSTER_TOL))
    if mult > 1:
        raise DegenerateTopEigenvalue(
            f"top eigenvalue has multiplicity {mult} at tolerance {CLUSTER_TOL}"
        )
    lam1 = float(evals[1]) if evals.size > 1 else lam0
    gap = lam0 - lam1
    canonical = linalg.as_complex(canonical_psi)
    canonical = canonical / np.linalg.norm(canonical)
    if abs(np.vdot(spec.eigenvectors[:, 0], canonical)) < 1.0 - 1e-9:
        raise InvalidState("canonical state does not span the top eigenspace")
    cand = linalg.as_complex(candidate)
    cand = cand / np.linalg.norm(cand)
    d_w = evals.size
    if cand.size % d_w != 0:
        raise DimensionMismatch("candidate does not factor over the operator space")
    k = cand.size // d_w
    component = canonical.conj() @ cand.reshape(d_w, k)
    p0 = float(np.real(np.vdot(component, component)))
    p0 = min(max(p0, 0.0), 1.0)
    state_bound = float(np.sqrt(max(0.0, 2.0 - 2.0 * np.sqrt(p0))))
    energy = float(
        np.real(np.vdot(cand, linalg.apply_factors(cand, (d_w, k), (linalg.as_complex(w), None))))
    )
    if gap > 0 and energy >= lam0 - delta_eff - 1e-12:
        if p0 < 1.0 - delta_eff / gap - 1e-9:
            raise LabError("overlap bound violated; inconsistent spectral data")
    return EigengapReport(
        lambda0=lam0,
        lambda1=lam1,
        gap=gap,
        top_multiplicity=mult,
        p0=p0,
        state_bound=state_bound,
    )


def _numerical_rank(m: np.ndarray) -> int:
    sing = np.linalg.svd(m, compute_uv=False)
    if sing.size == 0 or sing[0] == 0.0:
        return 0
    return int(np.count_nonzero(sing > 1e-8 * sing[0]))


def rank_deficient_combination(phi, psi, d: int):
    """A combination ``phi + x0 psi`` with Schmidt rank below ``d``.

    Reshapes both (possibly unnormalized) vectors on ``C^d (x) C^d`` to d-by-d
    matrices.  When ``M_phi`` is singular, ``x0 = 0`` already works; else the
    roots of ``det(M_phi + x M_psi) = 0`` are ``x = -1/mu`` for the eigenvalues
    ``mu`` of ``M_phi^{-1} M_psi`` with ``|mu| > 1e-12``, and with no such ``mu``
    the returned combination is ``psi`` alone and ``x0`` is infinite.  Returns
    ``(x0, normalized state, schmidt rank)``.  A combination that vanishes, of norm
    at most ``1e-12`` times the sum of its terms' norms, has no state: a zero
    ``phi`` or ``psi``, or ``psi`` a multiple of ``phi``, raises
    :class:`InvalidState`.
    """
    phi = linalg.as_complex(phi)
    psi = linalg.as_complex(psi)
    if phi.size != d * d or psi.size != d * d:
        raise DimensionMismatch(f"vectors must live on C^{d} (x) C^{d}")
    m_phi = phi.reshape(d, d)

    def finish(x0: complex, vec: np.ndarray, scale: float):
        norm = np.linalg.norm(vec)
        if norm <= 1e-12 * scale:
            raise InvalidState(f"phi + x0 psi vanishes at x0 = {x0}: no state to normalize")
        vec = vec / norm
        return x0, vec, _numerical_rank(vec.reshape(d, d))

    if _numerical_rank(m_phi) < d:
        return finish(0.0 + 0.0j, phi, np.linalg.norm(phi))
    mu = np.linalg.eigvals(np.linalg.solve(m_phi, psi.reshape(d, d)))
    roots = [-1.0 / z for z in mu if abs(z) > 1e-12]
    if not roots:
        return finish(complex(np.inf), psi, np.linalg.norm(psi))

    def ratio(x0) -> float:
        sing = np.linalg.svd((phi + x0 * psi).reshape(d, d), compute_uv=False)
        return sing[-1] / sing[0] if sing[0] > 0 else 0.0

    x0 = min(sorted(roots, key=lambda z: (abs(z), z.real, z.imag)), key=ratio)
    return finish(complex(x0), phi + x0 * psi, np.linalg.norm(phi) + abs(x0) * np.linalg.norm(psi))


def effective_measurement(elements, u, dims: tuple[int, int], sigma) -> list[np.ndarray]:
    """Compress measurement elements through an isometry and an ancilla state.

    ``u`` maps the space of the elements into ``H_target (x) H_anc`` with
    ``dims = (d_target, d_anc)``; ``sigma`` is a density operator on the
    ancilla factor.  Returns

        G_j = tr_anc[(1 (x) sqrt(sigma)) U F_j U* (1 (x) sqrt(sigma))].
    """
    u = linalg.as_complex(u)
    d_t, d_anc = (int(dims[0]), int(dims[1]))
    if u.ndim != 2:
        raise DimensionMismatch(f"isometry must be a matrix, got shape {u.shape}")
    if u.shape[0] != d_t * d_anc:
        raise DimensionMismatch("isometry codomain does not match dims")
    sigma = linalg.require_square(sigma)
    if sigma.shape[0] != d_anc:
        raise DimensionMismatch("sigma must act on the ancilla factor")
    sand = np.kron(linalg.identity(d_t), linalg.psd_sqrt(sigma))
    out = []
    for f in games._families([elements], u.shape[1], "measurement")[0]:
        big = sand @ (u @ f @ u.conj().T) @ sand
        out.append(linalg.partial_trace(big, (d_t, d_anc), "A"))
    return out


def higher_order_moment(s: Strategy, alice_word, bob_word) -> complex:
    """State expectation of ordered products of measurement elements.

    Words are sequences of ``(question, answer)`` pairs; each player's
    operators multiply left to right in word order.  Length-1 words on both
    sides reduce to a correlation entry.
    """
    d_a, d_b = s.dims

    def product(families, word, dim):
        op = linalg.identity(dim)
        for q, a in word:
            if not (0 <= q < len(families)) or not (0 <= a < len(families[q])):
                raise LabError(f"word letter ({q}, {a}) is out of range")
            op = op @ families[q][a]
        return op

    op_a = product(s.alice, alice_word, d_a)
    op_b = product(s.bob, bob_word, d_b)
    if s.is_pure:
        return complex(np.vdot(s.state, linalg.apply_factors(s.state, s.dims, (op_a, op_b))))
    rho = s.state.reshape(d_a, d_b, d_a, d_b)
    return complex(np.einsum("ki,lj,ijkl->", op_a, op_b, rho))


def minimal_dilation_strategies() -> tuple[Strategy, Strategy]:
    """Two projective dilations of the trine strategy with distinct moments.

    Both embed the shared state as ``(1 (x) V)`` into C^2 (x) C^3 and dilate
    all Bob families projectively; they differ only in which outcome of Bob's
    second question absorbs the off-range defect ``1 - V V*``: outcome 1 in the
    first, as in :func:`minimal_trine_dilation`, and 0 in the second.  They have
    the same correlation but not the same moments: the Bob word ``[(2,0), (1,1),
    (2,0)]`` reads (4-sqrt(2))/18 on the first and (2-sqrt(2))/18 on the second.

    The state-level forms relate the pair: the state never reaches ``1 - V V*``,
    so the identity witness certifies either direction in the vector form (0.0)
    and the matrix form (round-off), while the extraction form refuses both, the
    state's Schmidt rank 2 being below Bob's 3.  Only an operator moment, whose
    product leaves the state's support, separates them.
    """
    base = canonical_chsh()
    (v, bob1), (_, bob2) = (_minimal_trine_dilation(defect) for defect in ((0, 1), (0, 0)))
    psi = linalg.apply_factors(base.state, base.dims, (None, v))
    s1, s2 = (Strategy(state=psi, dims=(2, 3), alice=base.alice, bob=bob) for bob in (bob1, bob2))
    return s1, s2


def perturb_state(psi, magnitude: float, rng: np.random.Generator) -> np.ndarray:
    """Mix a normalized vector toward a random direction and renormalize."""
    psi = linalg.as_complex(psi)
    direction = rng.normal(size=psi.size) + 1j * rng.normal(size=psi.size)
    direction = direction / np.linalg.norm(direction)
    out = psi + magnitude * direction
    return out / np.linalg.norm(out)


def robustness_constant(g: NonlocalGame) -> float:
    """Game-dependent constant relating dilation error to optimality loss.

    Computed as ``2 (sum_{s,t} pi(s,t) sum_{a,b} V(a,b|s,t)) max(|A|, |B|)``
    with the answer-set sizes as the final factor; surfaced explicitly and
    never folded into reported bounds.
    """
    n_a, n_b = g.shape[2], g.shape[3]
    weight = float(np.sum(g.pi[:, :, None, None] * g.predicate))
    return 2.0 * weight * max(n_a, n_b)
