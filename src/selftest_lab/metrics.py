"""State-dependent diagnostics of pure strategies.

Two scalar figures of merit aggregate per-element tables by maximum:

* support defect - the state-weighted commutator norm ``||[Pi, E]||_sigma`` of
  each element with the projection onto the local support of the state;
* projectivity defect - ``sqrt(<1 - E, E>_sigma)`` measuring how far each
  element is from idempotent as witnessed by the state.

Both vanish on full-rank-and-projective strategies and are invariant under
attaching product ancillas and conjugating by local unitaries.

The tables never form the joint density, a marginal or any operator but the
elements.  With ``M = psi.reshape(dA, dB)`` the state matrix, ``X = E M`` for
an element of Alice and ``L`` her retained Schmidt vectors, which span the
local support (Bob: ``M^T`` and ``R`` in their place):

* ``||[Pi, E]||_sigma = || X - L (L* X) ||``, the rank-``r`` complement;
* ``<1 - E, E>_sigma = tr[(1 - E) E sigma] = <M, X - E X>``.

So an element costs two products with the state matrix, ``O(dA * dB * d)``
time for its side's dimension ``d``, plus ``O(dA * dB * r)`` for Schmidt
rank ``r``; besides the elements, memory stays ``O(dA * dB)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import games, linalg, schmidt
from .errors import DimensionMismatch, InvalidPovm
from .games import Strategy

# <1-E, E>_sigma below this, or below _overlap_floor at the strategy's
# valid_tol where that is lower, signals an invalid POVM rather than roundoff
NEGATIVE_DUST = -1e-10
# positive values below this are double-precision dust from exactly
# idempotent elements and are reported as 0 (they would otherwise surface
# as ~1e-8 after the square root)
DUST_FLOOR = 1e-13


def state_dependent_norm(x, sigma) -> float:
    """``sqrt(tr[X* X sigma])`` for a density operator sigma."""
    x = linalg.as_complex(x)
    sigma = linalg.require_square(sigma)
    if x.shape != sigma.shape:
        raise DimensionMismatch("operator and state dimensions differ")
    val = float(np.real(np.trace(x.conj().T @ x @ sigma)))
    return float(np.sqrt(max(val, 0.0)))


def state_overlap(x, y, sigma) -> complex:
    """``<X, Y>_sigma = tr[X* Y sigma]``."""
    x = linalg.as_complex(x)
    y = linalg.as_complex(y)
    return complex(np.trace(x.conj().T @ y @ sigma))


def _element_tables(families, basis, m, tol):
    """``||[Pi, E]||_sigma`` and ``<1 - E, E>_sigma`` per element of the side whose
    index is the rows of the state matrix ``m`` (``M^T`` for Bob), with ``basis``
    its retained Schmidt vectors.  ``|| X - basis (basis* X) ||`` with ``X = E m``
    factors ``<psi|(E^2 - E Pi E) (x) 1|psi>``, so it stays accurate near zero; the
    overlap ``<m, X - E X>`` is real, and dust and negative roundoff read 0.  An
    overlap below :func:`_overlap_floor` at ``tol``, the strategy's ``valid_tol``
    (:data:`NEGATIVE_DUST` when it has none), raises :class:`InvalidPovm`."""
    basis_h = linalg.dagger(basis)
    comm, over = [], []
    for fam in families:
        floor = NEGATIVE_DUST if tol is None else _overlap_floor(tol, len(fam), *m.shape)
        comm_row, over_row = [], []
        for e in fam:
            x = games._times(e, m)
            comm_row.append(float(np.linalg.norm(x - basis @ (basis_h @ x))))
            val = float(np.real(np.vdot(m, x - games._times(e, x))))
            if val < floor:
                raise InvalidPovm(
                    f"<1-E, E> is {val:.3e} < {floor:.3g}; element is not a valid POVM effect"
                )
            over_row.append(val if val >= DUST_FLOOR else 0.0)
        comm.append(tuple(comm_row))
        over.append(tuple(over_row))
    return tuple(comm), tuple(over)


def _overlap_floor(t: float, n: int, d: int, k: int) -> float:
    """A lower bound on every overlap :func:`_element_tables` computes for a
    family of ``n`` elements on ``C^d`` (state matrix ``d x k``) of a pure
    strategy that passed the gate at ``t``; never above :data:`NEGATIVE_DUST`.

    The gate gives: each element is ``E = H + iG`` with ``H``, ``G``
    Hermitian and ``||G|| <= t/2``; each family's ``H`` sum within ``t`` of
    ``1``; ``||psi|| <= 1 + t``; and ``lambda_min(H) >= -t - c ||H + t 1||``
    from :func:`linalg.is_psd`, where ``c = gamma(2d^2 + n^2 sqrt(d))``
    covers its backward error ``d u ||.||`` (doubled for forming the shifted
    Hermitian part) and the rounding of the completeness sum and its norm.
    So ``spec(H)`` lies in ``[-t', 1 + n t']`` with
    ``t' = (t (1 + 2c) + c) / (1 - c n)``, and ``||E|| <= e = 1 + n t' + t``.
    The exact overlap ``Re <psi|(E - E^2) (x) 1|psi>`` is
    ``<psi|(H - H^2 + G^2) (x) 1|psi>`` (the rest is anti-Hermitian), so at
    least ``min (lambda - lambda^2) ||psi||^2 >= -n t' (1 + n t') nu`` on that
    interval, with ``nu = ((1 + t)(1 + gamma(dk + 2)))^2`` covering the norm
    check's rounding.  Two products of inner dimension ``d`` and a
    ``dk``-term dot product round it by at most
    ``r = (sqrt(d) gamma(2d + 4) + gamma(dk + 3)) (1 + e)^2 nu``.
    """
    g = linalg._gamma
    c = g(2 * d * d + n * n * d**0.5)
    tp = (t * (1 + 2 * c) + c) / (1 - c * n)
    e = 1 + n * tp + t
    nu = ((1 + t) * (1 + g(d * k + 2))) ** 2
    r = (d**0.5 * g(2 * d + 4) + g(d * k + 3)) * (1 + e) ** 2 * nu
    return min(NEGATIVE_DUST, -(n * tp * (1 + n * tp) * nu + r))


@dataclass(frozen=True)
class StrategyMetrics:
    support_eps: float
    projective_eps: float
    alice_commutator_norms: tuple[tuple[float, ...], ...]
    bob_commutator_norms: tuple[tuple[float, ...], ...]
    alice_overlaps: tuple[tuple[float, ...], ...]
    bob_overlaps: tuple[tuple[float, ...], ...]


def strategy_metrics(s: Strategy) -> StrategyMetrics:
    """All per-element tables plus the two aggregate defects of a pure strategy."""
    psi = s.pure_state()
    sd = schmidt.schmidt_decompose(psi, s.dims)
    m = psi.reshape(s.dims)
    tol = games._recall(s, "valid_tol")
    a_comm, a_over = _element_tables(s.alice, sd.left, m, tol)
    b_comm, b_over = _element_tables(s.bob, sd.right, m.T.copy(), tol)
    support_eps = max((x for t in a_comm + b_comm for x in t), default=0.0)
    projective_eps = float(
        np.sqrt(max((x for t in a_over + b_over for x in t), default=0.0))
    )
    return StrategyMetrics(
        support_eps=support_eps,
        projective_eps=projective_eps,
        alice_commutator_norms=a_comm,
        bob_commutator_norms=b_comm,
        alice_overlaps=a_over,
        bob_overlaps=b_over,
    )


def support_preserving_eps(s: Strategy) -> float:
    """Max over all elements of the support-commutator norm; 0 for full rank."""
    return strategy_metrics(s).support_eps


def projective_eps(s: Strategy) -> float:
    """Max over elements of ``sqrt(<1-E, E>_sigma)``; 0 need not mean projective."""
    return strategy_metrics(s).projective_eps


def hat_operators(s: Strategy):
    """Swap each element to the other side through the state.

    For Alice's ``E`` the returned operator ``hat(E)`` acts on Bob's space and
    satisfies ``|| (E (x) 1)|psi> - (1 (x) hat(E))|psi> || = ||[Pi_A, E]||_sigma``.
    Built as ``lambda E^T lambda^{-1}`` in the Schmidt bases, using only the
    retained coefficients; the result is zero off the support.
    """
    psi = s.pure_state()
    sd = schmidt.schmidt_decompose(psi, s.dims)
    lam = sd.coefficients

    def hat_of(e, basis, other) -> np.ndarray:
        core = basis.conj().T @ e @ basis  # element in the element side's Schmidt basis
        swapped = (lam[:, None] * core.T) / lam[None, :]
        return other @ swapped @ other.conj().T

    alice_hats = tuple(tuple(hat_of(e, sd.left, sd.right) for e in fam) for fam in s.alice)
    bob_hats = tuple(tuple(hat_of(e, sd.right, sd.left) for e in fam) for fam in s.bob)
    return alice_hats, bob_hats
