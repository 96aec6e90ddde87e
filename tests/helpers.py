"""Seeded random generators shared across the test modules."""

import numpy as np

from selftest_lab.games import Strategy
from selftest_lab.lab import canonical_chsh


def haar_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_isometry(rng, rows, cols):
    return haar_unitary(rng, rows)[:, :cols]


def random_pure_state(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_density(rng, d, rank=None):
    rank = rank or d
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


def random_bipartite_state(rng, d_a, d_b, rank=None):
    """Pure state with a prescribed Schmidt rank (defaults to full)."""
    rank = rank or min(d_a, d_b)
    probs = rng.dirichlet(np.ones(rank) * 2.0)
    u_a = haar_unitary(rng, d_a)
    u_b = haar_unitary(rng, d_b)
    psi = np.zeros(d_a * d_b, dtype=complex)
    for i in range(rank):
        psi += np.sqrt(probs[i]) * np.kron(u_a[:, i], u_b[:, i])
    return psi / np.linalg.norm(psi)


def random_povm(rng, d, outcomes):
    """Generic (far from projective) POVM via T^{-1/2} renormalization."""
    gs = []
    for _ in range(outcomes):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gs.append(x @ x.conj().T)
    total = sum(gs)
    evals, evecs = np.linalg.eigh(total)
    inv_root = (evecs * (1.0 / np.sqrt(evals))) @ evecs.conj().T
    return [inv_root @ g @ inv_root for g in gs]


def random_pvm(rng, d, outcomes):
    """Projective measurement from a Haar basis split into outcome groups."""
    assert outcomes <= d
    u = haar_unitary(rng, d)
    cuts = sorted(rng.choice(np.arange(1, d), size=outcomes - 1, replace=False)) if outcomes > 1 else []
    bounds = [0] + list(cuts) + [d]
    family = []
    for k in range(outcomes):
        cols = u[:, bounds[k]:bounds[k + 1]]
        family.append(cols @ cols.conj().T)
    return family


def random_strategy(rng, d_a, d_b, questions_a=2, questions_b=2, outcomes=2,
                    rank=None, projective=False):
    gen = random_pvm if projective else random_povm
    return Strategy(
        state=random_bipartite_state(rng, d_a, d_b, rank=rank),
        dims=(d_a, d_b),
        alice=[gen(rng, d_a, outcomes) for _ in range(questions_a)],
        bob=[gen(rng, d_b, outcomes) for _ in range(questions_b)],
    )


def overflowing_chsh():
    """``canonical_chsh`` with the unnormalized state ``(0.9, 0.9, 0.9, 0.9)`` and
    Bob's first element of question 1 replaced by ``[[1.7e308, 1.7e308], [0, 0]]``:
    every product through that element overflows, so its rows read NaN."""
    c = canonical_chsh()
    big = np.array([[1.7e308, 1.7e308], [0.0, 0.0]], dtype=complex)
    bob = [list(c.bob[0]), [big, c.bob[1][1]]]
    return Strategy(state=np.full(4, 0.9), dims=c.dims, alice=c.alice, bob=bob)
