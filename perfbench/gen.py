"""Seeded input generator owned by the benchmark.

Every workload input is built here from ``numpy.random.default_rng`` streams
derived from the benchmark seed, so a refactor of the test helpers can never
change what a workload measures.  The seed changes the numbers, never the
shapes: each workload cycles the same sizes for every seed.
"""

from __future__ import annotations

import numpy as np

from selftest_lab import dilation, games, linalg, naimark, schmidt, serialize

# (t, k): canonical part on C^t (x) C^t, junk state on C^k (x) C^k, d = t*k
DENSE_MIXED_SIZES = ((2, 3), (4, 2), (3, 3), (4, 3))
DENSE_MIXED_QUESTIONS = 4
DENSE_MIXED_OUTCOMES = 4
# (d, t): local dimension and number of Bob's three-outcome questions;
# Bob's iterative Naimark dimension is d * 2 * 2 * 3**t
NAIMARK_DEEP_SIZES = ((2, 2), (3, 2), (2, 3), (3, 3))


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent stream per (seed, workload slot) so slots never share draws."""
    return np.random.default_rng([seed, *stream])


def haar_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bipartite_state(rng, d, rank):
    """Pure state on C^d (x) C^d with Schmidt rank ``rank``."""
    probs = rng.dirichlet(np.full(rank, 2.0))
    u_a, u_b = haar_unitary(rng, d), haar_unitary(rng, d)
    psi = sum(np.sqrt(p) * np.kron(u_a[:, i], u_b[:, i]) for i, p in enumerate(probs))
    return psi / np.linalg.norm(psi)


def full_rank_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


def generic_povm(rng, d, outcomes):
    """Full-rank, far-from-projective POVM by T^{-1/2} renormalisation."""
    gs = []
    for _ in range(outcomes):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gs.append(x @ x.conj().T)
    evals, evecs = np.linalg.eigh(sum(gs))
    inv_root = (evecs / np.sqrt(evals)) @ evecs.conj().T
    return [inv_root @ g @ inv_root for g in gs]


def random_game(rng, questions, outcomes):
    pi = rng.uniform(0.5, 1.5, size=(questions, questions))
    predicate = rng.integers(0, 2, size=(questions, questions, outcomes, outcomes))
    return games.NonlocalGame(pi=pi / pi.sum(), predicate=predicate.astype(float))


def pure_strategy(rng, d, rank, alice_outcomes, bob_outcomes):
    """Pure strategy on C^d (x) C^d; ``*_outcomes`` list one count per question."""
    return games.Strategy(
        state=bipartite_state(rng, d, rank),
        dims=(d, d),
        alice=[generic_povm(rng, d, m) for m in alice_outcomes],
        bob=[generic_povm(rng, d, m) for m in bob_outcomes],
    )


def canonical_with_junk(dst, tau, k):
    """``dst (x) tau`` as a mixed strategy with elements ``E (x) 1_k``.

    The junk factor follows the canonical one on each side, so Alice's space
    is C^t (x) C^k and the witness is the identity with dims (t, k).
    """
    t = dst.dims[0]
    rho = np.kron(np.outer(dst.state, dst.state.conj()), tau)
    rho = linalg.permute_systems(rho, (t, t, k, k), (0, 2, 1, 3))
    eye = np.eye(k)
    return games.Strategy(
        state=rho,
        dims=(t * k, t * k),
        alice=[[np.kron(e, eye) for e in fam] for fam in dst.alice],
        bob=[[np.kron(e, eye) for e in fam] for fam in dst.bob],
    )


def dense_mixed_inputs(seed, sizes=DENSE_MIXED_SIZES):
    """One input per (t, k) slot: source, destination, junk, game, expectations."""
    out = []
    q, m = DENSE_MIXED_QUESTIONS, DENSE_MIXED_OUTCOMES
    for slot, (t, k) in enumerate(sizes):
        rng = rng_for(seed, 1, slot)
        dst = pure_strategy(rng, t, t, [m] * q, [m] * q)
        tau = full_rank_density(rng, k * k)
        game = random_game(rng, q, m)
        p_dst = games.correlation_of(dst).table
        out.append({
            "label": f"t{t}k{k}",
            "src": canonical_with_junk(dst, tau, k),
            "dst": dst,
            "tau": tau,
            "dims": ((t, k), (t, k)),
            "game": game,
            "probe_seed": int(rng.integers(2**31)),
            "p_dst": p_dst,
            "omega": float(np.sum(game.pi[:, :, None, None] * game.predicate * p_dst)),
        })
    return out


def naimark_deep_inputs(seed, sizes=NAIMARK_DEEP_SIZES):
    """One CHSH+trine-shaped pure strategy of Schmidt rank 2 per (d, t) slot."""
    out = []
    for slot, (d, t) in enumerate(sizes):
        rng = rng_for(seed, 2, slot)
        out.append({
            "label": f"d{d}t{t}",
            "s": pure_strategy(rng, d, 2, [2, 2], [2, 2] + [3] * t),
        })
    return out


def cli_files(seed, workdir, fixtures):
    """Write the seeded CLI inputs into ``workdir``; return their paths and objects.

    Paths are relative to the checkout root, where the CLI runs.
    """
    rng = rng_for(seed, 3, 0)
    trine = serialize.parse_strategy_file(fixtures / "trine.json")
    restricted, _, _ = schmidt.restrict(trine)
    dilated, _, _ = naimark.naimark_strategy(trine)
    u_a, u_b = haar_unitary(rng, 2), haar_unitary(rng, 2)
    conj_w = dilation.DilationWitness(
        u_a=u_a, u_b=u_b, dims_a=(2, 1), dims_b=(2, 1), aux=dilation.scalar_aux()
    )
    mid = pure_strategy(rng, 4, 2, [3, 3], [3, 3])
    payloads = {
        "trine_restricted": serialize.strategy_to_jsonable(restricted),
        "trine_naimark": serialize.strategy_to_jsonable(dilated),
        "conj": serialize.strategy_to_jsonable(games.conjugate_strategy(trine, u_a, u_b)),
        "w_restriction": serialize.witness_to_jsonable(dilation.restriction_embedding(trine)),
        "w_naimark": serialize.witness_to_jsonable(dilation.naimark_embedding(trine)),
        "w_matrix": serialize.witness_to_jsonable(conj_w, form="matrix"),
        "w_extraction": serialize.witness_to_jsonable(conj_w, form="extraction"),
        "mid": serialize.strategy_to_jsonable(mid),
    }
    files = {"chsh": str(fixtures / "chsh.json"), "trine": str(fixtures / "trine.json")}
    for name, obj in payloads.items():
        path = workdir / f"{name}.json"
        path.write_text(serialize.dumps_json(obj))
        files[name] = str(path)
    files["repro_seed"] = str(int(rng.integers(2**31)))
    return files, {"trine": trine, "mid": mid}
