"""Directed communication graphs: generation, connectivity, spectrum.

Agents are indexed 0..N-1. ``adjacency[j, i]`` is True iff agent j can send
a message to agent i. Undirected topologies are encoded as symmetric
digraphs so that the block-communication machinery (built for digraphs)
applies unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonSymmetricGraph

# largest agent count for which the dense Laplacian eigensolve is attempted
DENSE_LIMIT = 512


@dataclass(frozen=True, eq=False)
class DiGraph:
    """Fixed directed graph: a read-only copy of the square boolean (N, N)
    ``adjacency`` it is given, True at [j, i] iff j sends to i, never on the
    diagonal. ``broadcast_weights`` (read-only) are the push-sum weights of a
    round in which every agent broadcasts: column j is 1/(outdeg(j) + 1) on
    j and on each of its out-neighbors. Safe to share across threads.
    """

    adjacency: np.ndarray
    broadcast_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        adjacency = np.array(self.adjacency)
        square = adjacency.ndim == 2 and 0 < len(adjacency) == adjacency.shape[1]
        if adjacency.dtype != bool or not square:
            raise ValueError(f"adjacency must be a non-empty square boolean array, got "
                             f"{adjacency.dtype} {adjacency.shape}")
        if adjacency.diagonal().any():
            raise ValueError(f"agent {np.argmax(adjacency.diagonal())} has a self-edge")
        keep = adjacency.T | np.eye(len(adjacency), dtype=bool)
        weights = keep * (1.0 / keep.sum(axis=0))
        for name, array in (("adjacency", adjacency), ("broadcast_weights", weights)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def n_agents(self) -> int:
        return len(self.adjacency)

    def is_symmetric(self) -> bool:
        return np.array_equal(self.adjacency, self.adjacency.T)


def erdos_renyi_symmetric(n: int, p: float, seed: int) -> DiGraph:
    """Sample an undirected G(n, p) graph, encoded as a symmetric digraph.

    Each unordered pair {i, j} is included with probability ``p`` (both
    directions). Deterministic for a fixed seed. Connectivity is not
    enforced here; callers regenerate with a new seed if they need it.
    """
    if n < 2:
        raise ValueError("need at least two agents")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < p, 1)
    return DiGraph(upper | upper.T)


def is_strongly_connected(g: DiGraph) -> bool:
    """True iff every agent reaches every other agent via directed edges.

    Two frontier sweeps from agent 0, one along the edges and one along
    reversed edges.
    """

    def reaches_all(adjacency) -> bool:
        seen = frontier = np.arange(g.n_agents) == 0
        while frontier.any():
            frontier = adjacency[frontier].any(axis=0) & ~seen
            seen = seen | frontier
        return bool(seen.all())

    return reaches_all(g.adjacency) and reaches_all(g.adjacency.T)


def algebraic_connectivity(g: DiGraph) -> float:
    """Second-smallest eigenvalue of the combinatorial Laplacian D - A.

    Requires a symmetric graph. Uses a dense symmetric eigensolver, so above
    ``DENSE_LIMIT`` agents it is skipped and nan is returned.
    """
    if not g.is_symmetric():
        raise NonSymmetricGraph("algebraic connectivity needs a symmetric graph")
    if g.n_agents > DENSE_LIMIT:
        return float("nan")
    if g.n_agents < 2:
        return 0.0
    a = g.adjacency.astype(float)
    lap = np.diag(a.sum(axis=1)) - a
    vals = np.linalg.eigvalsh(lap)
    return float(max(vals[1], 0.0))

