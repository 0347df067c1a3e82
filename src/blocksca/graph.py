"""Directed communication graphs: generation, connectivity, spectrum.

Agents are indexed 0..N-1. An edge (j, i) means agent j can send a message
to agent i. Undirected topologies are encoded as symmetric digraphs so that
the block-communication machinery (built for digraphs) applies unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonSymmetricGraph

Edge = tuple[int, int]

# largest agent count for which the dense Laplacian eigensolve is attempted
DENSE_LIMIT = 512


@dataclass(frozen=True)
class DiGraph:
    """Fixed directed graph, held as one read-only boolean (N, N) array.

    ``adjacency[j, i]`` is True iff (j, i) is in ``edges``, the constructor
    input, which alone decides equality. ``broadcast_weights`` (read-only)
    are the push-sum weights of a round in which every agent broadcasts:
    column j is 1/(outdeg(j) + 1) on j and on each of its out-neighbors.
    Self-edges are never stored; the diagonal of ``broadcast_weights`` is
    each agent's own share. Immutable and safe to share across threads.
    """

    n_agents: int
    edges: frozenset[Edge]
    adjacency: np.ndarray = field(init=False, repr=False, compare=False)
    broadcast_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValueError("graph needs at least one agent")
        pairs = np.array(list(self.edges) or np.zeros((0, 2), dtype=int))
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
            raise ValueError("edges must be pairs of integer agent indices")
        senders, receivers = pairs.T
        bad = (senders == receivers) | np.any((pairs < 0) | (pairs >= self.n_agents), axis=1)
        if bad.any():
            j, i = pairs[np.argmax(bad)].tolist()
            raise ValueError(f"edge ({j},{i}) is a self-edge or outside {self.n_agents} agents")
        adjacency = np.zeros((self.n_agents, self.n_agents), dtype=bool)
        adjacency[senders, receivers] = True
        keep = adjacency.T | np.eye(self.n_agents, dtype=bool)
        weights = keep * (1.0 / keep.sum(axis=0))
        for name, array in (("adjacency", adjacency), ("broadcast_weights", weights)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

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
    rows, cols = np.nonzero(upper | upper.T)
    return DiGraph(n, frozenset(zip(rows.tolist(), cols.tolist())))


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

