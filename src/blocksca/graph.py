"""Directed communication graphs: generation, connectivity, spectrum, file IO.

Agents are indexed 0..N-1. An edge (j, i) means agent j can send a message
to agent i. Undirected topologies are encoded as symmetric digraphs so that
the block-communication machinery (built for digraphs) applies unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonSymmetricGraph

Edge = tuple[int, int]

# largest agent count for which the dense Laplacian eigensolve is attempted
DENSE_LIMIT = 512


@dataclass(frozen=True)
class DiGraph:
    """Fixed directed graph.

    Self-edges are never stored: every agent implicitly keeps a share of its
    own values (the diagonal of ``broadcast_weights``). Immutable after
    construction and safe to share across threads.
    """

    n_agents: int
    edges: frozenset[Edge]
    _out: tuple[frozenset[int], ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _in: tuple[frozenset[int], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValueError("graph needs at least one agent")
        out = [set() for _ in range(self.n_agents)]
        inc = [set() for _ in range(self.n_agents)]
        for j, i in self.edges:
            if j == i:
                raise ValueError(f"self-edge ({j},{j}) must not be stored")
            if not (0 <= j < self.n_agents and 0 <= i < self.n_agents):
                raise ValueError(f"edge ({j},{i}) outside agent range")
            out[j].add(i)
            inc[i].add(j)
        object.__setattr__(self, "_out", tuple(frozenset(s) for s in out))
        object.__setattr__(self, "_in", tuple(frozenset(s) for s in inc))

    def out_neighbors(self, j: int) -> frozenset[int]:
        """Agents that receive messages from ``j`` (excluding ``j``)."""
        return self._out[j]

    def out_degree(self, j: int) -> int:
        return len(self._out[j])

    def is_symmetric(self) -> bool:
        return all((i, j) in self.edges for j, i in self.edges)

    @cached_property
    def broadcast_weights(self) -> np.ndarray:
        """Column-stochastic push-sum weights of a round in which every agent
        broadcasts: column j is 1/(outdeg(j) + 1) on j and on each of its
        out-neighbors. Built on first use; read-only."""
        w = np.zeros((self.n_agents, self.n_agents))
        for j, out in enumerate(self._out):
            w[[j, *out], j] = 1.0 / (len(out) + 1)
        w.flags.writeable = False
        return w

    def adjacency(self) -> np.ndarray:
        """Dense 0/1 adjacency A with A[j, i] = 1 iff (j, i) is an edge."""
        a = np.zeros((self.n_agents, self.n_agents))
        for j, i in self.edges:
            a[j, i] = 1.0
        return a


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
    rng = np.random.default_rng(seed)
    draw = rng.random((n, n))
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if draw[i, j] < p:
                edges.add((i, j))
                edges.add((j, i))
    return DiGraph(n, frozenset(edges))


def is_strongly_connected(g: DiGraph) -> bool:
    """True iff every agent reaches every other agent via directed edges.

    Two reachability sweeps from agent 0, one forward and one along
    reversed edges.
    """

    def sweep(adj) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == g.n_agents

    return sweep(g._out) and sweep(g._in)


def algebraic_connectivity(g: DiGraph, dense_limit: int = DENSE_LIMIT) -> float:
    """Second-smallest eigenvalue of the combinatorial Laplacian D - A.

    Requires a symmetric graph; uses a dense symmetric eigensolver, so the
    agent count is capped at ``dense_limit``.
    """
    if not g.is_symmetric():
        raise NonSymmetricGraph("algebraic connectivity needs a symmetric graph")
    if g.n_agents > dense_limit:
        raise ValueError(f"graph too large for dense eigensolver (> {dense_limit})")
    if g.n_agents < 2:
        return 0.0
    a = g.adjacency()
    lap = np.diag(a.sum(axis=1)) - a
    vals = np.linalg.eigvalsh(lap)
    return float(max(vals[1], 0.0))


def write_edge_list(g: DiGraph, path) -> None:
    """Write a 1-indexed "j i" edge-list text file with a header comment."""
    lines = [f"# agents: {g.n_agents}"]
    for j, i in sorted(g.edges):
        lines.append(f"{j + 1} {i + 1}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_edge_list(path, n_agents: int | None = None) -> DiGraph:
    """Read a 1-indexed edge list; "#" lines are comments.

    Agent count is taken from an "# agents: N" comment if present, from the
    ``n_agents`` argument otherwise, falling back to the largest endpoint.
    """
    edges = set()
    max_seen = 0
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                tail = line[1:].strip()
                if tail.startswith("agents:") and n_agents is None:
                    n_agents = int(tail.split(":", 1)[1])
                continue
            j_s, i_s = line.split()
            j, i = int(j_s) - 1, int(i_s) - 1
            edges.add((j, i))
            max_seen = max(max_seen, j + 1, i + 1)
    return DiGraph(n_agents if n_agents is not None else max_seen, frozenset(edges))
