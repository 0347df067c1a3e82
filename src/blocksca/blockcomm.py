"""Block layouts, block-selection schedules, and per-block mixing matrices.

Each agent picks one block per iteration, uncoordinated with the others.
Blocks travel on induced subgraphs of the base graph (the edges whose
sender picked that block), and every agent can assemble its column of the
per-block column-stochastic weight matrix from purely local information.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, groupby

import numpy as np

from .errors import BadBlockIndex, HorizonTooShort, IndivisibleBlocks
from .graph import DiGraph, EdgeSetSequence, union_is_strongly_connected


@dataclass(frozen=True)
class BlockLayout:
    """Partition of an n-vector into contiguous blocks with given dimensions."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError("all block dimensions must be positive")

    @classmethod
    def uniform(cls, n_vars: int, n_blocks: int) -> "BlockLayout":
        if n_blocks < 1 or n_vars % n_blocks != 0:
            raise IndivisibleBlocks(f"{n_vars} variables cannot split into {n_blocks} blocks")
        return cls((n_vars // n_blocks,) * n_blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.dims)

    @property
    def n_vars(self) -> int:
        return sum(self.dims)

    def slice(self, block: int) -> slice:
        self._check(block)
        return slice(self.bounds[block], self.bounds[block + 1])

    def dim(self, block: int) -> int:
        self._check(block)
        return self.dims[block]

    @cached_property
    def bounds(self) -> tuple[int, ...]:
        """Block boundaries: block l covers coordinates bounds[l] .. bounds[l+1] - 1."""
        return tuple(accumulate(self.dims, initial=0))

    @cached_property
    def coord_blocks(self) -> np.ndarray:
        """Block index of every coordinate, shape (n_vars,)."""
        return np.repeat(np.arange(self.n_blocks), self.dims)

    @cached_property
    def runs(self) -> tuple[tuple[int, int, int, int], ...]:
        """Maximal runs of consecutive equal-size blocks, as
        (first block, block count, block dimension, first coordinate)."""
        out, block = [], 0
        for dim, group in groupby(self.dims):
            count = len(list(group))
            out.append((block, count, dim, self.bounds[block]))
            block += count
        return tuple(out)

    def _check(self, block: int) -> None:
        if not 0 <= block < len(self.dims):
            raise BadBlockIndex(f"block {block} outside layout with {len(self.dims)} blocks")


@dataclass(frozen=True)
class BlockSchedule:
    """Essentially cyclic block-selection rule, one sequence per agent.

    round_robin: agent i picks (offset_i + t) mod B; every window of B
    consecutive picks covers all blocks.

    shuffled_cycle: agent i walks a fresh uniform permutation of the blocks
    each cycle of length B; any window of 2B - 1 picks contains a complete
    cycle, so that is the certified covering period.
    """

    kind: str
    n_agents: int
    n_blocks: int
    offsets: tuple[int, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("round_robin", "shuffled_cycle"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "round_robin" and len(self.offsets) != self.n_agents:
            raise ValueError("round_robin needs one offset per agent")
        if self.seed < 0:
            raise ValueError("schedule seed must be nonnegative")

    @classmethod
    def round_robin(cls, n_agents: int, n_blocks: int, offsets=None) -> "BlockSchedule":
        if offsets is None:
            offsets = tuple(i % n_blocks for i in range(n_agents))
        return cls("round_robin", n_agents, n_blocks, offsets=tuple(offsets))

    @classmethod
    def shuffled_cycle(cls, n_agents: int, n_blocks: int, seed: int) -> "BlockSchedule":
        return cls("shuffled_cycle", n_agents, n_blocks, seed=seed)

    @property
    def period(self) -> int:
        """Certified window length covering every block."""
        return self.n_blocks if self.kind == "round_robin" else 2 * self.n_blocks - 1


# Memoized so that each permutation is drawn once per cycle, not once per
# round; a run needs the current cycle of every agent in the cache, so runs
# with more than maxsize agents still give the same picks, only slower.
@lru_cache(maxsize=4096)
def _cycle_permutation(seed: int, n_blocks: int, agent: int, cycle: int) -> tuple[int, ...]:
    return tuple(np.random.default_rng([seed, agent, cycle]).permutation(n_blocks).tolist())


def select_block(schedule: BlockSchedule, agent: int, t: int) -> int:
    """Block chosen by ``agent`` at iteration ``t``; deterministic."""
    if t < 0:
        raise ValueError("iteration index must be nonnegative")
    b = schedule.n_blocks
    if schedule.kind == "round_robin":
        return (schedule.offsets[agent] + t) % b
    if b == 1:
        return 0
    cycle, pos = divmod(t, b)
    return _cycle_permutation(schedule.seed, b, agent, cycle)[pos]


def selections_at(schedule: BlockSchedule, t: int) -> tuple[int, ...]:
    """All agents' block choices at iteration ``t``."""
    return tuple(select_block(schedule, i, t) for i in range(schedule.n_agents))


def induce_block_graph(g: DiGraph, selections, block: int) -> frozenset:
    """Edges that carry ``block`` this round: base edges whose sender picked it."""
    return frozenset((j, i) for j, i in g.edges if selections[j] == block)


def broadcast_column(g: DiGraph, j: int) -> np.ndarray:
    """Uniform push-sum column of sender ``j``: 1/(outdeg+1) on itself and
    its out-neighbors."""
    return g.broadcast_weights[:, j].copy()


@dataclass(frozen=True)
class BlockWeightMatrix:
    """Column-stochastic mixing matrix for one block at one iteration.

    Column j is either the sender's uniform broadcast column (if agent j
    picked this block) or the j-th canonical basis vector (otherwise).
    theta_floor is the uniform positive lower bound on all supported entries.
    """

    matrix: np.ndarray
    theta_floor: float

    def validate(self, atol: float = 1e-12) -> None:
        """Check column stochasticity and the entry floor; raises ValueError."""
        sums = self.matrix.sum(axis=0)
        if np.max(np.abs(sums - 1.0)) > atol:
            raise ValueError("columns do not sum to one")
        nz = self.matrix[self.matrix != 0.0]
        if nz.size and nz.min() < self.theta_floor - atol:
            raise ValueError("supported entry below the positive floor")


def build_weights(g: DiGraph, selections, block: int) -> BlockWeightMatrix:
    """Locally constructible column-stochastic weights for one block.

    Column j depends only on sender j's out-degree and its own selection,
    so each agent can build its column without coordination.
    """
    n = g.n_agents
    a = np.eye(n)
    for j in range(n):
        if selections[j] == block:
            a[:, j] = broadcast_column(g, j)
    floor = 1.0 / (max(g.out_degree(j) for j in range(n)) + 1)
    return BlockWeightMatrix(a, floor)


def build_all_weights(g: DiGraph, selections, n_blocks: int) -> np.ndarray:
    """The matrices of ``build_weights`` for every block as one (B, N, N)
    array: column j of block l is ``broadcast_column(g, j)`` if sender j
    picked l, and the j-th basis vector otherwise."""
    n = g.n_agents
    agents = np.arange(n)
    weights = np.zeros((n_blocks, n, n))
    weights[:, agents, agents] = 1.0
    weights[np.asarray(selections), :, agents] = g.broadcast_weights.T
    return weights


def induced_edge_sequences(g: DiGraph, schedule: BlockSchedule, horizon: int) -> list[EdgeSetSequence]:
    """Simulate the schedule and collect each block's edge-set sequence."""
    per_block = [[] for _ in range(schedule.n_blocks)]
    for t in range(horizon):
        sel = selections_at(schedule, t)
        for block in range(schedule.n_blocks):
            per_block[block].append(induce_block_graph(g, sel, block))
    return [EdgeSetSequence(g.n_agents, tuple(s)) for s in per_block]


def smallest_connectivity_window(g: DiGraph, schedule: BlockSchedule, horizon: int) -> int:
    """Smallest T such that every block's T-step union graph is strongly
    connected for every window start within the horizon.

    Raises HorizonTooShort when no such T <= horizon exists.
    """
    if horizon < 1:
        raise HorizonTooShort("horizon must be positive")
    seqs = induced_edge_sequences(g, schedule, horizon)
    for window in range(1, horizon + 1):
        ok = all(
            union_is_strongly_connected(seq, window, start)
            for seq in seqs
            for start in range(horizon - window + 1)
        )
        if ok:
            return window
    raise HorizonTooShort(f"no strongly connected union window within horizon {horizon}")
