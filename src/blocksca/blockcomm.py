"""Block-selection schedules and per-block mixing weights.

Each agent picks one block per iteration, uncoordinated with the others.
Blocks travel on induced subgraphs of the base graph (the edges whose
sender picked that block), and every agent can assemble its column of the
per-block column-stochastic weight matrix from purely local information.
``select_block(schedule, t)`` returns every agent's pick at iteration t.
Every agent picks every block within any B consecutive iterations
(round_robin) or 2B - 1 (shuffled_cycle), so each block's union graph over
such a window is the whole base graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graph import DiGraph


@dataclass(frozen=True)
class BlockSchedule:
    """Essentially cyclic block-selection rule, one sequence per agent. Its
    ``n_blocks`` is the block count of a run: x splits into that many equal
    contiguous blocks.

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
        if self.n_agents < 1 or self.n_blocks < 1:
            raise ValueError("a schedule needs at least one agent and one block")
        if self.kind not in ("round_robin", "shuffled_cycle"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "round_robin" and len(self.offsets) != self.n_agents:
            raise ValueError("round_robin needs one offset per agent")
        if self.seed < 0:
            raise ValueError("schedule seed must be nonnegative")

    @classmethod
    def round_robin(cls, n_agents: int, n_blocks: int) -> "BlockSchedule":
        """Agent i starts at block i mod B."""
        return cls("round_robin", n_agents, n_blocks, offsets=tuple(range(n_agents)))

    @classmethod
    def shuffled_cycle(cls, n_agents: int, n_blocks: int, seed: int) -> "BlockSchedule":
        return cls("shuffled_cycle", n_agents, n_blocks, seed=seed)


# Memoized so that each cycle's permutations are drawn once, not once per
# round; 32 tables hold every cycle of a short run, so repeating it draws none.
@lru_cache(maxsize=32)
def _cycle_table(seed: int, n_agents: int, n_blocks: int, cycle: int) -> np.ndarray:
    """Read-only (N, B) array: row i is agent i's order of the blocks in ``cycle``."""
    table = np.array([np.random.default_rng([seed, agent, cycle]).permutation(n_blocks)
                      for agent in range(n_agents)])
    table.flags.writeable = False
    return table


def select_block(schedule: BlockSchedule, t: int) -> np.ndarray:
    """Every agent's block at iteration ``t``, shape (N,); deterministic."""
    if t < 0:
        raise ValueError("iteration index must be nonnegative")
    b = schedule.n_blocks
    if schedule.kind == "round_robin":
        return (np.array(schedule.offsets) + t) % b
    if b == 1:
        return np.zeros(schedule.n_agents, dtype=int)
    cycle, pos = divmod(t, b)
    return _cycle_table(schedule.seed, schedule.n_agents, b, cycle)[:, pos]


def build_all_weights(g: DiGraph, selections, n_blocks: int) -> np.ndarray:
    """Every block's column-stochastic push-sum weights as one (B, N, N)
    array: column j of block l is sender j's broadcast column of
    ``g.broadcast_weights`` (1/(outdeg(j)+1) on j and its out-neighbors) if j
    picked l, and the j-th basis vector otherwise."""
    n = g.n_agents
    agents = np.arange(n)
    weights = np.zeros((n_blocks, n, n))
    weights[:, agents, agents] = 1.0
    weights[np.asarray(selections), :, agents] = g.broadcast_weights.T
    return weights
