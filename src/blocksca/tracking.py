"""Blockwise dynamic average tracking and block consensus over digraphs.

Push-sum style adapt-then-combine recursion, run independently per block.
Each agent keeps, per block, an estimate x, a positive weight phi, and its
most recently acquired slice of the local signal. The update for block l is

    v_i = x_i + (signal_next_i - signal_i) / phi_i
    phi_i^+ = sum_j a_ij phi_j
    x_i^+   = (1 / phi_i^+) sum_j a_ij phi_j v_j

with a column-stochastic weight matrix A = [a_ij] for that block. Column
stochasticity conserves the weighted mass sum_i phi_i x_i, which is what
makes the ratio recover the network average. Rounds are synchronous: all
agents read the pre-round state, then commit.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .blockcomm import BlockLayout
from .errors import DimensionMismatch, NonPositivePhi

# phi is provably bounded away from zero under valid weights; anything at or
# below this floor signals a malformed weight matrix, not roundoff.
PHI_FLOOR = 1e-300


@dataclass(frozen=True)
class TrackerState:
    """Network-wide tracker state: one row per agent.

    x:      (N, n) blockwise estimates
    mass:   (N, B) positive push-sum weights, one scalar per (agent, block)
    signal: (N, n) latest acquired local signal values
    """

    layout: BlockLayout
    x: np.ndarray
    mass: np.ndarray
    signal: np.ndarray

    @property
    def n_agents(self) -> int:
        return self.x.shape[0]

    @classmethod
    def from_signal(cls, layout: BlockLayout, signal0: np.ndarray) -> "TrackerState":
        """Standard initialization: x = signal, unit weights."""
        s = np.asarray(signal0, dtype=float)
        return cls(layout, s.copy(), np.ones((s.shape[0], layout.n_blocks)), s.copy())


def push_sum_mix(weights: np.ndarray, mass: np.ndarray, payload: np.ndarray, layout: BlockLayout):
    """One weighted-mixing step of every block at once.

    weights: (B, N, N) column-stochastic matrix A_l of each block l
    mass:    (N, B) push-sum weights
    payload: (N, n) values, split into blocks by ``layout``

    Returns (mass_next, mixed) with, for every block l and its coordinates sl,
    mass_next[:, l] = A_l @ mass[:, l] and
    mixed[i, sl] = (A_l @ (mass[:, l] * payload[:, sl]))[i] / mass_next[i, l].
    Each run of equal-size blocks is one stacked matmul, which makes the same
    BLAS call per block as mixing that block on its own.
    """
    mass_cols = np.ascontiguousarray(mass.T)[:, :, None]  # (B, N, 1)
    mass_next = np.matmul(weights, mass_cols)
    if not np.all(mass_next > PHI_FLOOR):
        raise NonPositivePhi("push-sum weight vanished; check the weight matrix")
    n_agents = payload.shape[0]
    mixed = np.empty(payload.shape)  # C order, so the per-run reshapes below are views
    for first, count, dim, start in layout.runs:
        blocks = slice(first, first + count)
        cols = slice(start, start + count * dim)
        # (count, N, dim) views of the run's coordinates, one slab per block
        part = payload[:, cols].reshape(n_agents, count, dim).transpose(1, 0, 2)
        out = mixed[:, cols].reshape(n_agents, count, dim).transpose(1, 0, 2)
        np.matmul(weights[blocks], mass_cols[blocks] * part, out=out)
        out /= mass_next[blocks]
    return np.ascontiguousarray(mass_next[:, :, 0].T), mixed


def refresh_signal(state: TrackerState, agent: int, block: int, u_block: np.ndarray) -> TrackerState:
    """Overwrite one agent's stored slice of its signal for one block."""
    sl = state.layout.slice(block)
    u_block = np.asarray(u_block, dtype=float)
    if u_block.shape != (state.layout.dim(block),):
        raise DimensionMismatch(
            f"block {block} has dimension {state.layout.dim(block)}, got {u_block.shape}"
        )
    signal = state.signal.copy()
    signal[agent, sl] = u_block
    return replace(state, signal=signal)


def tracking_round(
    state: TrackerState,
    weights: np.ndarray,
    signal_next: np.ndarray,
) -> TrackerState:
    """One synchronous round of blockwise average tracking with the (B, N, N)
    weights of ``build_all_weights``.

    ``signal_next`` holds every agent's refreshed signal (stale blocks keep
    their previous values). All agents update from the same pre-round state.
    """
    signal_next = np.asarray(signal_next, dtype=float)
    payload = signal_next - state.signal
    payload /= state.mass[:, state.layout.coord_blocks]
    payload += state.x
    mass_next, x_next = push_sum_mix(weights, state.mass, payload, state.layout)
    return TrackerState(state.layout, x_next, mass_next, signal_next.copy())


def consensus_round(state: TrackerState, weights: np.ndarray) -> TrackerState:
    """One synchronous round of blockwise consensus.

    The zero-increment special case of tracking: agents average their
    current estimates without acquiring new signal values.
    """
    mass_next, x_next = push_sum_mix(weights, state.mass, state.x, state.layout)
    return TrackerState(state.layout, x_next, mass_next, state.signal.copy())
