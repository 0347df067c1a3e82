"""Blockwise push-sum over digraphs: the one mixing kernel of the package.

The push-sum recursion of Kempe, Dobra and Gehrke (2003), run independently
per block. Each agent keeps, per block, an estimate x, a positive weight
phi, and its most recently acquired slice of the local signal. The update
for block l is

    v_i = x_i + (signal_next_i - signal_i) / phi_i       (tracking_payload)
    phi_i^+ = sum_j a_ij phi_j                             (push_sum_mix)
    x_i^+   = (1 / phi_i^+) sum_j a_ij phi_j v_j           (push_sum_mix)

with a column-stochastic weight matrix A = [a_ij] for that block. Column
stochasticity conserves the weighted mass sum_i phi_i x_i, which is what
makes the ratio recover the network average. Consensus is the case without
new signal: ``push_sum_mix`` of x itself. Rounds are synchronous: all
agents read the pre-round state, then commit. Blocks are equal, so an
(N, n) array is its (N, B, dim) view, with B read from the (N, B) mass.
"""
from __future__ import annotations

import numpy as np

from .errors import NonPositivePhi

# phi is provably bounded away from zero under valid weights; anything at or
# below this floor signals a malformed weight matrix, not roundoff.
PHI_FLOOR = 1e-300


def push_sum_mix(weights: np.ndarray, mass: np.ndarray, payload: np.ndarray,
                 mass_next: np.ndarray | None = None):
    """One weighted-mixing step of every block at once.

    weights: (B, N, N) column-stochastic matrix A_l of each block l
    mass:    (N, B) push-sum weights
    payload: (N, n) values, read as (N, B, dim) with dim = n / B

    Returns (mass_next, mixed) with, for every block l,
    mass_next[:, l] = A_l @ mass[:, l] and
    mixed[i, l] = (A_l @ (mass[:, l] * payload[:, l]))[i] / mass_next[i, l]
    in the (N, B, dim) view. A given ``mass_next`` (the same weights' earlier
    mix of ``mass``) is reused. All blocks are one stacked matmul.
    """
    mass_cols = np.ascontiguousarray(mass.T)[:, :, None]  # (B, N, 1)
    if mass_next is None:
        mass_next = np.ascontiguousarray(np.matmul(weights, mass_cols)[:, :, 0].T)
        if not np.all(mass_next > PHI_FLOOR):
            raise NonPositivePhi("push-sum weight vanished; check the weight matrix")
    mixed = np.empty(payload.shape)  # C order, so the reshape below is a view
    # (B, N, dim) views, one slab per block
    out = mixed.reshape(*mass.shape, -1).transpose(1, 0, 2)
    scaled = mass_cols * payload.reshape(*mass.shape, -1).transpose(1, 0, 2)
    np.matmul(weights, scaled, out=out)
    out /= mass_next.T[:, :, None]
    return mass_next, mixed


def tracking_payload(x: np.ndarray, mass: np.ndarray, signal: np.ndarray,
                     signal_next: np.ndarray) -> np.ndarray:
    """The values v = x + (signal_next - signal) / phi that a tracking step
    hands to ``push_sum_mix``; all arrays are (N, n) except the (N, B) mass,
    and phi divides the (N, B, dim) view. Stale blocks keep their signal, so
    only refreshed blocks move."""
    payload = signal_next - signal
    by_block = payload.reshape(*mass.shape, -1)  # view of the fresh array
    by_block /= mass[:, :, None]
    payload += x
    return payload
