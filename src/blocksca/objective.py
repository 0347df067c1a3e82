"""Sparse-regression objective with a DC (difference-of-convex) regularizer.

The global cost is

    U(x) = sum_i ||b_i - D_i x||^2 + lambda * sum_k r(x_k)

over a coordinatewise box, where r is either plain l1 or the normalized log
penalty r(x) = log(1 + theta|x|) / log(1 + theta). Both split as

    r(x) = slope * |x|  -  (slope * |x| - r(x))

with slope chosen so the second term is convex with a Lipschitz, odd
derivative vanishing at 0. The convex l1 part is handled by proximal
soft-thresholding; the subtracted smooth part by linearization.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (BadBlockIndex, BadSparsity, DimensionMismatch, IndivisibleBlocks,
                     NonPositiveTau, NonPositiveTheta)


def log_penalty_slope(theta: float) -> float:
    """Slope theta / log(1 + theta) of the l1 majorant of the log penalty.

    This is the smallest slope whose l1 envelope dominates the log penalty
    at the origin, i.e. the penalty's one-sided derivative at 0+. Tends to 1
    as theta -> 0 (the penalty degenerates to |x|).
    """
    if not theta > 0:
        raise NonPositiveTheta(f"log penalty needs theta > 0, got {theta}")
    return theta / np.log1p(theta)


@dataclass(frozen=True)
class DCRegularizer:
    """Separable sparsity penalty lambda * sum_k r(x_k) in DC form.

    kind "log" uses r(x) = log(1 + theta|x|)/log(1 + theta); kind "l1" uses
    r(x) = |x| (whose smooth part is identically zero).
    """

    kind: str
    weight: float
    theta: float = 10.0

    def __post_init__(self):
        if self.kind not in ("log", "l1"):
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if not self.weight >= 0:
            raise ValueError(f"regularizer weight must be >= 0, got {self.weight}")
        if self.kind == "log" and not self.theta > 0:
            raise NonPositiveTheta(f"log penalty needs theta > 0, got {self.theta}")

    @property
    def slope(self) -> float:
        """Slope of the convex l1 part, per unit weight."""
        return log_penalty_slope(self.theta) if self.kind == "log" else 1.0

    @property
    def l1_level(self) -> float:
        """Effective soft-threshold level weight * slope."""
        return self.weight * self.slope

    def penalty_scalar(self, x):
        """r(x) per coordinate, without the weight."""
        x = np.asarray(x, dtype=float)
        if self.kind == "log":
            return np.log1p(self.theta * np.abs(x)) / np.log1p(self.theta)
        return np.abs(x)

    def value(self, x) -> float:
        """weight * sum_k r(x_k)."""
        return self.weight * float(np.sum(self.penalty_scalar(x)))

    def smooth_grad(self, x):
        """Derivative of the smooth part per coordinate, per unit weight.

        Odd, zero at the origin, and Lipschitz with constant
        theta^2 / log(1 + theta) for the log kind; identically zero for l1.
        """
        x = np.asarray(x, dtype=float)
        if self.kind == "l1":
            return np.zeros_like(x)
        # sign(x) * theta**2 * ax / (log1p(theta) * (1 + theta * ax)): the same
        # operations in the same order, in place on two arrays
        ax = np.abs(x)
        out = np.sign(x)
        out *= self.theta**2
        out *= ax
        ax *= self.theta
        ax += 1.0
        ax *= np.log1p(self.theta)
        out /= ax
        return out


@dataclass(frozen=True)
class GroundTruth:
    """Planted signal behind a synthetic instance."""

    x0: np.ndarray
    support: np.ndarray
    noise_var: float


def _read_only(a: np.ndarray) -> np.ndarray:
    """Non-writeable view of ``a``; the caller's array keeps its own flags."""
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass
class ProblemInstance:
    """Measurement data of every agent plus the shared regularizer and the
    box [-box_halfwidth, box_halfwidth] of every coordinate.

    D is one read-only C-contiguous (N, m, n) array and b one read-only
    (N, m) array, so D[i] and b[i] are agent i's data and stacked_D,
    stacked_b are reshaped views of the same memory: every gradient and
    metric reads the one copy. A sequence of per-agent matrices is stacked
    once. Gradient and objective evaluations are pure. How x is cut into
    blocks is not part of the data: every blockwise function takes the
    block count it slices by.
    """

    D: np.ndarray
    b: np.ndarray
    box_halfwidth: float
    reg: DCRegularizer

    def __post_init__(self):
        try:
            self.D = _read_only(np.ascontiguousarray(self.D, dtype=float))
            self.b = _read_only(np.ascontiguousarray(self.b, dtype=float))
        except ValueError as err:  # per-agent matrices of unequal shapes
            raise DimensionMismatch(f"per-agent data do not stack: {err}") from None
        if self.D.ndim != 3:
            raise DimensionMismatch(f"D has shape {self.D.shape}, expected (agents, rows, n)")
        if self.b.shape != self.D.shape[:2]:
            raise DimensionMismatch(f"b has shape {self.b.shape}, expected {self.D.shape[:2]}")
        if not self.box_halfwidth >= 0:
            raise ValueError(f"box_halfwidth must be >= 0, got {self.box_halfwidth}")

    @property
    def n_agents(self) -> int:
        return self.D.shape[0]

    @property
    def n_vars(self) -> int:
        return self.D.shape[2]

    @property
    def stacked_D(self) -> np.ndarray:
        """All agents' rows as one (N*m, n) view of D."""
        return self.D.reshape(-1, self.n_vars)

    @property
    def stacked_b(self) -> np.ndarray:
        """All agents' measurements as one (N*m,) view of b."""
        return self.b.reshape(-1)

    def project_box(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, -self.box_halfwidth, self.box_halfwidth)


def block_dim(n_vars: int, n_blocks: int) -> int:
    """Coordinates per block when n_vars splits into n_blocks equal blocks."""
    if n_blocks < 1 or n_vars % n_blocks != 0:
        raise IndivisibleBlocks(f"{n_vars} variables cannot split into {n_blocks} blocks")
    return n_vars // n_blocks


# agents per chunk of a gradient pass, and of the rows of a metric product D x_bar: 8m-row
# chunk edges keep D x_bar on OpenBLAS's 4-row gemv groups, so it equals one stacked call
PASS_AGENTS = 8


def _pass(inst: ProblemInstance, agents, x: np.ndarray):
    """The agents ``agents`` names, PASS_AGENTS at a time, as their (k, m, n)
    rows of D and residual columns D_i x_i - b_i of shape (k, m, 1)."""
    m, n = inst.D.shape[1:]
    D, b = inst.D[agents].reshape(-1, m, n), inst.b[agents].reshape(-1, m, 1)
    x = x.reshape(-1, n, 1)
    for first in range(0, len(D), PASS_AGENTS):
        chunk = slice(first, first + PASS_AGENTS)
        yield D[chunk], np.matmul(D[chunk], x[chunk]) - b[chunk]


def block_gradient(inst: ProblemInstance, agents, x: np.ndarray, blocks,
                   n_blocks: int) -> np.ndarray:
    """Gradient of ||b_i - D_i x_i||^2 with respect to block blocks_i of x_i,
    x cut into n_blocks equal blocks, for every agent ``agents`` names,
    concatenated agent by agent.

    ``agents`` is one agent index, with x of shape (n,) and one block, or
    slice(None), with x of shape (N, n) and one block per agent. Each
    product reads the agent's block as a strided view of D, never a copy.
    """
    dim = block_dim(inst.n_vars, n_blocks)
    blocks = np.ravel(blocks).tolist()
    if not all(0 <= l < n_blocks for l in blocks):
        raise BadBlockIndex(f"a block index outside 0..{n_blocks - 1} in {blocks}")
    picks = iter(blocks)
    columns = [d[:, l * dim:(l + 1) * dim].T @ r
               for rows, res in _pass(inst, agents, x) for d, r, l in zip(rows, res, picks)]
    if len(columns) != len(blocks):
        raise ValueError(f"{len(blocks)} blocks for {len(columns)} agents")
    return 2.0 * np.concatenate(columns)[:, 0]


def full_gradient(inst: ProblemInstance, agents, x: np.ndarray, n_blocks: int) -> np.ndarray:
    """Gradient of ||b_i - D_i x_i||^2 for every agent ``agents`` names: shape
    (n,) for one agent index, (N, n) for slice(None) with x of shape (N, n).
    One stacked product per chunk and each of the n_blocks blocks, so every
    entry equals its block gradient.
    """
    dim = block_dim(inst.n_vars, n_blocks)
    slices = [slice(l * dim, (l + 1) * dim) for l in range(n_blocks)]
    chunks = [np.concatenate([np.matmul(np.swapaxes(rows[:, :, sl], 1, 2), res) for sl in slices],
                             axis=1) for rows, res in _pass(inst, agents, x)]
    return 2.0 * np.concatenate(chunks)[..., 0].reshape(np.shape(x))


def metric_products(inst: ProblemInstance, x_bar: np.ndarray, residual: np.ndarray,
                    dt_r: np.ndarray):
    """Fill ``residual`` with stacked_D @ x_bar - stacked_b and ``dt_r`` with
    stacked_D.T @ residual, the metrics' products at x_bar; returns all three.
    D x_bar is one batched gemv over PASS_AGENTS agents' rows at a time."""
    rows = PASS_AGENTS * inst.D.shape[1]
    D = inst.stacked_D
    whole = len(D) // rows * rows
    np.matmul(D[:whole].reshape(-1, rows, inst.n_vars), x_bar,
              out=residual[:whole].reshape(-1, rows))
    # numpy hands a one-row product to dot, which rounds unlike a gemv's last
    # row: such a tail starts one 4-row group early
    tail = whole - 4 * (len(D) - whole == 1 and whole > 0)
    np.matmul(D[tail:], x_bar, out=residual[tail:])
    residual -= inst.stacked_b
    np.matmul(D.T, residual, out=dt_r)
    return x_bar, residual, dt_r


def objective_value(inst: ProblemInstance, x: np.ndarray, residual: np.ndarray) -> float:
    """U(x) = sum_i ||b_i - D_i x||^2 + weighted penalty, from the residual
    stacked_D @ x - stacked_b, which the run loop already holds."""
    return float(residual @ residual) + inst.reg.value(x)


def soft_threshold(w, level):
    """sign(w) * max(|w| - level, 0), the proximal map of level * |.|."""
    w = np.asarray(w, dtype=float)
    return np.sign(w) * np.maximum(np.abs(w) - level, 0.0)


def solve_block_subproblem(coef, anchor, tau: float, l1_level: float, lo, hi):
    """Exact minimizer of l1_level*||x||_1 + coef'(x - anchor) + tau/2 ||x - anchor||^2
    over the box [lo, hi].

    The objective is separable and convex per coordinate, so clipping the
    unconstrained soft-threshold solution to the box is optimal.
    """
    if not tau > 0:  # NaN fails too
        raise NonPositiveTau(f"proximal parameter must be positive, got {tau}")
    coef = np.asarray(coef, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    return np.clip(soft_threshold(anchor - coef / tau, l1_level / tau), lo, hi)


@lru_cache(maxsize=1)
def _draw(n_agents, m_per_agent, n_vars, sparsity, noise_var, seed):
    """Read-only (x0, D, b) of one seeded draw. The one-entry memo lets every
    run of a block sweep share the data its first run drew."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(n_vars)
    n_zero = int(np.ceil(sparsity * n_vars))
    if n_zero:
        x0[np.argsort(np.abs(x0))[:n_zero]] = 0.0

    # filled agent by agent in place, drawing D_i then b_i's noise
    D = np.empty((n_agents, m_per_agent, n_vars))
    b = np.empty((n_agents, m_per_agent))
    for d, b_i in zip(D, b):
        rng.standard_normal(out=d)
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        np.matmul(d, x0, out=b_i)
        if noise_var > 0:
            b_i += np.sqrt(noise_var) * rng.standard_normal(m_per_agent)
    for a in (x0, D, b):
        a.flags.writeable = False
    return x0, D, b


def generate_instance(
    n_agents: int,
    m_per_agent: int,
    n_vars: int,
    sparsity: float,
    noise_var: float,
    box_halfwidth: float,
    seed: int,
    reg: DCRegularizer | None = None,
) -> tuple[ProblemInstance, GroundTruth]:
    """Synthetic sparse-regression data, deterministic per seed.

    The planted signal is standard normal with its smallest (by magnitude)
    ceil(sparsity * n) entries zeroed. Measurement matrices have standard
    normal entries with l2-normalized rows; measurements get additive
    Gaussian noise of the given variance. D, b and x0 are read-only. The
    seed is an integer, and the last draw is memoized, so a repeated call
    shares them with the previous one.
    """
    if not 0.0 <= sparsity < 1.0:
        raise BadSparsity("sparsity fraction must lie in [0, 1)")
    if n_vars < 1:
        raise ValueError(f"n_vars must be >= 1, got {n_vars}")
    if m_per_agent < 1:
        raise ValueError(f"m_per_agent must be >= 1, got {m_per_agent}")
    if not noise_var >= 0:
        raise ValueError(f"noise_var must be >= 0, got {noise_var}")
    if not isinstance(seed, (int, np.integer)):  # the memo would replay one draw of None
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if reg is None:
        reg = DCRegularizer("log", weight=0.1, theta=10.0)

    x0, D, b = _draw(n_agents, m_per_agent, n_vars, sparsity, noise_var, seed)
    inst = ProblemInstance(D, b, float(box_halfwidth), reg)
    return inst, GroundTruth(_read_only(x0), x0 != 0.0, noise_var)


def save_instance(path, inst: ProblemInstance, gt: GroundTruth, n_blocks: int,
                  extra: dict | None = None) -> None:
    """Write an instance to a compressed ``.npz``: the arrays D, b, lo, hi
    (the box per coordinate), x0 and support, and a JSON ``manifest`` string
    whose ``block_dims`` cut x into n_blocks blocks; ``numpy.load`` reads it."""
    manifest = {
        "n_agents": inst.n_agents,
        "m_per_agent": inst.D.shape[1],
        "n_vars": inst.n_vars,
        "block_dims": [block_dim(inst.n_vars, n_blocks)] * n_blocks,
        "reg_kind": inst.reg.kind,
        "reg_weight": inst.reg.weight,
        "reg_theta": inst.reg.theta,
        "noise_var": gt.noise_var,
    }
    manifest.update(extra or {})
    np.savez_compressed(
        path,
        manifest=json.dumps(manifest, sort_keys=True),
        D=inst.D,
        b=inst.b,
        lo=np.full(inst.n_vars, -inst.box_halfwidth),
        hi=np.full(inst.n_vars, inst.box_halfwidth),
        x0=gt.x0,
        support=gt.support,
    )

