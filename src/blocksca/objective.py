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

import numpy as np

from .blockcomm import BlockLayout
from .errors import BadSparsity, DimensionMismatch, NonPositiveTau, NonPositiveTheta


def log_penalty_slope(theta: float) -> float:
    """Slope theta / log(1 + theta) of the l1 majorant of the log penalty.

    This is the smallest slope whose l1 envelope dominates the log penalty
    at the origin, i.e. the penalty's one-sided derivative at 0+. Tends to 1
    as theta -> 0 (the penalty degenerates to |x|).
    """
    if theta <= 0:
        raise NonPositiveTheta("log penalty needs theta > 0")
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
        if self.weight < 0:
            raise ValueError("regularizer weight must be nonnegative")
        if self.kind == "log" and self.theta <= 0:
            raise NonPositiveTheta("log penalty needs theta > 0")

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

    def convex_part(self, x) -> float:
        """weight * slope * ||x||_1, the l1 envelope."""
        return self.weight * self.slope * float(np.sum(np.abs(x)))

    def smooth_part(self, x) -> float:
        """weight * sum_k (slope*|x_k| - r(x_k)), the subtracted convex term."""
        x = np.asarray(x, dtype=float)
        return self.weight * float(
            np.sum(self.slope * np.abs(x) - self.penalty_scalar(x))
        )

    def smooth_grad(self, x):
        """Derivative of the smooth part per coordinate, per unit weight.

        Odd, zero at the origin, and Lipschitz with constant
        theta^2 / log(1 + theta) for the log kind; identically zero for l1.
        """
        x = np.asarray(x, dtype=float)
        if self.kind == "l1":
            return np.zeros_like(x)
        ax = np.abs(x)
        return np.sign(x) * self.theta**2 * ax / (np.log1p(self.theta) * (1.0 + self.theta * ax))


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
    """Measurement data of every agent plus the shared regularizer and box.

    D is one read-only C-contiguous (N, m, n) array and b one read-only
    (N, m) array, so D[i] and b[i] are agent i's data and stacked_D,
    stacked_b are reshaped views of the same memory: every gradient and
    metric reads the one copy. A sequence of per-agent matrices is stacked
    once. Gradient and objective evaluations are pure.
    """

    D: np.ndarray
    b: np.ndarray
    layout: BlockLayout
    lo: np.ndarray
    hi: np.ndarray
    reg: DCRegularizer

    def __post_init__(self):
        try:
            self.D = _read_only(np.ascontiguousarray(self.D, dtype=float))
            self.b = _read_only(np.ascontiguousarray(self.b, dtype=float))
        except ValueError as err:  # per-agent matrices of unequal shapes
            raise DimensionMismatch(f"per-agent data do not stack: {err}") from None
        if self.D.ndim != 3 or self.D.shape[2] != self.layout.n_vars:
            raise DimensionMismatch(
                f"D has shape {self.D.shape}, expected (agents, rows, {self.layout.n_vars})"
            )
        if self.b.shape != self.D.shape[:2]:
            raise DimensionMismatch(f"b has shape {self.b.shape}, expected {self.D.shape[:2]}")
        if np.any(self.lo > self.hi):
            raise ValueError("box must satisfy lo <= hi coordinatewise")

    @property
    def n_agents(self) -> int:
        return self.D.shape[0]

    @property
    def n_vars(self) -> int:
        return self.layout.n_vars

    @property
    def stacked_D(self) -> np.ndarray:
        """All agents' rows as one (N*m, n) view of D."""
        return self.D.reshape(-1, self.n_vars)

    @property
    def stacked_b(self) -> np.ndarray:
        """All agents' measurements as one (N*m,) view of b."""
        return self.b.reshape(-1)

    def project_box(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lo, self.hi)


def block_gradient(inst: ProblemInstance, agent: int, x: np.ndarray, block: int) -> np.ndarray:
    """Gradient of ||b_i - D_i x||^2 with respect to one block of x."""
    sl = inst.layout.slice(block)
    residual = inst.D[agent] @ x - inst.b[agent]
    return 2.0 * (inst.D[agent][:, sl].T @ residual)


def full_gradient(inst: ProblemInstance, agent: int, x: np.ndarray) -> np.ndarray:
    """Concatenation of block gradients over all blocks."""
    residual = inst.D[agent] @ x - inst.b[agent]
    return np.concatenate(
        [2.0 * (inst.D[agent][:, inst.layout.slice(l)].T @ residual)
         for l in range(inst.layout.n_blocks)]
    )


def sum_gradient(inst: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """sum_i of the agents' smooth gradients, via the stacked system."""
    return 2.0 * (inst.stacked_D.T @ (inst.stacked_D @ x - inst.stacked_b))


def objective_value(inst: ProblemInstance, x: np.ndarray, residual=None) -> float:
    """U(x) = sum_i ||b_i - D_i x||^2 + weighted penalty.

    ``residual`` is stacked_D @ x - stacked_b when the caller already has it.
    """
    if residual is None:
        residual = inst.stacked_D @ x - inst.stacked_b
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
    if np.any(np.asarray(tau) <= 0):
        raise NonPositiveTau("proximal parameter must be positive")
    coef = np.asarray(coef, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    return np.clip(soft_threshold(anchor - coef / tau, l1_level / tau), lo, hi)


def generate_instance(
    n_agents: int,
    m_per_agent: int,
    n_vars: int,
    sparsity: float,
    noise_var: float,
    box_halfwidth: float,
    seed: int,
    layout: BlockLayout | None = None,
    reg: DCRegularizer | None = None,
) -> tuple[ProblemInstance, GroundTruth]:
    """Synthetic sparse-regression data, deterministic per seed.

    The planted signal is standard normal with its smallest (by magnitude)
    ceil(sparsity * n) entries zeroed. Measurement matrices have standard
    normal entries with l2-normalized rows; measurements get additive
    Gaussian noise of the given variance.
    """
    if not 0.0 <= sparsity < 1.0:
        raise BadSparsity("sparsity fraction must lie in [0, 1)")
    if layout is None:
        layout = BlockLayout((n_vars,))
    if layout.n_vars != n_vars:
        raise ValueError("layout does not cover n_vars")
    if reg is None:
        reg = DCRegularizer("log", weight=0.1, theta=10.0)

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

    lo = np.full(n_vars, -float(box_halfwidth))
    hi = np.full(n_vars, float(box_halfwidth))
    inst = ProblemInstance(D, b, layout, lo, hi, reg)
    return inst, GroundTruth(x0, x0 != 0.0, noise_var)


def save_instance(path, inst: ProblemInstance, gt: GroundTruth, extra: dict | None = None) -> None:
    """Dump an instance plus manifest so runs are replayable without regenerating."""
    manifest = {
        "n_agents": inst.n_agents,
        "m_per_agent": inst.D.shape[1],
        "n_vars": inst.n_vars,
        "block_dims": list(inst.layout.dims),
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
        lo=inst.lo,
        hi=inst.hi,
        x0=gt.x0,
        support=gt.support,
    )


def load_instance(path) -> tuple[ProblemInstance, GroundTruth, dict]:
    """Inverse of save_instance; returns (instance, ground truth, manifest)."""
    with np.load(path, allow_pickle=False) as data:
        manifest = json.loads(str(data["manifest"]))
        layout = BlockLayout(tuple(manifest["block_dims"]))
        reg = DCRegularizer(manifest["reg_kind"], manifest["reg_weight"], manifest["reg_theta"])
        inst = ProblemInstance(data["D"], data["b"], layout, data["lo"], data["hi"], reg)
        gt = GroundTruth(data["x0"], data["support"], manifest["noise_var"])
    return inst, gt, manifest
