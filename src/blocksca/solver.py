"""Block-communication SCA solver with push-sum gradient tracking.

Every iteration is one synchronous two-phase round:

phase 1 (optimize + average): each agent solves a strongly convex model of
the global cost restricted to its selected block, steps toward the
minimizer with the current step size, and broadcasts the stepped block plus
its push-sum weight. All agents then mix every block with the per-block
column-stochastic weights induced by the senders' selections.

phase 2 (track): each agent refreshes its cached block gradient at the new
iterate (one block-gradient evaluation per round) and the network runs one
blockwise tracking step on the gradient trackers, using the same per-block
weights. The gradient-cache correction for a block the sender did not
broadcast this round flows through the identity column of that block's
weight matrix, so it is absorbed locally without an extra message.

The linear coefficient of the local model combines the agent's own block
gradient, the tracker-based estimate of the other agents' gradients, and
the linearization of the regularizer's subtracted smooth part. An exact
clipped soft-threshold solves the block subproblem.

The local step and both mixing phases run for all agents and blocks at
once: the local step works on the selected coordinates of every agent, and
each phase is one ``push_sum_mix`` call over the round's (B, N, N) weights.
The results are bit for bit those of evaluating every agent and block on
its own.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockcomm import (
    BlockLayout,
    BlockSchedule,
    build_all_weights,
    select_block,
    selections_at,
)
from .errors import DivergentSchedule, NonFiniteIterate
from .graph import DiGraph
from .objective import (
    ProblemInstance,
    block_gradient,
    full_gradient,
    objective_value,
    soft_threshold,
    solve_block_subproblem,
)
from .tracking import push_sum_mix


@dataclass(frozen=True)
class StepSizeSchedule:
    """Diminishing steps gamma_{t+1} = gamma_t * (1 - mu * gamma_t).

    Strictly decreasing with divergent sum and summable squares; consecutive
    ratios stay below 1 / (1 - mu * gamma0).
    """

    gamma0: float
    mu: float

    def __post_init__(self):
        if not 0.0 < self.gamma0 <= 1.0:
            raise ValueError("gamma0 must lie in (0, 1]")
        if self.mu <= 0.0:
            raise ValueError("mu must be positive")
        if self.mu * self.gamma0 >= 1.0:
            raise DivergentSchedule("mu * gamma0 >= 1 makes the recurrence leave (0, 1]")

    @property
    def ratio_bound(self) -> float:
        """Upper bound on gamma_t / gamma_{t+1}."""
        return 1.0 / (1.0 - self.mu * self.gamma0)

    def sequence(self, t_max: int) -> np.ndarray:
        """Array of gamma_0 .. gamma_{t_max}."""
        out = np.empty(t_max + 1)
        g = self.gamma0
        for t in range(t_max + 1):
            out[t] = g
            g = g * (1.0 - self.mu * g)
        return out


@dataclass
class SolverState:
    """Network-wide solver state, one row per agent.

    x:          (N, n) local copies of the decision vector
    mass:       (N, B) per-block push-sum weights
    tracker:    (N, n) per-block running estimates of the network-average gradient
    grad_cache: (N, n) most recently evaluated block gradients
    blocks:     (N,) block each agent selected for the current iteration
    """

    layout: BlockLayout
    x: np.ndarray
    mass: np.ndarray
    tracker: np.ndarray
    grad_cache: np.ndarray
    blocks: np.ndarray

    @property
    def n_agents(self) -> int:
        return self.x.shape[0]


def init_solver_state(
    inst: ProblemInstance, schedule: BlockSchedule, x0: np.ndarray | None = None
) -> SolverState:
    """Start every agent at x0 (zeros by default) with unit weights and
    trackers seeded by the full local gradients."""
    n_agents, n = inst.n_agents, inst.n_vars
    x = np.zeros((n_agents, n)) if x0 is None else np.array(x0, dtype=float)
    grad = np.stack([full_gradient(inst, i, x[i]) for i in range(n_agents)])
    return SolverState(
        layout=inst.layout,
        x=x,
        mass=np.ones((n_agents, inst.layout.n_blocks)),
        tracker=grad.copy(),
        grad_cache=grad,
        blocks=np.array(selections_at(schedule, 0)),
    )


def local_optimization(
    state: SolverState, inst: ProblemInstance, tau: float, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Every agent solves its convex model on its selected block and steps
    toward the minimizer.

    Returns (x_tilde, v): copies of the agents' iterates whose selected
    blocks are replaced by the block minimizers and by the stepped blocks
    to broadcast. ``tau`` is a scalar or one value per agent. Relies on the
    cached gradients of the current blocks being fresh, which the round
    structure guarantees.
    """
    n_agents, n = state.x.shape
    # flat (N, n) indices of every agent's selected block, agent by agent
    sel = np.flatnonzero(inst.layout.coord_blocks == state.blocks[:, None])
    coord = sel % n
    z = state.x.ravel()[sel]
    g = state.grad_cache.ravel()[sel]
    # estimate of the other agents' summed block gradients
    others = n_agents * state.tracker.ravel()[sel] - g
    coef = g + others - inst.reg.weight * inst.reg.smooth_grad(z)
    taus = np.broadcast_to(np.asarray(tau, dtype=float), (n_agents,))[sel // n]
    x_sel = solve_block_subproblem(coef, z, taus, inst.reg.l1_level, inst.lo[coord], inst.hi[coord])
    x_tilde = state.x.copy()
    x_tilde.ravel()[sel] = x_sel
    v = state.x.copy()
    v.ravel()[sel] = z + gamma * (x_sel - z)
    return x_tilde, v


def solver_round(
    state: SolverState,
    inst: ProblemInstance,
    schedule: BlockSchedule,
    graph: DiGraph,
    gamma: float,
    t: int,
    tau: float,
) -> SolverState:
    """One synchronous iteration; pure function of the pre-round state."""
    n_agents = state.n_agents
    layout = inst.layout
    weights = build_all_weights(graph, state.blocks, layout.n_blocks)

    # phase 1: local optimization, then blockwise weighted averaging
    _, v = local_optimization(state, inst, tau, gamma)
    mass_next, x_next = push_sum_mix(weights, state.mass, v, layout)

    # select next blocks and refresh one cached block gradient per agent
    blocks_next = np.array([select_block(schedule, i, t + 1) for i in range(n_agents)])
    grad_next = state.grad_cache.copy()
    for i, block in enumerate(blocks_next.tolist()):
        grad_next[i, layout.slice(block)] = block_gradient(inst, i, x_next[i], block)

    # phase 2: blockwise tracking step on the gradient trackers
    payload = grad_next - state.grad_cache
    payload /= state.mass[:, layout.coord_blocks]
    payload += state.tracker
    _, tracker_next = push_sum_mix(weights, state.mass, payload, layout)

    return SolverState(layout, x_next, mass_next, tracker_next, grad_next, blocks_next)


def stationarity_gap(inst: ProblemInstance, x_bar: np.ndarray, residual=None) -> float:
    """Infinity-norm distance of a point from its projected prox-gradient
    image, zero exactly at stationary points (the J column of run traces).

    The smooth direction combines all agents' gradients and the
    regularizer's subtracted part; the l1 envelope enters through its exact
    prox, a soft-threshold followed by the box projection. ``residual`` is
    stacked_D @ x_bar - stacked_b when the caller already has it.
    """
    if residual is None:
        residual = inst.stacked_D @ x_bar - inst.stacked_b
    smooth = 2.0 * (inst.stacked_D.T @ residual) - inst.reg.weight * inst.reg.smooth_grad(x_bar)
    image = inst.project_box(soft_threshold(x_bar - smooth, inst.reg.l1_level))
    return float(np.max(np.abs(x_bar - image)))


def disagreement(x_all: np.ndarray) -> float:
    """Largest distance of any agent's copy from the network average (the D
    column of run traces)."""
    x_bar = x_all.mean(axis=0)
    return float(np.max(np.linalg.norm(x_all - x_bar, axis=1)))


@dataclass
class RunTrace:
    """Per-iteration metrics of one run plus its configuration echo.

    t_end is the first iteration whose stationarity gap fell below the run
    tolerance, or None if the iteration cap was hit first.
    """

    meta: dict
    t: list
    t_norm: list
    gamma: list
    J: list
    D: list
    U: list
    comm: list
    t_end: int | None

    @classmethod
    def empty(cls, meta: dict) -> "RunTrace":
        return cls(dict(meta), [], [], [], [], [], [], [], None)

    def append(self, t, t_norm, gamma, j, d, u, comm) -> None:
        self.t.append(t)
        self.t_norm.append(t_norm)
        self.gamma.append(gamma)
        self.J.append(j)
        self.D.append(d)
        self.U.append(u)
        self.comm.append(comm)


def _metrics(inst: ProblemInstance, x_all: np.ndarray, t: int) -> tuple[float, float, float]:
    """(J, D, U) of one round; raises NonFiniteIterate when J is not finite."""
    x_bar = x_all.mean(axis=0)
    residual = inst.stacked_D @ x_bar - inst.stacked_b
    j = stationarity_gap(inst, x_bar, residual)
    if not np.isfinite(j):
        raise NonFiniteIterate(f"stationarity gap is {j} at iteration {t}")
    return j, disagreement(x_all), objective_value(inst, x_bar, residual)


def run_block_sca(
    inst: ProblemInstance,
    graph: DiGraph,
    schedule: BlockSchedule,
    steps: StepSizeSchedule,
    tau: float,
    tol: float,
    t_max: int,
    meta: dict | None = None,
    x0: np.ndarray | None = None,
) -> RunTrace:
    """Drive the solver until the stationarity gap drops below tol or t_max
    rounds have run; records one metric row per iteration."""
    n_blocks = inst.layout.n_blocks
    dims = np.array(inst.layout.dims)
    trace = RunTrace.empty(meta or {})
    state = init_solver_state(inst, schedule, x0)
    gamma = steps.gamma0
    comm = 0
    for t in range(t_max + 1):
        j, d, u = _metrics(inst, state.x, t)
        trace.append(t, t / n_blocks, gamma, j, d, u, comm)
        if j < tol:
            trace.t_end = t
            break
        if t == t_max:
            break
        # two block-sized payloads per agent per round, plus the push-sum
        # weight and the selection index
        comm += int(np.sum(2 * dims[state.blocks] + 2))
        state = solver_round(state, inst, schedule, graph, gamma, t, tau)
        gamma = gamma * (1.0 - steps.mu * gamma)
    return trace


def run_gradient_push(
    inst: ProblemInstance,
    graph: DiGraph,
    steps: StepSizeSchedule,
    tol: float,
    t_max: int,
    meta: dict | None = None,
    x0: np.ndarray | None = None,
) -> RunTrace:
    """Full-vector push-sum projected subgradient baseline.

    Every round each agent takes a projected subgradient step on the whole
    vector and broadcasts all of it; the network then runs one push-sum
    mixing step. Communication per round is a full n-vector per agent
    instead of a single block. Two details keep the network aimed at the
    actual objective: each agent carries a 1/N share of the common
    regularizer, and the local step is scaled by 1/phi_i so the weighted
    mixing does not bias the descent toward high-weight agents.
    """
    n_agents, n = inst.n_agents, inst.n_vars
    layout = BlockLayout((n,))
    weights = build_all_weights(graph, np.zeros(n_agents, dtype=int), 1)
    x = np.zeros((n_agents, n)) if x0 is None else np.array(x0, dtype=float)
    phi = np.ones((n_agents, 1))
    reg = inst.reg
    trace = RunTrace.empty(meta or {})
    gamma = steps.gamma0
    comm = 0
    for t in range(t_max + 1):
        j, d, u = _metrics(inst, x, t)
        trace.append(t, float(t), gamma, j, d, u, comm)
        if j < tol:
            trace.t_end = t
            break
        if t == t_max:
            break
        step = reg.l1_level * np.sign(x)
        step -= reg.weight * reg.smooth_grad(x)
        step /= n_agents
        step += np.stack([full_gradient(inst, i, x[i]) for i in range(n_agents)])
        step *= gamma / phi
        np.subtract(x, step, out=step)
        phi, x = push_sum_mix(weights, phi, inst.project_box(step), layout)
        comm += n_agents * (n + 1)
        gamma = gamma * (1.0 - steps.mu * gamma)
    return trace
