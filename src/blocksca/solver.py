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

Blocks are equal, so every (N, n) state array is read as its (N, B, dim)
view, with B the schedule's block count, and agent i's selected block is
``view[i, blocks[i]]``. The local step, the gradient refresh and both
mixing phases run for all agents and blocks at once: the local step works
on the (N, dim) selected blocks, the refresh is one ``block_gradient`` call
over all agents, and each phase is one ``push_sum_mix`` call over the
round's (B, N, N) weights. The results are bit for bit those of evaluating
every agent and block on its own.

``run_block_sca`` and ``run_gradient_push`` share one loop, ``_drive``: J,
D and U at the network average x_bar, then the round, which sends the same
number of scalars every time. A run has two lanes. The main thread runs the
loop and every stage of the round; a worker thread, if the run has one,
forms the metric products D x_bar and D^T r at each new iterate while the
rest of the round runs. They are the serial loop's BLAS calls on the same
operands, read where the serial loop computes them, so no number and no
error changes.
"""
from __future__ import annotations

import contextvars
import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .blockcomm import BlockSchedule, build_all_weights, select_block
from .errors import DimensionMismatch, DivergentSchedule, NonFiniteIterate
from .graph import DiGraph
from .objective import (ProblemInstance, block_dim, block_gradient, full_gradient,
                        metric_products, objective_value, soft_threshold, solve_block_subproblem)
from .tracking import push_sum_mix, tracking_payload


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
        if not self.mu > 0.0:
            raise ValueError(f"mu must be > 0, got {self.mu}")
        if self.mu * self.gamma0 >= 1.0:
            raise DivergentSchedule("mu * gamma0 >= 1 makes the recurrence leave (0, 1]")


# stacked_D entries from which a run gives its lane a thread; below, the
# hand-off costs more than the overlap saves (measured crossover, 2-core VM)
LANE_MIN_ENTRIES = 2**19


def _metrics_at(inst: ProblemInstance, x: np.ndarray, pool):
    """The metric products at x's network average, in buffers allocated
    here, as a callable that yields (x_bar, residual, D^T residual) or raises
    their error: the future's ``result`` on ``pool``'s worker thread, or with
    no pool the call itself. They run in a copy of the caller's context, so
    its np.errstate holds."""
    call = partial(contextvars.copy_context().run, metric_products, inst, x.mean(axis=0),
                   np.empty(inst.stacked_b.shape), np.empty(inst.n_vars))
    return call if pool is None else pool.submit(call).result


@dataclass
class SolverState:
    """Network-wide solver state, one row per agent.

    x:          (N, n) local copies of the decision vector
    mass:       (N, B) per-block push-sum weights
    tracker:    (N, n) per-block running estimates of the network-average gradient
    grad_cache: (N, n) most recently evaluated block gradients
    blocks:     (N,) block each agent selected for the current iteration
    metrics:    callable yielding the metric products at x, see ``_metrics_at``

    Gradient-push keeps its full gradients in grad_cache, with no tracker or blocks.
    """

    x: np.ndarray
    mass: np.ndarray
    tracker: np.ndarray | None
    grad_cache: np.ndarray
    blocks: np.ndarray | None
    metrics: object


def init_solver_state(
    inst: ProblemInstance, schedule: BlockSchedule, pool, x0: np.ndarray | None = None
) -> SolverState:
    """Start every agent at x0 (zeros by default) with unit weights and
    trackers seeded by the full local gradients over the schedule's blocks."""
    n_agents, n = inst.n_agents, inst.n_vars
    x = np.zeros((n_agents, n)) if x0 is None else np.array(x0, dtype=float)
    grad = full_gradient(inst, slice(None), x, schedule.n_blocks)
    mass = np.ones((n_agents, schedule.n_blocks))
    return SolverState(x, mass, grad.copy(), grad, select_block(schedule, 0),
                       _metrics_at(inst, x, pool))


def local_optimization(
    state: SolverState, inst: ProblemInstance, tau: float, gamma: float
) -> np.ndarray:
    """Every agent solves its convex model on its selected block and steps
    toward the minimizer.

    Returns v: a copy of the agents' iterates whose selected blocks are
    replaced by the stepped blocks to broadcast, z + gamma (minimizer - z).
    Relies on the cached gradients of the current blocks being fresh, which
    the round structure guarantees.
    """
    n_agents, n_blocks = state.mass.shape
    shape = (n_agents, n_blocks, -1)
    pick = np.arange(n_agents), state.blocks  # agent i's block in an (N, B, dim) view
    z = state.x.reshape(shape)[pick]
    g = state.grad_cache.reshape(shape)[pick]
    # estimate of the other agents' summed block gradients
    others = n_agents * state.tracker.reshape(shape)[pick] - g
    coef = g + others - inst.reg.weight * inst.reg.smooth_grad(z)
    box = inst.box_halfwidth
    x_sel = solve_block_subproblem(coef, z, tau, inst.reg.l1_level, -box, box)
    v = state.x.copy()
    v.reshape(shape)[pick] = z + gamma * (x_sel - z)
    return v


def solver_round(state: SolverState, inst: ProblemInstance, schedule: BlockSchedule,
                 graph: DiGraph, gamma: float, t: int, tau: float, pool) -> SolverState:
    """One synchronous iteration; pure function of the pre-round state. The
    metric products at the new iterate run on ``pool``'s worker, if it is
    not None, during phase 2."""
    n_agents, n_blocks = state.mass.shape
    weights = build_all_weights(graph, state.blocks, n_blocks)

    # phase 1: local optimization, then blockwise weighted averaging
    v = local_optimization(state, inst, tau, gamma)
    mass_next, x_next = push_sum_mix(weights, state.mass, v)
    metrics = _metrics_at(inst, x_next, pool)

    # select next blocks and refresh every agent's cached gradient of its block
    blocks_next = select_block(schedule, t + 1)
    grad_next = state.grad_cache.copy()
    refreshed = block_gradient(inst, slice(None), x_next, blocks_next, n_blocks)
    by_block = grad_next.reshape(n_agents, n_blocks, -1)  # (N, B, dim) view
    by_block[np.arange(n_agents), blocks_next] = refreshed.reshape(n_agents, -1)

    # phase 2: blockwise tracking step on the gradient trackers
    payload = tracking_payload(state.tracker, state.mass, state.grad_cache, grad_next)
    _, tracker_next = push_sum_mix(weights, state.mass, payload, mass_next)

    return SolverState(x_next, mass_next, tracker_next, grad_next, blocks_next, metrics)


def stationarity_gap(inst: ProblemInstance, x_bar: np.ndarray, dt_r: np.ndarray) -> float:
    """Infinity-norm distance of a point from its projected prox-gradient
    image, zero exactly at stationary points (the J column of run traces).

    The smooth direction combines all agents' gradients and the
    regularizer's subtracted part; the l1 envelope enters through its exact
    prox, a soft-threshold followed by the box projection. ``dt_r`` is
    stacked_D.T @ (stacked_D @ x_bar - stacked_b), which the run loop holds.
    """
    smooth = 2.0 * dt_r - inst.reg.weight * inst.reg.smooth_grad(x_bar)
    image = inst.project_box(soft_threshold(x_bar - smooth, inst.reg.l1_level))
    return float(np.max(np.abs(x_bar - image)))


def disagreement(x_all: np.ndarray, x_bar: np.ndarray) -> float:
    """Largest distance of any agent's copy from the network average x_bar
    (the D column of run traces)."""
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


def _drive(inst, start, advance, sent, steps, tol, t_max, n_blocks, meta) -> RunTrace:
    """Metrics at x_bar, then the round, until J_t < tol or t == t_max. The
    metric products run on one worker thread per run, unless the process may
    use one CPU or stacked_D has fewer than LANE_MIN_ENTRIES entries.
    ``start(pool)`` returns the first state and ``advance(state, gamma, t,
    pool)`` the next, with pool the worker's executor or None; every round
    sends ``sent`` scalars."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    trace = RunTrace.empty(meta or {})
    gamma, comm = steps.gamma0, 0
    threaded = cpus > 1 and inst.stacked_D.size >= LANE_MIN_ENTRIES
    if threaded:  # only a run with a thread loads concurrent.futures and its logging
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=1) if threaded else nullcontext() as pool:
        state = start(pool)
        for t in range(t_max + 1):
            x_bar, residual, dt_r = state.metrics()
            j = stationarity_gap(inst, x_bar, dt_r)
            if not np.isfinite(j):
                raise NonFiniteIterate(f"stationarity gap is {j} at iteration {t}")
            u = objective_value(inst, x_bar, residual)
            trace.append(t, t / n_blocks, gamma, j, disagreement(state.x, x_bar), u, comm)
            if j < tol or t == t_max:
                trace.t_end = t if j < tol else None
                break
            state = advance(state, gamma, t, pool)
            comm += sent
            gamma = gamma * (1.0 - steps.mu * gamma)
    return trace


def run_block_sca(inst: ProblemInstance, graph: DiGraph, schedule: BlockSchedule,
                  steps: StepSizeSchedule, tau: float, tol: float, t_max: int,
                  meta: dict | None = None, x0: np.ndarray | None = None) -> RunTrace:
    """Drive the solver until the stationarity gap drops below tol or t_max
    rounds have run; records one metric row per iteration. x is cut into the
    schedule's blocks, which must split it evenly, and the schedule and the
    graph have the instance's agents."""
    for part in (schedule, graph):
        if part.n_agents != inst.n_agents:
            raise DimensionMismatch(f"{type(part).__name__} has {part.n_agents} agents, "
                                    f"the instance {inst.n_agents}")

    def advance(state, gamma, t, pool):
        return solver_round(state, inst, schedule, graph, gamma, t, tau, pool)

    # two block-sized payloads per agent per round, plus the push-sum weight
    # and the selection index
    sent = inst.n_agents * (2 * block_dim(inst.n_vars, schedule.n_blocks) + 2)
    return _drive(inst, lambda pool: init_solver_state(inst, schedule, pool, x0), advance, sent,
                  steps, tol, t_max, schedule.n_blocks, meta)


def run_gradient_push(inst: ProblemInstance, graph: DiGraph, steps: StepSizeSchedule, tol: float,
                      t_max: int, meta: dict | None = None, x0: np.ndarray | None = None,
                      n_blocks: int = 1) -> RunTrace:
    """Full-vector push-sum projected subgradient baseline.

    Every round each agent takes a projected subgradient step on the whole
    vector and broadcasts all of it; the network then runs one push-sum
    mixing step. Communication per round is a full n-vector per agent
    instead of a single block. Two details keep the network aimed at the
    actual objective: each agent carries a 1/N share of the common
    regularizer, and the local step is scaled by 1/phi_i so the weighted
    mixing does not bias the descent toward high-weight agents. The block
    count the gradients are sliced by, ``n_blocks``, decides their last bits.
    """
    n_agents, n = inst.n_agents, inst.n_vars
    if graph.n_agents != n_agents:
        raise DimensionMismatch(f"DiGraph has {graph.n_agents} agents, the instance {n_agents}")
    weights = graph.broadcast_weights[None]
    reg = inst.reg
    x = np.zeros((n_agents, n)) if x0 is None else np.array(x0, dtype=float)

    def start(pool):
        grad = full_gradient(inst, slice(None), x, n_blocks)
        return SolverState(x, np.ones((n_agents, 1)), None, grad, None, _metrics_at(inst, x, pool))

    def advance(state, gamma, t, pool):
        step = reg.l1_level * np.sign(state.x)
        step -= reg.weight * reg.smooth_grad(state.x)
        step /= n_agents
        step += state.grad_cache
        step *= gamma / state.mass
        np.subtract(state.x, step, out=step)
        phi, x_next = push_sum_mix(weights, state.mass, inst.project_box(step))
        metrics = _metrics_at(inst, x_next, pool)  # overlaps the gradients at x_next
        grad = full_gradient(inst, slice(None), x_next, n_blocks)
        return SolverState(x_next, phi, None, grad, None, metrics)

    return _drive(inst, start, advance, n_agents * (n + 1), steps, tol, t_max, 1, meta)
