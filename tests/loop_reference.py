"""Per-agent, per-block loop form of one solver round and one gradient-push
step: the reference the batched kernel in ``blocksca.solver`` must match
bit for bit. Also the one-agent gradients that the batched
``block_gradient`` and ``full_gradient`` must match, and the per-agent
instance generator, one separate matrix per agent, that
``generate_instance`` must match when it fills one array. And the serial
run loops, metrics from one stacked D x_bar then round at every iteration,
that ``run_block_sca`` and ``run_gradient_push`` must match. And the set-based
graph forms, a pair loop for Erdos-Renyi edges and two depth-first
searches for strong connectivity, that the array-backed ``DiGraph`` must
match; its broadcast weights must match ``build_weights`` with every agent
on one block. And the per-agent block pick ``loop_select_block`` that the
batched ``select_block`` must match, plus three test helpers: the covering
window of a schedule, the step-size recurrence, and a reader for the files
``save_instance`` writes.

Every agent and every block is evaluated on its own, with each block's
weights built column by column by ``build_weights``. Out-neighbors are
read from the graph's ``edges``.
"""
import json
from functools import lru_cache

import numpy as np

from blocksca.blockcomm import build_all_weights
from blocksca.errors import NonFiniteIterate
from blocksca.objective import (
    DCRegularizer,
    GroundTruth,
    ProblemInstance,
    full_gradient,
    objective_value,
    solve_block_subproblem,
)
from blocksca.solver import (
    RunTrace,
    SolverState,
    disagreement,
    init_solver_state,
    solver_round,
    stationarity_gap,
)
from blocksca.tracking import push_sum_mix


def block_slice(inst, n_blocks, block):
    """Coordinates of ``block`` when x is cut into n_blocks equal blocks."""
    dim = inst.n_vars // n_blocks
    return slice(block * dim, (block + 1) * dim)


def loop_block_gradient(inst, agent, x, block, n_blocks):
    """Gradient of ||b_i - D_i x||^2 with respect to one of n_blocks blocks of x."""
    sl = block_slice(inst, n_blocks, block)
    residual = inst.D[agent] @ x - inst.b[agent]
    return 2.0 * (inst.D[agent][:, sl].T @ residual)


def loop_full_gradient(inst, agent, x, n_blocks):
    """Concatenation of block gradients over all n_blocks blocks."""
    residual = inst.D[agent] @ x - inst.b[agent]
    return np.concatenate(
        [2.0 * (inst.D[agent][:, block_slice(inst, n_blocks, l)].T @ residual)
         for l in range(n_blocks)]
    )


@lru_cache(maxsize=4096)
def _cycle_permutation(seed: int, n_blocks: int, agent: int, cycle: int) -> tuple[int, ...]:
    return tuple(np.random.default_rng([seed, agent, cycle]).permutation(n_blocks).tolist())


def loop_select_block(schedule, agent: int, t: int) -> int:
    """Block chosen by ``agent`` at iteration ``t``; deterministic."""
    if t < 0:
        raise ValueError("iteration index must be nonnegative")
    if not 0 <= agent < schedule.n_agents:
        raise ValueError(f"agent {agent} outside schedule with {schedule.n_agents} agents")
    b = schedule.n_blocks
    if schedule.kind == "round_robin":
        return (schedule.offsets[agent] + t) % b
    if b == 1:
        return 0
    cycle, pos = divmod(t, b)
    return _cycle_permutation(schedule.seed, b, agent, cycle)[pos]


def covering_period(schedule) -> int:
    """Window length in which every agent picks every block: B for
    round_robin, 2B - 1 for shuffled_cycle (any such window holds a whole
    cycle)."""
    b = schedule.n_blocks
    return b if schedule.kind == "round_robin" else 2 * b - 1


def step_sizes(steps, t_max):
    """gamma_0 .. gamma_{t_max} of the recurrence gamma_{t+1} = gamma_t (1 - mu gamma_t)."""
    out = np.empty(t_max + 1)
    g = steps.gamma0
    for t in range(t_max + 1):
        out[t] = g
        g = g * (1.0 - steps.mu * g)
    return out


def load_instance(path):
    """(instance, ground truth, manifest) from a ``save_instance`` file."""
    with np.load(path, allow_pickle=False) as data:
        manifest = json.loads(str(data["manifest"]))
        lo, hi = data["lo"], data["hi"]
        assert np.all(hi == hi[0]) and np.all(lo == -hi), "the box is not uniform"
        reg = DCRegularizer(manifest["reg_kind"], manifest["reg_weight"], manifest["reg_theta"])
        inst = ProblemInstance(data["D"], data["b"], float(hi[0]), reg)
        gt = GroundTruth(data["x0"], data["support"], manifest["noise_var"])
    return inst, gt, manifest


def out_neighbors(graph, j):
    """Agents that receive messages from ``j`` (excluding ``j``), from ``edges``."""
    return {i for s, i in graph.edges if s == j}


def build_weights(graph, selections, block):
    """Column-stochastic weights of one block, column by column: sender j's
    column is 1/(outdeg(j)+1) on j and its out-neighbors if j picked
    ``block``, and the j-th basis vector otherwise."""
    a = np.eye(graph.n_agents)
    for j in range(graph.n_agents):
        if selections[j] == block:
            out = out_neighbors(graph, j)
            a[[j, *out], j] = 1.0 / (len(out) + 1)
    return a


def loop_erdos_renyi_edges(n, p, seed):
    """Edge set of G(n, p) from one (n, n) draw, pair by pair."""
    draw = np.random.default_rng(seed).random((n, n))
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if draw[i, j] < p:
                edges.add((i, j))
                edges.add((j, i))
    return frozenset(edges)


def loop_is_strongly_connected(graph):
    """Depth-first searches from agent 0 along the edges and along the
    reversed edges; True iff both reach every agent."""

    def sweep(pairs) -> bool:
        adj = [set() for _ in range(graph.n_agents)]
        for j, i in pairs:
            adj[j].add(i)
        seen, stack = {0}, [0]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == graph.n_agents

    return sweep(graph.edges) and sweep((i, j) for j, i in graph.edges)


def mix_one(matrix, mass, payload):
    """Push-sum step of a single block: (A @ mass, A @ (mass * payload) / (A @ mass))."""
    mass_next = matrix @ mass
    return mass_next, (matrix @ (mass[:, None] * payload)) / mass_next[:, None]


def loop_local_step(inst, x, grad, tracker, sl, tau, gamma):
    """One agent's stepped selected block, the coordinates ``sl``."""
    z = x[sl]
    g = grad[sl]
    others = inst.n_agents * tracker[sl] - g
    coef = g + others - inst.reg.weight * inst.reg.smooth_grad(z)
    box = np.full(len(z), inst.box_halfwidth)
    x_tilde = solve_block_subproblem(coef, z, tau, inst.reg.l1_level, -box, box)
    return z + gamma * (x_tilde - z)


def loop_solver_round(state, inst, schedule, graph, gamma, t, tau):
    n_agents = state.x.shape[0]
    n_blocks = schedule.n_blocks

    def at(block):
        return block_slice(inst, n_blocks, block)

    v = state.x.copy()
    for i in range(n_agents):
        sl = at(int(state.blocks[i]))
        v[i, sl] = loop_local_step(
            inst, state.x[i], state.grad_cache[i], state.tracker[i], sl, tau, gamma
        )

    weights = [build_weights(graph, state.blocks, block) for block in range(n_blocks)]
    x_next = np.empty_like(state.x)
    mass_next = np.empty_like(state.mass)
    for block in range(n_blocks):
        sl = at(block)
        mass_next[:, block], x_next[:, sl] = mix_one(
            weights[block], state.mass[:, block], v[:, sl]
        )

    blocks_next = np.array([loop_select_block(schedule, i, t + 1) for i in range(n_agents)])
    grad_next = state.grad_cache.copy()
    for i in range(n_agents):
        block = int(blocks_next[i])
        grad_next[i, at(block)] = loop_block_gradient(inst, i, x_next[i], block, n_blocks)

    tracker_next = np.empty_like(state.tracker)
    for block in range(n_blocks):
        sl = at(block)
        phi = state.mass[:, block]
        payload = state.tracker[:, sl] + (grad_next[:, sl] - state.grad_cache[:, sl]) / phi[:, None]
        _, tracker_next[:, sl] = mix_one(weights[block], phi, payload)

    d_xbar = inst.stacked_D @ x_next.mean(axis=0)
    return SolverState(x_next, mass_next, tracker_next, grad_next, blocks_next, d_xbar)


def loop_gradient_push_step(inst, w, x, phi, gamma, n_blocks=1):
    """Projected subgradient step of every agent, then one full-vector mix;
    ``phi`` has shape (N,). Returns (phi_next, x_next)."""
    n_agents = inst.n_agents
    reg = inst.reg
    z = np.empty_like(x)
    for i in range(n_agents):
        subgrad = loop_full_gradient(inst, i, x[i], n_blocks) + (
            reg.l1_level * np.sign(x[i]) - reg.weight * reg.smooth_grad(x[i])
        ) / n_agents
        z[i] = inst.project_box(x[i] - (gamma / phi[i]) * subgrad)
    return mix_one(w, phi, z)


def loop_generate_data(n_agents, m_per_agent, n_vars, sparsity, noise_var, seed):
    """(D_i list, b_i list, x0) drawn agent by agent, as separate arrays."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(n_vars)
    n_zero = int(np.ceil(sparsity * n_vars))
    if n_zero:
        x0[np.argsort(np.abs(x0))[:n_zero]] = 0.0
    ds, bs = [], []
    for _ in range(n_agents):
        d = rng.standard_normal((m_per_agent, n_vars))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        noise = np.sqrt(noise_var) * rng.standard_normal(m_per_agent) if noise_var > 0 else 0.0
        ds.append(d)
        bs.append(d @ x0 + noise)
    return ds, bs, x0


def stacked_residual(inst, x):
    """stacked_D @ x - stacked_b in one stacked product: the residual the
    metrics take."""
    return inst.stacked_D @ x - inst.stacked_b


def serial_metrics(inst, x_all, t):
    """(J, D, U) of one round; raises NonFiniteIterate when J is not finite."""
    x_bar = x_all.mean(axis=0)
    residual = stacked_residual(inst, x_bar)
    j = stationarity_gap(inst, x_bar, residual)
    if not np.isfinite(j):
        raise NonFiniteIterate(f"stationarity gap is {j} at iteration {t}")
    return j, disagreement(x_all, x_bar), objective_value(inst, x_bar, residual)


def serial_run_block_sca(inst, graph, schedule, steps, tau, tol, t_max, meta=None, x0=None):
    """The block-SCA run loop: metrics, then the round."""
    n_blocks = schedule.n_blocks
    trace = RunTrace.empty(meta or {})
    state = init_solver_state(inst, schedule, x0)
    gamma = steps.gamma0
    comm = 0
    for t in range(t_max + 1):
        j, d, u = serial_metrics(inst, state.x, t)
        trace.append(t, t / n_blocks, gamma, j, d, u, comm)
        if j < tol:
            trace.t_end = t
            break
        if t == t_max:
            break
        # two block-sized payloads per agent per round, plus the push-sum
        # weight and the selection index
        comm += inst.n_agents * (2 * (inst.n_vars // n_blocks) + 2)
        state = solver_round(state, inst, schedule, graph, gamma, t, tau)
        gamma = gamma * (1.0 - steps.mu * gamma)
    return trace


def serial_run_gradient_push(inst, graph, steps, tol, t_max, meta=None, x0=None, n_blocks=1):
    """The gradient-push run loop: metrics, then the step."""
    n_agents, n = inst.n_agents, inst.n_vars
    weights = build_all_weights(graph, np.zeros(n_agents, dtype=int), 1)
    x = np.zeros((n_agents, n)) if x0 is None else np.array(x0, dtype=float)
    phi = np.ones((n_agents, 1))
    reg = inst.reg
    trace = RunTrace.empty(meta or {})
    gamma = steps.gamma0
    comm = 0
    for t in range(t_max + 1):
        j, d, u = serial_metrics(inst, x, t)
        trace.append(t, float(t), gamma, j, d, u, comm)
        if j < tol:
            trace.t_end = t
            break
        if t == t_max:
            break
        step = reg.l1_level * np.sign(x)
        step -= reg.weight * reg.smooth_grad(x)
        step /= n_agents
        step += full_gradient(inst, slice(None), x, n_blocks)
        step *= gamma / phi
        np.subtract(x, step, out=step)
        phi, x = push_sum_mix(weights, phi, inst.project_box(step))
        comm += n_agents * (n + 1)
        gamma = gamma * (1.0 - steps.mu * gamma)
    return trace
