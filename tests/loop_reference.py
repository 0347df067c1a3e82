"""Per-agent, per-block loop form of one solver round and one gradient-push
step: the reference the batched kernel in ``blocksca.solver`` must match
bit for bit. Also the per-agent instance generator, one separate matrix per
agent, that ``generate_instance`` must match when it fills one array.

Every agent and every block is evaluated on its own, with each block's
weights built column by column by ``build_weights``.
"""
import numpy as np

from blocksca.blockcomm import build_weights, select_block
from blocksca.objective import block_gradient, full_gradient, solve_block_subproblem
from blocksca.solver import SolverState


def mix_one(matrix, mass, payload):
    """Push-sum step of a single block: (A @ mass, A @ (mass * payload) / (A @ mass))."""
    mass_next = matrix @ mass
    return mass_next, (matrix @ (mass[:, None] * payload)) / mass_next[:, None]


def loop_local_step(inst, x, grad, tracker, block, tau, gamma):
    """One agent's stepped selected block."""
    sl = inst.layout.slice(block)
    z = x[sl]
    g = grad[sl]
    others = inst.n_agents * tracker[sl] - g
    coef = g + others - inst.reg.weight * inst.reg.smooth_grad(z)
    x_tilde = solve_block_subproblem(coef, z, tau, inst.reg.l1_level, inst.lo[sl], inst.hi[sl])
    return z + gamma * (x_tilde - z)


def loop_solver_round(state, inst, schedule, graph, gamma, t, tau):
    n_agents = state.n_agents
    layout = inst.layout

    v = state.x.copy()
    for i in range(n_agents):
        block = int(state.blocks[i])
        v[i, layout.slice(block)] = loop_local_step(
            inst, state.x[i], state.grad_cache[i], state.tracker[i], block, tau, gamma
        )

    weights = [build_weights(graph, state.blocks, block).matrix for block in range(layout.n_blocks)]
    x_next = np.empty_like(state.x)
    mass_next = np.empty_like(state.mass)
    for block in range(layout.n_blocks):
        sl = layout.slice(block)
        mass_next[:, block], x_next[:, sl] = mix_one(
            weights[block], state.mass[:, block], v[:, sl]
        )

    blocks_next = np.array([select_block(schedule, i, t + 1) for i in range(n_agents)])
    grad_next = state.grad_cache.copy()
    for i in range(n_agents):
        sl = layout.slice(int(blocks_next[i]))
        grad_next[i, sl] = block_gradient(inst, i, x_next[i], int(blocks_next[i]))

    tracker_next = np.empty_like(state.tracker)
    for block in range(layout.n_blocks):
        sl = layout.slice(block)
        phi = state.mass[:, block]
        payload = state.tracker[:, sl] + (grad_next[:, sl] - state.grad_cache[:, sl]) / phi[:, None]
        _, tracker_next[:, sl] = mix_one(weights[block], phi, payload)

    return SolverState(layout, x_next, mass_next, tracker_next, grad_next, blocks_next)


def loop_gradient_push_step(inst, w, x, phi, gamma):
    """Projected subgradient step of every agent, then one full-vector mix;
    ``phi`` has shape (N,). Returns (phi_next, x_next)."""
    n_agents = inst.n_agents
    reg = inst.reg
    z = np.empty_like(x)
    for i in range(n_agents):
        subgrad = full_gradient(inst, i, x[i]) + (
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
