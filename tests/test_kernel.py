"""The batched round kernel against the per-agent loop reference, bit for bit.

Random strongly connected digraphs, the directed cycle and the complete
graph; (n_blocks, dim) block counts and sizes including B=1 and dim=1; both
selection schedules; boxes tight enough that the projection is active.
The batched round hands its metric products to a worker thread; the
products at each new iterate are compared with one stacked D x_bar and
D^T r. The batched gradients are also checked on their own against the
one-agent forms, with size-1 blocks and with one agent or one row, and the
adjacency-array graph against its set-based forms.
"""
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blocksca.blockcomm import BlockSchedule
from blocksca.graph import DiGraph, erdos_renyi_symmetric, is_strongly_connected
from blocksca.objective import DCRegularizer, block_gradient, full_gradient, generate_instance
from blocksca.solver import (
    StepSizeSchedule,
    init_solver_state,
    run_gradient_push,
    solver_round,
    stationarity_gap,
)

from loop_reference import (
    block_slice,
    build_weights,
    loop_block_gradient,
    loop_erdos_renyi_edges,
    loop_is_strongly_connected,
    loop_full_gradient,
    loop_gradient_push_step,
    loop_solver_round,
    stacked_dt_r,
)
from test_graph import complete_graph, directed_cycle, edge_set

ROUNDS = 24
FIELDS = ("x", "mass", "tracker", "grad_cache", "blocks", "metrics")


def build_graph(n_agents, kind, extra):
    if kind == "cycle":
        return directed_cycle(n_agents)
    if kind == "complete":
        return complete_graph(n_agents)
    # a directed cycle through a random order keeps it strongly connected
    order = np.random.default_rng(extra).permutation(n_agents)
    adjacency = np.zeros((n_agents, n_agents), dtype=bool)
    adjacency[order, np.roll(order, -1)] = True
    pairs = np.random.default_rng(extra + 1).integers(0, n_agents, size=(extra % (2 * n_agents), 2))
    adjacency[pairs[:, 0], pairs[:, 1]] = True
    np.fill_diagonal(adjacency, False)
    return DiGraph(adjacency)


def build_problem(n_agents, blocks, m, box, reg_kind, graph_kind, schedule_kind, seed):
    n_blocks, dim = blocks
    reg = DCRegularizer(reg_kind, 0.1, 10.0)
    inst, _ = generate_instance(n_agents, m, n_blocks * dim, 0.5, 0.3, box, seed, reg=reg)
    graph = build_graph(n_agents, graph_kind, seed)
    assert is_strongly_connected(graph)
    if schedule_kind == "round_robin":
        schedule = BlockSchedule.round_robin(n_agents, n_blocks)
    else:
        schedule = BlockSchedule.shuffled_cycle(n_agents, n_blocks, seed % 100)
    return inst, graph, schedule


problems = st.tuples(
    st.integers(2, 7),
    st.one_of(  # (n_blocks, dim)
        st.sampled_from([(4, 3), (1, 12), (3, 4)]),
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
    ),
    st.integers(1, 6),
    st.sampled_from([0.3, 10.0]),  # 0.3 keeps the box projection active
    st.sampled_from(["log", "l1"]),
    st.sampled_from(["random", "cycle", "complete"]),
    st.sampled_from(["round_robin", "shuffled_cycle"]),
    st.integers(0, 2**16),
)
MULTI_BLOCK_CYCLE = (5, (4, 3), 4, 0.3, "log", "cycle", "shuffled_cycle", 7)
SINGLE_BLOCK = (4, (1, 9), 5, 10.0, "log", "random", "round_robin", 3)


@settings(max_examples=60, deadline=None)
@given(problems, st.floats(0.5, 5.0), st.floats(0.05, 0.5))
@example(MULTI_BLOCK_CYCLE, 1.0, 0.5)
@example(SINGLE_BLOCK, 2.0, 0.1)
def test_round_kernel_matches_loop_reference_bit_for_bit(params, tau, gamma):
    inst, graph, schedule = build_problem(*params)
    n_agents, n_blocks = inst.n_agents, schedule.n_blocks
    with ThreadPoolExecutor(max_workers=1) as pool:
        state = init_solver_state(inst, schedule)
        ref = init_solver_state(inst, schedule)
        full = np.stack([loop_full_gradient(inst, i, state.x[i], n_blocks)
                         for i in range(n_agents)])
        assert np.array_equal(state.grad_cache, full)

        for t in range(ROUNDS):
            state = solver_round(state, inst, schedule, graph, gamma, t, tau, pool)
            ref = loop_solver_round(ref, inst, schedule, graph, gamma, t, tau)
            for name in FIELDS:
                got, want = getattr(state, name), getattr(ref, name)
                if name == "metrics":  # (x_bar, residual, D^T residual) at the new iterate
                    got, want = np.concatenate(got()), np.concatenate(want())
                assert np.array_equal(got, want), (t, name)
            np.testing.assert_allclose(state.mass.sum(axis=0), n_agents, rtol=1e-12)
            for block in range(n_blocks):
                sl = block_slice(inst, n_blocks, block)
                weighted = (state.mass[:, block : block + 1] * state.tracker[:, sl]).sum(axis=0)
                target = state.grad_cache[:, sl].sum(axis=0)
                assert np.max(np.abs(weighted - target)) <= 1e-9 * (1.0 + np.max(np.abs(target)))


@settings(max_examples=30, deadline=None)
@given(problems, st.floats(0.05, 0.5))
@example(MULTI_BLOCK_CYCLE, 0.5)
@example(SINGLE_BLOCK, 0.1)
def test_gradient_push_matches_loop_reference_bit_for_bit(params, gamma0):
    inst, graph, schedule = build_problem(*params)
    n_blocks = schedule.n_blocks
    steps = StepSizeSchedule(gamma0, 1e-4)
    trace = run_gradient_push(inst, graph, steps, tol=0.0, t_max=ROUNDS, n_blocks=n_blocks)

    w = build_weights(graph, [0] * inst.n_agents, 0)
    x = np.zeros((inst.n_agents, inst.n_vars))
    phi = np.ones(inst.n_agents)
    gamma = gamma0
    js = [stationarity_gap(inst, x.mean(axis=0), stacked_dt_r(inst, x.mean(axis=0)))]
    for _ in range(ROUNDS):
        phi, x = loop_gradient_push_step(inst, w, x, phi, gamma, n_blocks)
        gamma = gamma * (1.0 - steps.mu * gamma)
        x_bar = x.mean(axis=0)
        js.append(stationarity_gap(inst, x_bar, stacked_dt_r(inst, x_bar)))
    assert trace.J == js



# dims: (n_blocks, dim)
@pytest.mark.parametrize("dims", [(1, 1), (1, 12), (3, 1), (2, 2), (4, 3), (9, 1)])
@pytest.mark.parametrize("n_agents,m", [(1, 1), (1, 5), (7, 1), (7, 6)])
def test_batched_gradients_match_one_agent_forms_bit_for_bit(dims, n_agents, m):
    n_blocks, dim = dims
    n_vars = n_blocks * dim
    inst, _ = generate_instance(n_agents, m, n_vars, 0.5, 0.3, 10.0, seed=n_blocks + m)
    rng = np.random.default_rng(n_agents * m)
    x = rng.uniform(-2, 2, size=(n_agents, n_vars))
    full = np.stack([loop_full_gradient(inst, i, x[i], n_blocks) for i in range(n_agents)])
    assert np.array_equal(full_gradient(inst, slice(None), x, n_blocks), full)
    for i in range(n_agents):
        assert np.array_equal(full_gradient(inst, i, x[i], n_blocks), full[i])
    # random picks, and every agent on the last block
    for blocks in (rng.integers(0, n_blocks, size=n_agents), np.full(n_agents, n_blocks - 1)):
        per_agent = [loop_block_gradient(inst, i, x[i], int(blocks[i]), n_blocks)
                     for i in range(n_agents)]
        batched = block_gradient(inst, slice(None), x, blocks, n_blocks)
        assert np.array_equal(batched, np.concatenate(per_agent))
        for i in range(n_agents):
            assert np.array_equal(block_gradient(inst, i, x[i], blocks[i], n_blocks), per_agent[i])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 12),
    st.sampled_from(["random", "cycle", "complete", "empty", "er"]),
    st.sampled_from([0.0, 0.25, 1.0]),
    st.integers(0, 2**16),
)
@example(1, "complete", 0.0, 0)
@example(1, "empty", 0.0, 0)
@example(6, "er", 0.25, 3)
@example(6, "er", 1.0, 0)
def test_array_graph_matches_set_reference(n_agents, kind, p, seed):
    assume(n_agents >= 2 or kind in ("complete", "empty"))
    if kind == "er":
        graph = erdos_renyi_symmetric(n_agents, p, seed)
        assert edge_set(graph) == loop_erdos_renyi_edges(n_agents, p, seed)
    elif kind == "empty":
        graph = DiGraph(np.zeros((n_agents, n_agents), dtype=bool))
    else:
        graph = build_graph(n_agents, kind, seed)
    # a random subset of the edges, often neither strongly connected nor symmetric
    rows, cols = np.nonzero(graph.adjacency)
    keep = np.random.default_rng(seed).permutation(len(rows))[: seed % (len(rows) + 1)]
    cut = np.zeros_like(graph.adjacency)
    cut[rows[keep], cols[keep]] = True
    for g in (graph, DiGraph(cut)):
        edges = edge_set(g)
        assert is_strongly_connected(g) == loop_is_strongly_connected(g)
        assert g.is_symmetric() == all((i, j) in edges for j, i in edges)
        reference = build_weights(g, [0] * n_agents, 0)
        assert g.broadcast_weights.dtype == reference.dtype
        assert g.broadcast_weights.tobytes() == reference.tobytes()
        assert not g.adjacency.flags.writeable and not g.broadcast_weights.flags.writeable
