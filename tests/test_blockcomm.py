import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocksca.blockcomm import (
    BlockSchedule,
    build_all_weights,
    select_block,
)
from blocksca.errors import BadBlockIndex, IndivisibleBlocks
from blocksca.graph import DiGraph, erdos_renyi_symmetric, is_strongly_connected
from blocksca.objective import block_dim, block_gradient, full_gradient, generate_instance

from loop_reference import covering_period, loop_select_block, out_neighbors
from test_graph import complete_graph, directed_cycle, edge_set
from test_kernel import build_graph


# ---------------------------------------------------------------- layout
# A run's B blocks split x into B equal contiguous blocks; block l of an
# n-vector is its coordinates l*dim .. (l+1)*dim - 1.

def layout_instance(n_vars):
    return generate_instance(2, 4, n_vars, 0.5, 0.3, 10.0, seed=3)[0]


def test_uniform_layout():
    assert block_dim(12, 3) == 4
    inst = layout_instance(12)
    x = np.random.default_rng(1).uniform(-1, 1, inst.n_vars)
    full = full_gradient(inst, 0, x, 3)
    assert np.array_equal(block_gradient(inst, 0, x, 1, 3), full[4:8])


def test_uniform_layout_rejects_indivisible():
    with pytest.raises(IndivisibleBlocks):
        block_dim(10, 3)
    inst = layout_instance(10)
    with pytest.raises(IndivisibleBlocks):
        block_gradient(inst, 0, np.zeros(inst.n_vars), 0, 3)


def test_layout_bad_block_index():
    inst = layout_instance(6)
    with pytest.raises(BadBlockIndex):
        block_gradient(inst, 0, np.zeros(inst.n_vars), 2, 2)


# ---------------------------------------------------------------- schedules

def test_round_robin_examples():
    sched = BlockSchedule.round_robin(1, 3)
    assert [select_block(sched, t).tolist() for t in range(4)] == [[0], [1], [2], [0]]


def test_shuffled_cycle_one_cycle_is_permutation():
    sched = BlockSchedule.shuffled_cycle(3, 4, seed=9)
    picks = np.array([select_block(sched, t) for t in range(4)])
    for agent in range(3):
        assert set(picks[:, agent].tolist()) == {0, 1, 2, 3}


def test_shuffled_cycle_draws_one_seeded_permutation_per_cycle():
    sched = BlockSchedule.shuffled_cycle(4, 5, seed=8)
    for agent in range(4):
        for cycle in range(6):
            perm = np.random.default_rng([8, agent, cycle]).permutation(5).tolist()
            assert [int(select_block(sched, cycle * 5 + pos)[agent]) for pos in range(5)] == perm
    single = BlockSchedule.shuffled_cycle(3, 1, seed=8)
    assert {b for t in range(20) for b in select_block(single, t).tolist()} == {0}


def test_select_block_deterministic():
    sched = BlockSchedule.shuffled_cycle(5, 6, seed=3)
    a = [select_block(sched, t).tolist() for t in range(30)]
    b = [select_block(sched, t).tolist() for t in range(30)]
    assert a == b


def test_select_block_rejects_negative_iteration():
    with pytest.raises(ValueError, match="nonnegative"):
        select_block(BlockSchedule.shuffled_cycle(3, 4, 1), -1)


@pytest.mark.parametrize("n_agents", [1, 3, 50])
@pytest.mark.parametrize("n_blocks", [1, 2, 5, 50])
def test_batched_picks_match_the_per_agent_picks(n_agents, n_blocks):
    """Every agent's pick at every t over three cycles equals the per-agent
    reference, for round_robin and several shuffled_cycle seeds."""
    schedules = [BlockSchedule.round_robin(n_agents, n_blocks)]
    schedules += [BlockSchedule.shuffled_cycle(n_agents, n_blocks, seed) for seed in (0, 1, 977)]
    for sched in schedules:
        for t in range(3 * n_blocks):
            picks = select_block(sched, t)
            assert picks.shape == (n_agents,) and picks.dtype.kind == "i"
            assert picks.tolist() == [loop_select_block(sched, i, t) for i in range(n_agents)]


@pytest.mark.parametrize("kind", ["round_robin", "shuffled_cycle"])
def test_every_window_of_period_length_covers_all_blocks(kind):
    """Every agent picks every block within any window of ``covering_period`` picks,
    so each block's union graph over the window is the whole base graph,
    which ``resolve_graph`` guarantees to be strongly connected."""
    n_agents = 5
    graph = build_graph(n_agents, "random", 4)
    base = np.eye(n_agents, dtype=bool)
    for j in range(n_agents):
        base[sorted(out_neighbors(graph, j)), j] = True
    for n_blocks in (1, 2, 3, 7):
        if kind == "round_robin":
            schedules = [BlockSchedule.round_robin(n_agents, n_blocks)]
        else:
            schedules = [BlockSchedule.shuffled_cycle(n_agents, n_blocks, seed) for seed in range(3)]
        for sched in schedules:
            period = covering_period(sched)
            horizon = 10 * n_blocks + period
            picks = np.array([select_block(sched, t) for t in range(horizon)])
            support = np.stack(
                [build_all_weights(graph, sel, n_blocks) != 0 for sel in picks]
            )
            for start in range(horizon - period + 1):
                window = slice(start, start + period)
                for agent in range(n_agents):
                    assert set(picks[window, agent].tolist()) == set(range(n_blocks))
                assert np.all(support[window].any(axis=0) == base)


def test_schedule_rejects_no_agents_or_no_blocks():
    for n_agents, n_blocks in ((5, 0), (0, 3)):
        with pytest.raises(ValueError):
            BlockSchedule.round_robin(n_agents, n_blocks)
        with pytest.raises(ValueError):
            BlockSchedule.shuffled_cycle(n_agents, n_blocks, seed=1)


def test_selection_counts_partition_agents():
    sched = BlockSchedule.shuffled_cycle(7, 3, seed=2)
    for t in range(10):
        sel = select_block(sched, t).tolist()
        assert sum(sel.count(block) for block in range(3)) == 7


# ---------------------------------------------------------------- induced graphs

def induced_edges(weights):
    """Edges (j, i) that carry a block: the off-diagonal support of its weights."""
    rows, cols = np.nonzero(weights)
    return frozenset((int(j), int(i)) for i, j in zip(rows, cols) if i != j)


def test_induce_block_graph_all_and_none():
    g = complete_graph(3)
    weights = build_all_weights(g, [1, 1, 1], 2)
    assert induced_edges(weights[1]) == edge_set(g)
    assert induced_edges(weights[0]) == frozenset()


def test_induce_block_graph_single_sender():
    g = complete_graph(3)
    # only agent 1 picks the block: exactly its outgoing edges survive
    assert induced_edges(build_all_weights(g, [0, 1, 0], 2)[1]) == frozenset({(1, 0), (1, 2)})


def test_induced_sequences_are_subsets_of_base_edges():
    g = erdos_renyi_symmetric(5, 0.7, seed=8)
    sched = BlockSchedule.shuffled_cycle(5, 2, seed=1)
    for t in range(6):
        for w in build_all_weights(g, select_block(sched, t), 2):
            assert w.shape == (5, 5)
            assert induced_edges(w) <= edge_set(g)


# ---------------------------------------------------------------- weights

def test_build_weights_complete_all_selected():
    g = complete_graph(3)
    w = build_all_weights(g, [0, 0, 0], 1)[0]
    np.testing.assert_allclose(w, np.full((3, 3), 1.0 / 3.0))


def test_build_weights_unselected_column_is_basis_vector():
    g = complete_graph(3)
    w = build_all_weights(g, [0, 1, 0], 2)[0]
    np.testing.assert_array_equal(w[:, 1], [0.0, 1.0, 0.0])


def test_build_weights_column_sums():
    rng = np.random.default_rng(4)
    g = erdos_renyi_symmetric(8, 0.5, seed=13)
    floor = 1.0 / (max(len(out_neighbors(g, j)) for j in range(8)) + 1)
    for t in range(5):
        sel = [int(s) for s in rng.integers(0, 3, size=8)]
        for w in build_all_weights(g, sel, 3):
            np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
            assert np.all(w >= 0) and np.all(w[w != 0] >= floor)


def test_build_weights_sparsity_pattern_and_floor():
    g = directed_cycle(4)  # every out-degree 1
    sel = [0, 1, 0, 1]
    w = build_all_weights(g, sel, 2)[0]
    floor = 1.0 / (max(len(out_neighbors(g, j)) for j in range(4)) + 1)
    assert floor == pytest.approx(0.5)
    for j in range(4):
        col = w[:, j]
        if sel[j] == 0:
            support = {j} | out_neighbors(g, j)
        else:
            support = {j}
        assert set(np.nonzero(col)[0]) == support
        assert np.all(col[col != 0] >= floor)



@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 8),
    st.sampled_from(["random", "cycle", "complete"]),
    st.integers(1, 5),
    st.integers(0, 2**16),
)
@example(3, "complete", 1, 0)  # every agent picks the only block: all entries 1/3
@example(4, "cycle", 2, 5)  # every out-degree 1: entries 1/2 on selected columns
def test_build_all_weights_columns_are_induced_broadcast_columns(n_agents, kind, n_blocks, seed):
    graph = build_graph(n_agents, kind, seed)
    sel = np.random.default_rng(seed).integers(0, n_blocks, size=n_agents)
    weights = build_all_weights(graph, sel, n_blocks)
    assert weights.shape == (n_blocks, n_agents, n_agents)
    floor = 1.0 / (max(len(out_neighbors(graph, j)) for j in range(n_agents)) + 1)
    for block in range(n_blocks):
        w = weights[block]
        np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(w[w != 0] >= floor)
        for j in range(n_agents):
            # the induced edge set: sender j's out-edges iff it picked the block
            support = {j} | out_neighbors(graph, j) if sel[j] == block else {j}
            assert set(np.flatnonzero(w[:, j]).tolist()) == support
            expected = 1.0 / len(support) if sel[j] == block else 1.0
            assert np.all(w[sorted(support), j] == expected)


# ---------------------------------------------------------------- connectivity window

def smallest_window(g, sched, horizon):
    """Smallest T such that every block's union of induced graphs over any T
    consecutive rounds within ``horizon`` is strongly connected, else None."""
    # links[t, block, j, i]: j's message carries the block to i at round t
    links = np.array([
        build_all_weights(g, select_block(sched, t), sched.n_blocks).transpose(0, 2, 1) != 0
        for t in range(horizon)
    ]) & ~np.eye(g.n_agents, dtype=bool)
    for window in range(1, horizon + 1):
        if all(
            is_strongly_connected(DiGraph(links[start : start + window, block].any(axis=0)))
            for block in range(sched.n_blocks)
            for start in range(horizon - window + 1)
        ):
            return window
    return None


def test_window_round_robin_at_most_b():
    g = erdos_renyi_symmetric(6, 0.6, seed=2)
    assert is_strongly_connected(g)
    sched = BlockSchedule.round_robin(6, 3)
    assert smallest_window(g, sched, horizon=12) <= 3


def test_window_single_block_is_one():
    g = directed_cycle(5)
    sched = BlockSchedule.round_robin(5, 1)
    assert smallest_window(g, sched, horizon=4) == 1


def test_window_directed_ring_round_robin_equals_b():
    # with one sender of each block per round on a ring, every agent must
    # send before the union closes the cycle
    g = directed_cycle(4)
    sched = BlockSchedule.round_robin(4, 2)
    assert smallest_window(g, sched, horizon=10) == 2
