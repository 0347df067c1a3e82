import numpy as np
import pytest

from blocksca.blockcomm import (
    BlockLayout,
    BlockSchedule,
    build_weights,
    induce_block_graph,
    induced_edge_sequences,
    select_block,
    selections_at,
    smallest_connectivity_window,
)
from blocksca.errors import BadBlockIndex, HorizonTooShort, IndivisibleBlocks
from blocksca.graph import DiGraph, erdos_renyi_symmetric

from test_graph import complete_graph, directed_cycle


# ---------------------------------------------------------------- layout

def test_uniform_layout():
    layout = BlockLayout.uniform(12, 3)
    assert layout.dims == (4, 4, 4)
    assert layout.n_vars == 12
    assert layout.slice(1) == slice(4, 8)


def test_uniform_layout_rejects_indivisible():
    with pytest.raises(IndivisibleBlocks):
        BlockLayout.uniform(10, 3)


def test_layout_bad_block_index():
    layout = BlockLayout.uniform(6, 2)
    with pytest.raises(BadBlockIndex):
        layout.slice(2)


def test_layout_index_maps_are_inverse():
    rng = np.random.default_rng(1)
    for _ in range(20):
        dims = tuple(int(d) for d in rng.integers(1, 6, size=rng.integers(1, 6)))
        layout = BlockLayout(dims)
        assert layout.bounds[0] == 0 and layout.bounds[-1] == layout.n_vars
        assert layout.coord_blocks.shape == (layout.n_vars,)
        for block in range(layout.n_blocks):
            sl = layout.slice(block)
            assert (sl.start, sl.stop) == layout.bounds[block : block + 2]
            assert np.all(layout.coord_blocks[sl] == block)


# ---------------------------------------------------------------- schedules

def test_round_robin_examples():
    sched = BlockSchedule.round_robin(1, 3, offsets=(0,))
    assert [select_block(sched, 0, t) for t in range(4)] == [0, 1, 2, 0]
    sched2 = BlockSchedule.round_robin(1, 3, offsets=(2,))
    assert select_block(sched2, 0, 0) == 2


def test_shuffled_cycle_one_cycle_is_permutation():
    sched = BlockSchedule.shuffled_cycle(3, 4, seed=9)
    for agent in range(3):
        picks = {select_block(sched, agent, t) for t in range(4)}
        assert picks == {0, 1, 2, 3}


def test_shuffled_cycle_draws_one_seeded_permutation_per_cycle():
    sched = BlockSchedule.shuffled_cycle(4, 5, seed=8)
    for agent in range(4):
        for cycle in range(6):
            perm = np.random.default_rng([8, agent, cycle]).permutation(5).tolist()
            assert [select_block(sched, agent, cycle * 5 + pos) for pos in range(5)] == perm
    single = BlockSchedule.shuffled_cycle(3, 1, seed=8)
    assert {select_block(single, i, t) for i in range(3) for t in range(20)} == {0}


def test_select_block_deterministic():
    sched = BlockSchedule.shuffled_cycle(5, 6, seed=3)
    a = [select_block(sched, i, t) for i in range(5) for t in range(30)]
    b = [select_block(sched, i, t) for i in range(5) for t in range(30)]
    assert a == b


@pytest.mark.parametrize("kind", ["round_robin", "shuffled_cycle"])
def test_every_window_of_period_length_covers_all_blocks(kind):
    rng = np.random.default_rng(11)
    for trial in range(8):
        n_agents = int(rng.integers(1, 6))
        n_blocks = int(rng.integers(1, 7))
        if kind == "round_robin":
            offsets = tuple(int(o) for o in rng.integers(0, n_blocks, size=n_agents))
            sched = BlockSchedule.round_robin(n_agents, n_blocks, offsets)
        else:
            sched = BlockSchedule.shuffled_cycle(n_agents, n_blocks, seed=trial)
        for start in rng.integers(0, 50, size=6):
            for agent in range(n_agents):
                window = {
                    select_block(sched, agent, int(start) + s) for s in range(sched.period)
                }
                assert window == set(range(n_blocks))


def test_selection_counts_partition_agents():
    sched = BlockSchedule.shuffled_cycle(7, 3, seed=2)
    for t in range(10):
        sel = selections_at(sched, t)
        assert sum(sel.count(block) for block in range(3)) == 7


# ---------------------------------------------------------------- induced graphs

def test_induce_block_graph_all_and_none():
    g = complete_graph(3)
    assert induce_block_graph(g, [1, 1, 1], 1) == g.edges
    assert induce_block_graph(g, [0, 0, 0], 1) == frozenset()


def test_induce_block_graph_single_sender():
    g = complete_graph(3)
    # only agent 1 picks the block: exactly its outgoing edges survive
    assert induce_block_graph(g, [0, 1, 0], 1) == frozenset({(1, 0), (1, 2)})


# ---------------------------------------------------------------- weights

def test_build_weights_complete_all_selected():
    g = complete_graph(3)
    w = build_weights(g, [0, 0, 0], 0)
    np.testing.assert_allclose(w.matrix, np.full((3, 3), 1.0 / 3.0))


def test_build_weights_unselected_column_is_basis_vector():
    g = complete_graph(3)
    w = build_weights(g, [0, 1, 0], 0)
    np.testing.assert_array_equal(w.matrix[:, 1], [0.0, 1.0, 0.0])


def test_build_weights_column_sums():
    rng = np.random.default_rng(4)
    g = erdos_renyi_symmetric(8, 0.5, seed=13)
    for t in range(5):
        sel = [int(s) for s in rng.integers(0, 3, size=8)]
        for block in range(3):
            w = build_weights(g, sel, block)
            np.testing.assert_allclose(w.matrix.sum(axis=0), 1.0, atol=1e-12)
            w.validate()


def test_build_weights_sparsity_pattern_and_floor():
    g = directed_cycle(4)  # every out-degree 1
    sel = [0, 1, 0, 1]
    w = build_weights(g, sel, 0)
    assert w.theta_floor == pytest.approx(0.5)
    for j in range(4):
        col = w.matrix[:, j]
        if sel[j] == 0:
            support = {j} | set(g.out_neighbors(j))
        else:
            support = {j}
        assert set(np.nonzero(col)[0]) == support
        assert np.all(col[col != 0] >= w.theta_floor)


# ---------------------------------------------------------------- connectivity window

def test_window_round_robin_at_most_b():
    g = erdos_renyi_symmetric(6, 0.6, seed=2)
    sched = BlockSchedule.round_robin(6, 3)
    t = smallest_connectivity_window(g, sched, horizon=12)
    assert t <= 3


def test_window_single_block_is_one():
    g = directed_cycle(5)
    sched = BlockSchedule.round_robin(5, 1)
    assert smallest_connectivity_window(g, sched, horizon=4) == 1


def test_window_directed_ring_round_robin_equals_b():
    # with one sender of each block per round on a ring, every agent must
    # send before the union closes the cycle
    g = directed_cycle(4)
    sched = BlockSchedule.round_robin(4, 2)
    assert smallest_connectivity_window(g, sched, horizon=10) == 2


def test_window_disconnected_fails():
    g = DiGraph(4, frozenset({(0, 1), (1, 0)}))
    sched = BlockSchedule.round_robin(4, 2)
    with pytest.raises(HorizonTooShort):
        smallest_connectivity_window(g, sched, horizon=8)


def test_induced_sequences_are_subsets_of_base_edges():
    g = erdos_renyi_symmetric(5, 0.7, seed=8)
    sched = BlockSchedule.shuffled_cycle(5, 2, seed=1)
    for seq in induced_edge_sequences(g, sched, horizon=6):
        assert seq.n_agents == 5
        for edge_set in seq.edge_sets:
            assert edge_set <= g.edges
