import numpy as np
import pytest

from blocksca.blockcomm import (
    BlockLayout,
    BlockSchedule,
    build_all_weights,
    select_block,
    selections_at,
)
from blocksca.errors import DimensionMismatch, NonPositivePhi
from blocksca.graph import erdos_renyi_symmetric
from blocksca.tracking import TrackerState, consensus_round, refresh_signal, tracking_round

from test_graph import complete_graph, directed_cycle


def run_consensus(graph, schedule, state, rounds):
    for t in range(rounds):
        weights = build_all_weights(graph, selections_at(schedule, t), state.layout.n_blocks)
        state = consensus_round(state, weights)
    return state


def run_tracking(graph, schedule, state, signal_fn, rounds):
    """Drive the tracker: at round t each agent acquires its next selected
    block of signal_fn(agent, t + 1)."""
    n = state.n_agents
    for t in range(rounds):
        weights = build_all_weights(graph, selections_at(schedule, t), state.layout.n_blocks)
        nxt = state
        for i in range(n):
            block = select_block(schedule, i, t + 1)
            sl = state.layout.slice(block)
            nxt = refresh_signal(nxt, i, block, signal_fn(i, t + 1)[sl])
        state = tracking_round(state, weights, nxt.signal)
    return state


# ---------------------------------------------------------------- signal refresh

def test_refresh_signal_idempotent():
    layout = BlockLayout.uniform(4, 2)
    state = TrackerState.from_signal(layout, np.arange(12.0).reshape(3, 4))
    once = refresh_signal(state, 1, 0, np.array([9.0, 9.0]))
    twice = refresh_signal(once, 1, 0, np.array([9.0, 9.0]))
    np.testing.assert_array_equal(once.signal, twice.signal)


def test_refresh_signal_leaves_other_blocks_alone():
    layout = BlockLayout.uniform(4, 2)
    state = TrackerState.from_signal(layout, np.arange(8.0).reshape(2, 4))
    out = refresh_signal(state, 0, 0, np.array([-1.0, -2.0]))
    np.testing.assert_array_equal(out.signal[0, 2:], state.signal[0, 2:])
    np.testing.assert_array_equal(out.signal[1], state.signal[1])


def test_refresh_full_cycle_replaces_whole_signal():
    layout = BlockLayout.uniform(6, 3)
    state = TrackerState.from_signal(layout, np.zeros((2, 6)))
    target = np.arange(12.0).reshape(2, 6)
    for i in range(2):
        for block in range(3):
            state = refresh_signal(state, i, block, target[i, layout.slice(block)])
    np.testing.assert_array_equal(state.signal, target)


def test_refresh_signal_dimension_mismatch():
    layout = BlockLayout.uniform(4, 2)
    state = TrackerState.from_signal(layout, np.zeros((2, 4)))
    with pytest.raises(DimensionMismatch):
        refresh_signal(state, 0, 0, np.array([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------- tracking

def test_single_agent_tracks_signal_exactly():
    from blocksca.graph import DiGraph

    layout = BlockLayout.uniform(3, 1)
    g = DiGraph(1, frozenset())
    sched = BlockSchedule.round_robin(1, 1)
    state = TrackerState.from_signal(layout, np.array([[1.0, -2.0, 0.5]]))
    sig = lambda i, t: np.array([np.sin(t), np.cos(t), float(t)])
    state = run_tracking(g, sched, state, sig, rounds=7)
    np.testing.assert_allclose(state.x[0], sig(0, 7), rtol=0, atol=1e-14)


def test_constant_signal_converges_to_mean_complete_graph():
    layout = BlockLayout.uniform(2, 1)
    g = complete_graph(3)
    sched = BlockSchedule.round_robin(3, 1)
    u0 = np.array([[1.0, 4.0], [2.0, -1.0], [6.0, 0.5]])
    state = TrackerState.from_signal(layout, u0)
    state = run_tracking(g, sched, state, lambda i, t: u0[i], rounds=80)
    mean = u0.mean(axis=0)
    for i in range(3):
        np.testing.assert_allclose(state.x[i], mean, atol=1e-8)


def test_mass_conservation_every_round():
    rng = np.random.default_rng(3)
    layout = BlockLayout.uniform(6, 3)
    g = erdos_renyi_symmetric(5, 0.6, seed=21)
    sched = BlockSchedule.shuffled_cycle(5, 3, seed=4)
    signals = {(i, t): rng.standard_normal(6) for i in range(5) for t in range(41)}
    state = TrackerState.from_signal(layout, np.stack([signals[i, 0] for i in range(5)]))
    for t in range(40):
        weights = build_all_weights(g, selections_at(sched, t), 3)
        nxt = state
        for i in range(5):
            block = select_block(sched, i, t + 1)
            nxt = refresh_signal(nxt, i, block, signals[i, t + 1][layout.slice(block)])
        state = tracking_round(state, weights, nxt.signal)
        np.testing.assert_allclose(state.mass.sum(axis=0), 5.0, rtol=1e-12)
        for block in range(3):
            sl = layout.slice(block)
            weighted = (state.mass[:, block : block + 1] * state.x[:, sl]).sum(axis=0)
            np.testing.assert_allclose(weighted, state.signal[:, sl].sum(axis=0), rtol=1e-9, atol=1e-12)
        assert np.all(state.mass > 0)


def test_tracking_converges_for_convergent_signals():
    layout = BlockLayout.uniform(4, 2)
    g = directed_cycle(5)
    sched = BlockSchedule.round_robin(5, 2)
    rng = np.random.default_rng(8)
    c = rng.standard_normal((5, 4))
    eps = rng.standard_normal((5, 4))
    sig = lambda i, t: c[i] + 0.5**t * eps[i]
    state = TrackerState.from_signal(layout, np.stack([sig(i, 0) for i in range(5)]))
    state = run_tracking(g, sched, state, sig, rounds=300)
    np.testing.assert_allclose(state.x, np.tile(c.mean(axis=0), (5, 1)), atol=1e-6)


# ---------------------------------------------------------------- consensus

def test_consensus_fixed_point_when_already_agreed():
    layout = BlockLayout.uniform(2, 1)
    g = complete_graph(4)
    x0 = np.tile(np.array([3.0, -1.0]), (4, 1))
    state = TrackerState.from_signal(layout, x0)
    out = consensus_round(state, build_all_weights(g, [0, 0, 0, 0], 1))
    np.testing.assert_allclose(out.x, x0, atol=1e-15)
    np.testing.assert_allclose(out.mass, 1.0, atol=1e-15)


def test_consensus_two_agents_converges_to_average():
    layout = BlockLayout.uniform(1, 1)
    g = complete_graph(2)
    sched = BlockSchedule.round_robin(2, 1)
    state = TrackerState.from_signal(layout, np.array([[0.0], [2.0]]))
    state = run_consensus(g, sched, state, rounds=60)
    np.testing.assert_allclose(state.x, 1.0, atol=1e-10)


def test_consensus_directed_ring_two_blocks_blockwise_average():
    layout = BlockLayout.uniform(4, 2)
    g = directed_cycle(5)
    sched = BlockSchedule.round_robin(5, 2)
    rng = np.random.default_rng(12)
    x0 = rng.standard_normal((5, 4))
    state = TrackerState.from_signal(layout, x0)
    state = run_consensus(g, sched, state, rounds=1200)
    np.testing.assert_allclose(state.x, np.tile(x0.mean(axis=0), (5, 1)), atol=1e-8)


def test_consensus_bit_identical_to_tracking_with_stale_signal():
    layout = BlockLayout.uniform(4, 2)
    g = erdos_renyi_symmetric(6, 0.5, seed=17)
    sched = BlockSchedule.round_robin(6, 2)
    rng = np.random.default_rng(5)
    state = TrackerState.from_signal(layout, rng.standard_normal((6, 4)))
    weights = build_all_weights(g, selections_at(sched, 0), 2)
    by_consensus = consensus_round(state, weights)
    by_tracking = tracking_round(state, weights, state.signal)
    assert np.array_equal(by_consensus.x, by_tracking.x)
    assert np.array_equal(by_consensus.mass, by_tracking.mass)


def test_permutation_equivariance():
    layout = BlockLayout.uniform(2, 2)
    g = erdos_renyi_symmetric(5, 0.7, seed=30)
    sel = [0, 1, 0, 1, 0]
    weights = build_all_weights(g, sel, 2)
    rng = np.random.default_rng(6)
    x0 = rng.standard_normal((5, 2))
    state = TrackerState.from_signal(layout, x0)
    out = consensus_round(state, weights)

    perm = np.array([2, 0, 4, 1, 3])  # new index of each agent
    p = np.zeros((5, 5))
    for old, new in enumerate(perm):
        p[new, old] = 1.0
    permuted_weights = p @ weights @ p.T
    state_p = TrackerState.from_signal(layout, p @ x0)
    out_p = consensus_round(state_p, permuted_weights)
    np.testing.assert_allclose(out_p.x, p @ out.x, atol=1e-14)
    np.testing.assert_allclose(out_p.mass, p @ out.mass, atol=1e-14)


def test_non_positive_phi_raises():
    layout = BlockLayout.uniform(1, 1)
    state = TrackerState.from_signal(layout, np.array([[1.0], [2.0]]))
    broken = np.zeros((1, 2, 2))
    with pytest.raises(NonPositivePhi):
        consensus_round(state, broken)
