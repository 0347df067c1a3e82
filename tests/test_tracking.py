import dataclasses
import threading
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocksca.blockcomm import (
    BlockSchedule,
    build_all_weights,
    select_block,
)
from blocksca.errors import NonFiniteIterate, NonPositivePhi
from blocksca.graph import erdos_renyi_symmetric
from blocksca.objective import DCRegularizer
import blocksca.solver
from blocksca.solver import LANE_MIN_ENTRIES, StepSizeSchedule, run_block_sca
from blocksca.tracking import push_sum_mix, tracking_payload

from loop_reference import mix_one, serial_run_block_sca
from test_graph import complete_graph, directed_cycle
from test_kernel import build_graph
from test_run_loop import LANE_BRANCHES, branch  # noqa: F401 (the fixture)
from test_solver import desk_instance


class Layout(NamedTuple):
    """An n-vector cut into n_blocks contiguous blocks of dim coordinates."""

    n_blocks: int
    dim: int

    @property
    def n_vars(self) -> int:
        return self.n_blocks * self.dim

    def slice(self, block) -> slice:
        return slice(block * self.dim, (block + 1) * self.dim)


def refreshed(signal, schedule, layout, t, signal_fn):
    """Copy of ``signal`` in which each agent's block selected at t holds
    signal_fn(agent, t); its other blocks keep their stale values."""
    out = signal.copy()
    for i, block in enumerate(select_block(schedule, t)):
        sl = layout.slice(block)
        out[i, sl] = signal_fn(i, t)[sl]
    return out


def run_consensus(graph, schedule, layout, x, rounds):
    mass = np.ones((x.shape[0], layout.n_blocks))
    for t in range(rounds):
        weights = build_all_weights(graph, select_block(schedule, t), layout.n_blocks)
        mass, x = push_sum_mix(weights, mass, x)
    return x, mass


def run_tracking(graph, schedule, layout, signal_fn, rounds):
    """Drive the tracker from x = signal(., 0) with unit weights: at round t
    each agent acquires its next selected block of signal_fn(agent, t + 1)."""
    signal = np.stack([signal_fn(i, 0) for i in range(graph.n_agents)])
    x, mass = signal.copy(), np.ones((graph.n_agents, layout.n_blocks))
    for t in range(rounds):
        weights = build_all_weights(graph, select_block(schedule, t), layout.n_blocks)
        signal_next = refreshed(signal, schedule, layout, t + 1, signal_fn)
        payload = tracking_payload(x, mass, signal, signal_next)
        mass, x = push_sum_mix(weights, mass, payload)
        signal = signal_next
    return x, mass


# Random strongly connected digraphs, the directed cycle and the complete
# graph, with (n_blocks, dim) layouts and random positive masses.
networks = st.tuples(
    st.integers(2, 7),
    st.sampled_from(["random", "cycle", "complete"]),
    st.one_of(
        st.sampled_from([(4, 3), (3, 2), (1, 6)]),
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
    ),
    st.integers(0, 2**16),
)


def draw_network(n_agents, kind, blocks, seed):
    """(graph, layout, schedule, rng, initial masses in [0.25, 4])."""
    layout = Layout(*blocks)
    sched = BlockSchedule.shuffled_cycle(n_agents, layout.n_blocks, seed % 100)
    rng = np.random.default_rng(seed)
    mass = rng.uniform(0.25, 4.0, size=(n_agents, layout.n_blocks))
    return build_graph(n_agents, kind, seed), layout, sched, rng, mass


# ---------------------------------------------------------------- tracking

def test_single_agent_tracks_signal_exactly():
    from blocksca.graph import DiGraph

    layout = Layout(1, 3)
    g = DiGraph(np.zeros((1, 1), dtype=bool))
    sched = BlockSchedule.round_robin(1, 1)

    def sig(i, t):
        return np.array([np.sin(t), np.cos(t), float(t)]) if t else np.array([1.0, -2.0, 0.5])

    x, _ = run_tracking(g, sched, layout, sig, rounds=7)
    np.testing.assert_allclose(x[0], sig(0, 7), rtol=0, atol=1e-14)


def test_constant_signal_converges_to_mean_complete_graph():
    layout = Layout(1, 2)
    g = complete_graph(3)
    sched = BlockSchedule.round_robin(3, 1)
    u0 = np.array([[1.0, 4.0], [2.0, -1.0], [6.0, 0.5]])
    x, _ = run_tracking(g, sched, layout, lambda i, t: u0[i], rounds=80)
    mean = u0.mean(axis=0)
    for i in range(3):
        np.testing.assert_allclose(x[i], mean, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(networks)
@example((5, "random", (4, 3), 21))
def test_mass_conservation_every_round(network):
    graph, layout, sched, rng, mass = draw_network(*network)
    n_agents = graph.n_agents
    mass_sums = mass.sum(axis=0)
    signals = rng.standard_normal((41, n_agents, layout.n_vars))
    signal = signals[0]
    # x = signal / phi puts the tracker invariant in force from round 0
    x = signal / np.repeat(mass, layout.dim, axis=1)
    for t in range(40):
        weights = build_all_weights(graph, select_block(sched, t), layout.n_blocks)
        signal_next = refreshed(signal, sched, layout, t + 1, lambda i, s: signals[s, i])
        payload = tracking_payload(x, mass, signal, signal_next)
        mass, x = push_sum_mix(weights, mass, payload)
        signal = signal_next
        np.testing.assert_allclose(mass.sum(axis=0), mass_sums, rtol=1e-12)
        for block in range(layout.n_blocks):
            sl = layout.slice(block)
            weighted = (mass[:, block : block + 1] * x[:, sl]).sum(axis=0)
            np.testing.assert_allclose(weighted, signal[:, sl].sum(axis=0), rtol=1e-9, atol=1e-12)
        assert np.all(mass > 0)


def test_tracking_converges_for_convergent_signals():
    layout = Layout(2, 2)
    g = directed_cycle(5)
    sched = BlockSchedule.round_robin(5, 2)
    rng = np.random.default_rng(8)
    c = rng.standard_normal((5, 4))
    eps = rng.standard_normal((5, 4))
    sig = lambda i, t: c[i] + 0.5**t * eps[i]
    x, _ = run_tracking(g, sched, layout, sig, rounds=300)
    np.testing.assert_allclose(x, np.tile(c.mean(axis=0), (5, 1)), atol=1e-6)


# ---------------------------------------------------------------- consensus

def test_consensus_fixed_point_when_already_agreed():
    g = complete_graph(4)
    x0 = np.tile(np.array([3.0, -1.0]), (4, 1))
    mass, x = push_sum_mix(build_all_weights(g, [0, 0, 0, 0], 1), np.ones((4, 1)), x0)
    np.testing.assert_allclose(x, x0, atol=1e-15)
    np.testing.assert_allclose(mass, 1.0, atol=1e-15)


def test_consensus_two_agents_converges_to_average():
    layout = Layout(1, 1)
    g = complete_graph(2)
    sched = BlockSchedule.round_robin(2, 1)
    x, _ = run_consensus(g, sched, layout, np.array([[0.0], [2.0]]), rounds=60)
    np.testing.assert_allclose(x, 1.0, atol=1e-10)


def test_consensus_directed_ring_two_blocks_blockwise_average():
    layout = Layout(2, 2)
    g = directed_cycle(5)
    sched = BlockSchedule.round_robin(5, 2)
    rng = np.random.default_rng(12)
    x0 = rng.standard_normal((5, 4))
    x, _ = run_consensus(g, sched, layout, x0, rounds=1200)
    np.testing.assert_allclose(x, np.tile(x0.mean(axis=0), (5, 1)), atol=1e-8)


def test_consensus_bit_identical_to_tracking_with_stale_signal():
    g = erdos_renyi_symmetric(6, 0.5, seed=17)
    sched = BlockSchedule.round_robin(6, 2)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 4))
    mass = np.ones((6, 2))
    weights = build_all_weights(g, select_block(sched, 0), 2)
    by_consensus = push_sum_mix(weights, mass, x)
    by_tracking = push_sum_mix(weights, mass, tracking_payload(x, mass, x, x))
    assert np.array_equal(by_consensus[0], by_tracking[0])
    assert np.array_equal(by_consensus[1], by_tracking[1])


@settings(max_examples=40, deadline=None)
@given(networks)
@example((5, "random", (2, 1), 30))
def test_permutation_equivariance(network):
    graph, layout, sched, rng, mass = draw_network(*network)
    n_agents = graph.n_agents
    weights = build_all_weights(graph, select_block(sched, 0), layout.n_blocks)
    x, signal, signal_next = rng.standard_normal((3, n_agents, layout.n_vars))
    payload = tracking_payload(x, mass, signal, signal_next)
    mass_out, x_out = push_sum_mix(weights, mass, payload)

    perm = rng.permutation(n_agents)  # new index of each agent
    p = np.zeros((n_agents, n_agents))
    for old, new in enumerate(perm):
        p[new, old] = 1.0
    payload_p = tracking_payload(p @ x, p @ mass, p @ signal, p @ signal_next)
    mass_p, x_p = push_sum_mix(p @ weights @ p.T, p @ mass, payload_p)
    np.testing.assert_allclose(x_p, p @ x_out, atol=1e-14)
    np.testing.assert_allclose(mass_p, p @ mass_out, atol=1e-14)


def test_non_positive_phi_raises():
    broken = np.zeros((1, 2, 2))
    with pytest.raises(NonPositivePhi):
        push_sum_mix(broken, np.ones((2, 1)), np.array([[1.0], [2.0]]))


@settings(max_examples=20, deadline=None)
@given(networks)
def test_a_given_mass_next_mixes_bit_for_bit(network):
    """A round's second mix reuses the first mix's weights of the same mass."""
    graph, layout, sched, rng, mass = draw_network(*network)
    weights = build_all_weights(graph, select_block(sched, 0), layout.n_blocks)
    payload = rng.standard_normal((graph.n_agents, layout.n_vars))
    mass_next, mixed = push_sum_mix(weights, mass, payload)
    reused, again = push_sum_mix(weights, mass, payload, mass_next)
    assert reused is mass_next and np.array_equal(again, mixed)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.sampled_from(["random", "cycle", "complete"]),
       st.sampled_from([1, 2, 3, 5, 10]), st.integers(1, 4), st.integers(0, 2**16), st.booleans())
@example(50, "random", 10, 50, 3, False)
@example(50, "random", 2, 250, 4, True)
def test_push_sum_mix_equals_a_per_block_mix_bit_for_bit(
    n_agents, kind, n_blocks, dim, seed, given_mass_next
):
    """Every block mixed by ``push_sum_mix``'s stacked matmul, with or without
    a given mass_next, gives the bytes of that block's own push-sum step."""
    graph = build_graph(n_agents, kind, seed)
    rng = np.random.default_rng(seed)
    weights = build_all_weights(graph, rng.integers(0, n_blocks, size=n_agents), n_blocks)
    mass = rng.uniform(0.25, 4.0, size=(n_agents, n_blocks))
    payload = rng.standard_normal((n_agents, n_blocks * dim))
    mass_next, mixed = np.empty_like(mass), np.empty_like(payload)
    for block in range(n_blocks):
        sl = slice(block * dim, (block + 1) * dim)
        mass_next[:, block], mixed[:, sl] = mix_one(weights[block], mass[:, block], payload[:, sl])
    extra = (mass_next.copy(),) if given_mass_next else ()
    got_mass, got = push_sum_mix(weights, mass, payload, *extra)
    assert got_mass.tobytes() == mass_next.tobytes()
    assert got.tobytes() == mixed.tobytes()


@pytest.mark.parametrize("n_blocks", [1, 2, 3, 10])
def test_every_mix_is_one_stacked_matmul_and_only_metric_products_reach_the_worker(
    branch, monkeypatch, n_blocks
):
    """On every branch, each mix of a run's rounds is one np.matmul over all
    B blocks, after the one that mixes the mass when no mass_next is given.
    A run with a worker thread submits one call per round, each one to
    ``metric_products``, and none for its start state; an inline run
    submits nothing."""
    inst, _ = desk_instance(seed=9, n=30)
    matmul, mixes, mixing = np.matmul, [], threading.local()

    def counted(a, *args, **kwargs):  # records how many blocks each mix's call takes
        if getattr(mixing, "calls", None) is not None:
            mixing.calls.append(len(a))
        return matmul(a, *args, **kwargs)

    def mix(weights, mass, payload, mass_next=None):
        mixing.calls = []
        try:
            return push_sum_mix(weights, mass, payload, mass_next)
        finally:
            mixes.append(mixing.calls)
            mixing.calls = None

    submit, submitted = ThreadPoolExecutor.submit, []

    def recorded(pool, call):
        submitted.append(call.args[0])  # the function bound to the context's run
        return submit(pool, call)

    monkeypatch.setattr(np, "matmul", counted)
    monkeypatch.setattr(blocksca.solver, "push_sum_mix", mix)
    monkeypatch.setattr(ThreadPoolExecutor, "submit", recorded)
    schedule = BlockSchedule.shuffled_cycle(inst.n_agents, n_blocks, 4)
    trace = run_block_sca(inst, complete_graph(inst.n_agents), schedule,
                          StepSizeSchedule(0.1, 1e-4), 1.0, 0.0, 5)
    assert mixes == [[n_blocks, n_blocks], [n_blocks]] * 5  # phase 1 mixes the mass too
    per_round = [blocksca.solver.metric_products] if branch in LANE_BRANCHES else []
    assert submitted == per_round * (len(trace.t) - 1)


def warnings_of_overflowing_runs(n_blocks):
    """The warnings of the serial loop and of ``run_block_sca`` when round 0
    steps every block to +-inf: with no l1 term, no box and a subnormal tau,
    coef / tau overflows. The phase-1 mix then meets inf against the cycle's
    zero weights in every block, and the serial loop's one stacked call
    warns once, before J_1 is nan."""
    inst, _ = desk_instance(seed=7)
    inst = dataclasses.replace(inst, box_halfwidth=np.inf, reg=DCRegularizer("log", 0.0))
    graph = directed_cycle(inst.n_agents)
    schedule = BlockSchedule.round_robin(inst.n_agents, n_blocks)  # every block picked
    shown = []
    for fn in (serial_run_block_sca, run_block_sca):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteIterate, match="at iteration 1"):
                fn(inst, graph, schedule, StepSizeSchedule(0.1, 1e-4), 1e-320, 1e-3, 50)
        shown.append([(w.category, str(w.message)) for w in record])
    assert shown[0].count((RuntimeWarning, "invalid value encountered in matmul")) == 1
    return shown


@pytest.mark.parametrize("n_blocks", [2, 3, 6])
def test_an_inline_run_warns_as_often_as_the_serial_loop(n_blocks):
    """Inline, the run warns what the serial loop warns, in its order."""
    assert desk_instance(seed=7)[0].stacked_D.size < LANE_MIN_ENTRIES  # the run goes inline
    serial, run = warnings_of_overflowing_runs(n_blocks)
    assert run == serial


@pytest.mark.parametrize("branch", ["worker"], indirect=True)
@pytest.mark.parametrize("n_blocks", [2, 3, 6])
def test_a_threaded_run_warns_as_often_as_the_serial_loop(branch, n_blocks):
    """With a worker thread, the run warns what the serial loop warns, as
    often; the metric products warn from the worker, so the order may differ."""
    serial, run = warnings_of_overflowing_runs(n_blocks)
    assert Counter(run) == Counter(serial)
