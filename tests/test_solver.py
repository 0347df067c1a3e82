import numpy as np
import pytest

import blocksca.solver
from blocksca.blockcomm import BlockSchedule, build_all_weights, select_block
from blocksca.errors import (DimensionMismatch, DivergentSchedule, IndivisibleBlocks,
                             NonFiniteIterate, NonPositiveTau)
from blocksca.graph import DiGraph
from blocksca.objective import (
    DCRegularizer,
    ProblemInstance,
    block_gradient,
    full_gradient,
    generate_instance,
    soft_threshold,
    solve_block_subproblem,
)
from blocksca.solver import (
    StepSizeSchedule,
    disagreement,
    init_solver_state,
    local_optimization,
    run_block_sca,
    run_gradient_push,
    solver_round,
    stationarity_gap,
)
from blocksca.tracking import push_sum_mix, tracking_payload

from loop_reference import stacked_dt_r, step_sizes
from test_graph import complete_graph, directed_cycle


def desk_instance(seed=5, n_agents=6, m=8, n=12, noise=0.2):
    reg = DCRegularizer("log", 0.1, 10.0)
    return generate_instance(n_agents, m, n, 0.5, noise, 10.0, seed, reg=reg)


def run_rounds(inst, graph, schedule, rounds, gamma0=0.1, mu=1e-4, tau=1.0):
    state = init_solver_state(inst, schedule, None)
    gamma = gamma0
    for t in range(rounds):
        state = solver_round(state, inst, schedule, graph, gamma, t, tau, None)
        gamma = gamma * (1.0 - mu * gamma)
    return state


# ---------------------------------------------------------------- step sizes

def gamma_column(steps, t_max):
    """The gamma column of a gradient-push run capped at t_max rounds on a
    two-agent instance."""
    inst, _ = desk_instance(n_agents=2, m=2, n=3)
    return np.array(run_gradient_push(inst, complete_graph(2), steps, 0.0, t_max).gamma)


def test_step_size_first_value():
    gamma = gamma_column(StepSizeSchedule(0.1, 1e-4), 1)
    assert gamma[0] == 0.1
    assert gamma[1] == pytest.approx(0.0999990, abs=1e-7)


def test_step_size_monotone_and_ratio_bound():
    steps = StepSizeSchedule(0.1, 1e-4)
    seq = gamma_column(steps, 5000)
    assert len(seq) == 5001
    assert np.all(np.diff(seq) < 0)
    ratio_bound = 1.0 / (1.0 - steps.mu * steps.gamma0)
    np.testing.assert_array_less(seq[:-1] / seq[1:], ratio_bound * (1 + 1e-12))


def test_step_size_at_matches_sequence():
    steps = StepSizeSchedule(0.5, 1e-3)
    seq = step_sizes(steps, 40)
    assert np.array_equal(gamma_column(steps, 40), seq)
    inst, _ = desk_instance()
    sched = BlockSchedule.shuffled_cycle(inst.n_agents, 3, 2)
    trace = run_block_sca(inst, complete_graph(inst.n_agents), sched, steps, 1.0, 0.0, 40)
    assert np.array_equal(trace.gamma, seq)


def test_step_size_rejects_divergent_parameters():
    with pytest.raises(DivergentSchedule):
        StepSizeSchedule(1.0, 1.0)
    with pytest.raises(ValueError):
        StepSizeSchedule(0.0, 1e-4)
    with pytest.raises(ValueError):
        StepSizeSchedule(0.1, 0.0)


def test_step_size_rejects_nan_mu():
    with pytest.raises(ValueError, match="mu must be > 0, got nan"):
        StepSizeSchedule(0.1, float("nan"))


# ---------------------------------------------------------------- local step

def test_local_optimization_zero_gamma_freezes_broadcast_block():
    inst, _ = desk_instance()
    sched = BlockSchedule.round_robin(inst.n_agents, 3)
    state = init_solver_state(inst, sched, None)
    v = local_optimization(state, inst, tau=1.0, gamma=0.0)
    np.testing.assert_array_equal(v, state.x)


def test_local_optimization_matches_independent_formula_evaluation():
    # two agents, two 1-d blocks, hand-set state; the oracle evaluates the
    # per-iteration formulas from scratch with a candidate-point argmin
    reg = DCRegularizer("log", 0.2, 10.0)
    d1 = np.array([[0.6, 0.8]])
    d2 = np.array([[1.0, 0.0]])
    inst = ProblemInstance((d1, d2), (np.array([0.3]), np.array([-0.4])), 2.0, reg)
    sched = BlockSchedule.round_robin(2, 2)
    state = init_solver_state(inst, sched, None, x0=np.array([[0.5, -1.0], [1.5, 0.25]]))
    state.tracker[0] = np.array([0.7, -0.3])
    state.tracker[1] = np.array([-0.2, 0.9])
    gamma, tau = 0.25, 1.7
    # the block minimizer is the full step, gamma = 1
    x_tilde = local_optimization(state, inst, tau, 1.0)
    v = local_optimization(state, inst, tau, gamma)

    for i in (0, 1):
        x_i, block = state.x[i], int(state.blocks[i])
        sl = slice(block, block + 1)

        # oracle: assemble the scalar model and minimize over candidates
        grad_f = 2.0 * d1[0][sl] * (d1[0] @ x_i - 0.3) if i == 0 else \
                 2.0 * d2[0][sl] * (d2[0] @ x_i + 0.4)
        pi = 2 * state.tracker[i, sl] - grad_f
        lin = grad_f + pi - reg.weight * reg.smooth_grad(x_i[sl])
        level = reg.weight * reg.slope
        z = float(x_i[sl][0])
        c = float(lin[0])

        def model(x):
            return level * abs(x) + c * (x - z) + 0.5 * tau * (x - z) ** 2

        candidates = [z - (c + level) / tau, z - (c - level) / tau, 0.0, -2.0, 2.0]
        candidates = [min(max(x, -2.0), 2.0) for x in candidates]
        best = min(candidates, key=model)
        assert x_tilde[i, sl][0] == pytest.approx(best, abs=1e-12)
        assert v[i, sl][0] == pytest.approx(z + gamma * (best - z), abs=1e-12)
        other = slice(1 - block, 2 - block)
        assert np.array_equal(x_tilde[i, other], x_i[other])
        assert np.array_equal(v[i, other], x_i[other])


def test_single_agent_equals_centralized_proximal_descent():
    # one agent, one block: the tracker stays equal to the cached gradient,
    # so the update must coincide with centralized proximal-linear descent
    reg = DCRegularizer("log", 0.1, 10.0)
    inst, _ = generate_instance(1, 6, 4, 0.5, 0.1, 10.0, seed=3, reg=reg)
    g = DiGraph(np.zeros((1, 1), dtype=bool))
    sched = BlockSchedule.round_robin(1, 1)
    gamma, tau = 0.3, 2.0

    state = init_solver_state(inst, sched, None)
    x_ref = np.zeros(4)
    for t in range(25):
        state = solver_round(state, inst, sched, g, gamma, t, tau, None)
        grad = full_gradient(inst, 0, x_ref, 1)
        coef = grad - inst.reg.weight * inst.reg.smooth_grad(x_ref)
        box = inst.box_halfwidth
        x_tilde = solve_block_subproblem(coef, x_ref, tau, inst.reg.l1_level, -box, box)
        x_ref = x_ref + gamma * (x_tilde - x_ref)
        np.testing.assert_allclose(state.x[0], x_ref, atol=1e-13)


# ---------------------------------------------------------------- rounds

def test_round_single_block_matches_tracking_module_bit_for_bit():
    inst, _ = desk_instance(n=12)
    g = complete_graph(inst.n_agents)
    sched = BlockSchedule.round_robin(inst.n_agents, 1)
    state = init_solver_state(inst, sched, None)
    gamma, tau = 0.2, 1.5
    nxt = solver_round(state, inst, sched, g, gamma, 0, tau, None)

    # replay the phase-2 tracking update through the tracking module
    weights = build_all_weights(g, select_block(sched, 0), 1)
    payload = tracking_payload(state.tracker, state.mass, state.grad_cache, nxt.grad_cache)
    mass, tracker = push_sum_mix(weights, state.mass, payload)
    assert np.array_equal(tracker, nxt.tracker)
    assert np.array_equal(mass, nxt.mass)


def test_identical_agents_stay_identical_on_complete_graph(monkeypatch):
    reg = DCRegularizer("log", 0.1, 10.0)
    rng = np.random.default_rng(9)
    d = rng.standard_normal((5, 6))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    b = rng.standard_normal(5)
    n_agents = 4
    inst = ProblemInstance((d,) * n_agents, (b,) * n_agents, 10.0, reg)
    g = complete_graph(n_agents)
    sched = BlockSchedule.round_robin(n_agents, 2)
    # every agent on the same block at every round
    monkeypatch.setattr(blocksca.solver, "select_block", lambda schedule, t: np.full(n_agents, t % 2))
    state = init_solver_state(inst, sched, None)
    gamma = 0.1
    for t in range(30):
        state = solver_round(state, inst, sched, g, gamma, t, 1.0, None)
        for i in range(1, n_agents):
            assert np.array_equal(state.x[i], state.x[0])
            assert np.array_equal(state.tracker[i], state.tracker[0])


def test_mass_conservation_and_feasibility_along_run():
    inst, _ = desk_instance(seed=21, n_agents=5, n=12)
    from blocksca.graph import erdos_renyi_symmetric, is_strongly_connected

    g = erdos_renyi_symmetric(5, 0.7, seed=2)
    assert is_strongly_connected(g)
    sched = BlockSchedule.shuffled_cycle(5, 3, seed=6)
    state = init_solver_state(inst, sched, None)
    gamma = 0.1
    for t in range(1000):
        state = solver_round(state, inst, sched, g, gamma, t, 1.0, None)
        gamma *= 1 - 1e-4 * gamma
        np.testing.assert_allclose(state.mass.sum(axis=0), 5.0, rtol=1e-9)
        for block in range(3):
            sl = slice(4 * block, 4 * block + 4)
            lhs = (state.mass[:, block : block + 1] * state.tracker[:, sl]).sum(axis=0)
            rhs = state.grad_cache[:, sl].sum(axis=0)
            scale = 1.0 + np.max(np.abs(rhs))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale
        assert np.all(np.abs(state.x) <= inst.box_halfwidth)


def test_tracker_converges_to_average_gradient_when_frozen():
    inst, _ = desk_instance(seed=30, n_agents=5, n=12)
    from blocksca.graph import erdos_renyi_symmetric

    g = erdos_renyi_symmetric(5, 0.8, seed=4)
    sched = BlockSchedule.round_robin(5, 2)
    state = init_solver_state(inst, sched, None)
    target = full_gradient(inst, slice(None), state.x, 2).mean(axis=0)
    for t in range(250):
        state = solver_round(state, inst, sched, g, 0.0, t, 1.0, None)
    assert np.max(np.abs(state.tracker - target)) <= 1e-6


# ---------------------------------------------------------------- metrics

def test_stationarity_gap_zero_cases():
    inst, gt = desk_instance(seed=40, noise=0.0)
    # unregularized noiseless instance: planted signal is interior stationary
    free = ProblemInstance(inst.D, inst.b, inst.box_halfwidth, DCRegularizer("l1", 0.0))
    assert stationarity_gap(free, gt.x0, stacked_dt_r(free, gt.x0)) <= 1e-12


def test_stationarity_gap_zero_at_prox_fixed_point():
    inst, _ = desk_instance(seed=41)
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, inst.n_vars)
    D, b = inst.stacked_D, inst.stacked_b
    for _ in range(4000):  # unit-step proximal gradient iteration
        smooth = 2.0 * (D.T @ (D @ x - b)) - inst.reg.weight * inst.reg.smooth_grad(x)
        x_new = inst.project_box(soft_threshold(x - 0.05 * smooth, 0.05 * inst.reg.l1_level))
        x = x_new
    # x is near a fixed point of the damped map; evaluate the residual of the
    # unit-step map at the limit of the damped iteration only loosely
    assert stationarity_gap(inst, x, stacked_dt_r(inst, x)) <= 1e-4


def test_stationarity_gap_matches_independent_reimplementation():
    import math

    inst, _ = desk_instance(seed=42, n=10)
    rng = np.random.default_rng(2)
    x = rng.uniform(-2, 2, 10)

    # plain-python re-implementation, separate code path
    grad = [0.0] * 10
    for i in range(inst.n_agents):
        r = [float(inst.D[i][row] @ x - inst.b[i][row]) for row in range(inst.D[i].shape[0])]
        for k in range(10):
            grad[k] += 2.0 * sum(inst.D[i][row][k] * r[row] for row in range(len(r)))
    worst = 0.0
    for k in range(10):
        xk = float(x[k])
        s = math.copysign(1.0, xk) if xk != 0 else 0.0
        smooth_part_grad = (
            s * inst.reg.theta**2 * abs(xk)
            / (math.log1p(inst.reg.theta) * (1 + inst.reg.theta * abs(xk)))
        )
        w = xk - (grad[k] - inst.reg.weight * smooth_part_grad)
        thr = math.copysign(max(abs(w) - inst.reg.l1_level, 0.0), w)
        proj = min(max(thr, -inst.box_halfwidth), inst.box_halfwidth)
        worst = max(worst, abs(xk - proj))
    assert stationarity_gap(inst, x, stacked_dt_r(inst, x)) == pytest.approx(worst, rel=1e-12)


def test_disagreement_examples():
    x = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
    assert disagreement(x, x.mean(axis=0)) == 0.0
    two = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert disagreement(two, two.mean(axis=0)) == pytest.approx(0.5)
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((5, 7))
    perm = rng.permutation(7)
    shuffled = xs[:, perm]
    assert disagreement(shuffled, shuffled.mean(axis=0)) == pytest.approx(
        disagreement(xs, xs.mean(axis=0)), rel=1e-12
    )


# ---------------------------------------------------------------- drivers

def test_run_block_sca_is_deterministic():
    inst, _ = desk_instance(seed=50)
    g = complete_graph(inst.n_agents)
    sched = BlockSchedule.shuffled_cycle(inst.n_agents, 3, seed=7)
    steps = StepSizeSchedule(0.1, 1e-4)
    a = run_block_sca(inst, g, sched, steps, 1.0, 1e-3, 300)
    b = run_block_sca(inst, g, sched, steps, 1.0, 1e-3, 300)
    assert a.t_end == b.t_end
    assert a.J == b.J and a.D == b.D and a.U == b.U and a.gamma == b.gamma


def test_run_block_sca_records_strictly_increasing_rows():
    inst, _ = desk_instance(seed=51)
    g = complete_graph(inst.n_agents)
    sched = BlockSchedule.round_robin(inst.n_agents, 3)
    trace = run_block_sca(inst, g, sched, StepSizeSchedule(0.1, 1e-4), 1.0, 1e-3, 400)
    assert trace.t == sorted(set(trace.t))
    assert trace.t_end == trace.t[-1]
    assert trace.J[trace.t_end] < 1e-3
    assert all(j >= 1e-3 for j in trace.J[:-1])


def test_run_communication_accounting():
    inst, _ = desk_instance(seed=52, n=12)  # d = 4 with B = 3
    g = complete_graph(inst.n_agents)
    sched = BlockSchedule.round_robin(inst.n_agents, 3)
    trace = run_block_sca(inst, g, sched, StepSizeSchedule(0.1, 1e-4), 1.0, 0.0, 50)
    per_round = inst.n_agents * (2 * 4 + 2)
    diffs = np.diff(trace.comm)
    assert np.all(diffs == per_round)


def test_baseline_single_agent_is_centralized_projected_subgradient():
    reg = DCRegularizer("log", 0.1, 10.0)
    inst, _ = generate_instance(1, 6, 4, 0.5, 0.1, 10.0, seed=8, reg=reg)
    g = DiGraph(np.zeros((1, 1), dtype=bool))
    steps = StepSizeSchedule(0.1, 1e-4)
    trace = run_gradient_push(inst, g, steps, tol=0.0, t_max=20)

    x = np.zeros(4)
    gamma = 0.1
    js = [stationarity_gap(inst, x, stacked_dt_r(inst, x))]
    for _ in range(20):
        sub = full_gradient(inst, 0, x, 1) + reg.l1_level * np.sign(x) - reg.weight * reg.smooth_grad(x)
        x = inst.project_box(x - gamma * sub)
        gamma *= 1 - 1e-4 * gamma
        js.append(stationarity_gap(inst, x, stacked_dt_r(inst, x)))
    np.testing.assert_allclose(trace.J, js, rtol=1e-12)


def test_baseline_message_volume_is_full_vector():
    inst, _ = desk_instance(seed=53, n=12)
    g = complete_graph(inst.n_agents)
    trace = run_gradient_push(inst, g, StepSizeSchedule(0.1, 1e-4), 0.0, 10)
    diffs = np.diff(trace.comm)
    assert np.all(diffs == inst.n_agents * (12 + 1))
    # block algorithm sends d = n/B per phase instead of the whole vector
    sched = BlockSchedule.round_robin(inst.n_agents, 3)
    tr2 = run_block_sca(inst, g, sched, StepSizeSchedule(0.1, 1e-4), 1.0, 0.0, 10)
    assert np.all(np.diff(tr2.comm) == inst.n_agents * (2 * 4 + 2))


@pytest.mark.parametrize("n_blocks", [1, 2, 4, 6])
def test_block_count_t_norm_and_scalars_sent_follow_the_schedule(n_blocks):
    inst, _ = desk_instance(seed=57, n=12)
    free = ProblemInstance(inst.D, inst.b, inst.box_halfwidth, DCRegularizer("l1", 0.0))
    g = complete_graph(inst.n_agents)
    sched = BlockSchedule.round_robin(inst.n_agents, n_blocks)
    trace = run_block_sca(free, g, sched, StepSizeSchedule(0.1, 1e-4), 1.0, 0.0, 3 * n_blocks)
    assert trace.t_norm == [t / n_blocks for t in trace.t]
    assert np.all(np.diff(trace.comm) == inst.n_agents * (2 * 12 // n_blocks + 2))
    # within B round-robin rounds every agent has stepped every block away from 0
    state = run_rounds(free, g, sched, n_blocks)
    assert state.mass.shape == (inst.n_agents, n_blocks)
    assert np.all(state.x != 0.0)


@pytest.mark.parametrize("n_blocks", [5, 24])
def test_schedule_that_does_not_split_n_vars_raises_before_round_zero(n_blocks, monkeypatch):
    inst, _ = desk_instance(seed=58, n=12)
    monkeypatch.setattr(blocksca.solver, "solver_round", lambda *a: pytest.fail("a round ran"))
    sched = BlockSchedule.shuffled_cycle(inst.n_agents, n_blocks, seed=1)
    with pytest.raises(IndivisibleBlocks, match=f"12 variables cannot split into {n_blocks} blocks"):
        run_block_sca(inst, complete_graph(inst.n_agents), sched, StepSizeSchedule(0.1, 1e-4),
                      1.0, 1e-3, 50)


@pytest.mark.parametrize("schedule_agents,graph_agents,message", [
    (3, 6, "BlockSchedule has 3 agents, the instance 6"),
    (9, 6, "BlockSchedule has 9 agents, the instance 6"),
    (6, 3, "DiGraph has 3 agents, the instance 6"),
])
def test_block_run_with_another_agent_count_raises_before_round_zero(
        schedule_agents, graph_agents, message, monkeypatch):
    inst, _ = desk_instance()
    monkeypatch.setattr(blocksca.solver, "init_solver_state", lambda *a: pytest.fail("set-up ran"))
    sched = BlockSchedule.round_robin(schedule_agents, 3)
    with pytest.raises(DimensionMismatch, match=message):
        run_block_sca(inst, complete_graph(graph_agents), sched, StepSizeSchedule(0.1, 1e-4),
                      1.0, 1e-3, 50)


def test_gradient_push_with_another_agent_count_raises_before_round_zero(monkeypatch):
    inst, _ = desk_instance()
    monkeypatch.setattr(blocksca.solver, "full_gradient", lambda *a: pytest.fail("set-up ran"))
    with pytest.raises(DimensionMismatch, match="DiGraph has 3 agents, the instance 6"):
        run_gradient_push(inst, complete_graph(3), StepSizeSchedule(0.1, 1e-4), 1e-3, 50)


def test_a_nan_tau_raises_non_positive_tau_in_round_zero():
    """Not NonFiniteIterate after a round of NaN steps."""
    inst, _ = desk_instance()
    sched = BlockSchedule.round_robin(inst.n_agents, 3)
    with pytest.raises(NonPositiveTau):
        run_block_sca(inst, complete_graph(inst.n_agents), sched, StepSizeSchedule(0.1, 1e-4),
                      np.nan, 1e-3, 50)


def test_non_finite_iterate_raises_instead_of_running_to_the_cap():
    inst, _ = desk_instance(seed=55)
    g = complete_graph(inst.n_agents)
    sched = BlockSchedule.round_robin(inst.n_agents, 3)
    x0 = np.zeros((inst.n_agents, inst.n_vars))
    x0[2, 5] = np.nan
    steps = StepSizeSchedule(0.1, 1e-4)
    with pytest.raises(NonFiniteIterate, match="at iteration 0"):
        run_block_sca(inst, g, sched, steps, 1.0, 1e-3, 50, x0=x0)
    with pytest.raises(NonFiniteIterate, match="at iteration 0"):
        run_gradient_push(inst, g, steps, 1e-3, 50, x0=x0)


def test_round_on_directed_cycle_conserves_mass_and_tracks():
    inst, _ = desk_instance(seed=56, n_agents=5)
    g = directed_cycle(5)
    sched = BlockSchedule.shuffled_cycle(5, 3, seed=2)
    state = run_rounds(inst, g, sched, 300, tau=5.0)
    np.testing.assert_allclose(state.mass.sum(axis=0), 5.0, rtol=1e-12)
    assert np.all(np.abs(state.x) <= inst.box_halfwidth)


@pytest.mark.parametrize("tau", [
    pytest.param(1.0, marks=pytest.mark.xfail(
        strict=True, reason="default tau oscillates on the directed cycle, J near 10")),
    5.0,
])
def test_block_sca_converges_on_directed_cycle(tau):
    inst, _ = desk_instance(seed=56, n_agents=5)
    sched = BlockSchedule.shuffled_cycle(5, 3, seed=2)
    steps = StepSizeSchedule(0.1, 1e-4)
    trace = run_block_sca(inst, directed_cycle(5), sched, steps, tau, 1e-3, 3000)
    assert trace.t_end is not None


def test_baseline_stationarity_decreases():
    inst, _ = desk_instance(seed=54, n_agents=5)
    from blocksca.graph import erdos_renyi_symmetric

    g = erdos_renyi_symmetric(5, 0.9, seed=2)
    trace = run_gradient_push(inst, g, StepSizeSchedule(0.1, 1e-4), 0.0, 800)
    assert min(trace.J) < 0.25 * trace.J[0]
