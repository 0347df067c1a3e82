import tracemalloc
import warnings

import numpy as np
import pytest

from blocksca.blockcomm import BlockSchedule
from blocksca.errors import (
    BadBlockIndex,
    BadSparsity,
    DimensionMismatch,
    IndivisibleBlocks,
    NonPositiveTau,
    NonPositiveTheta,
)
from blocksca.graph import erdos_renyi_symmetric
from blocksca.objective import (
    DCRegularizer,
    ProblemInstance,
    block_dim,
    block_gradient,
    full_gradient,
    generate_instance,
    log_penalty_slope,
    objective_value,
    save_instance,
    soft_threshold,
    solve_block_subproblem,
)
from blocksca.solver import StepSizeSchedule, run_block_sca

from loop_reference import load_instance, loop_generate_data, loop_smooth_grad, stacked_residual
from test_graph import complete_graph


N_BLOCKS = 2  # the gradients' block count on make_instance's 8 variables


def make_instance(seed=0, n_agents=3, m=5, n=8, noise=0.3, reg=None):
    reg = reg or DCRegularizer("log", 0.1, 10.0)
    return generate_instance(n_agents, m, n, 0.5, noise, 10.0, seed, reg=reg)


def subproblem_objective(x, coef, anchor, tau, l1_level):
    return l1_level * np.abs(x) + coef * (x - anchor) + 0.5 * tau * (x - anchor) ** 2


def grid_search_1d(coef, anchor, tau, l1_level, lo, hi, coarse=2000, fine_step=1e-5):
    """Grid-search oracle at resolution fine_step.

    The 1-D objective is strictly convex (tau > 0), so the global minimizer
    lies between the coarse-grid neighbors of the coarse argmin; the fine
    grid restricted to that bracket is therefore equivalent to a full grid
    at the same resolution.
    """
    xs = np.linspace(lo, hi, coarse)
    vals = subproblem_objective(xs, coef, anchor, tau, l1_level)
    k = int(np.argmin(vals))
    left = xs[max(k - 1, 0)]
    right = xs[min(k + 1, coarse - 1)]
    fine = np.arange(left, right + fine_step, fine_step)
    fine = np.clip(fine, lo, hi)
    fvals = subproblem_objective(fine, coef, anchor, tau, l1_level)
    j = int(np.argmin(fvals))
    return float(fine[j]), float(fvals[j])


def kkt_residual_1d(x, coef, anchor, tau, l1_level, lo, hi):
    """Distance of 0 from the subdifferential of the subproblem at x,
    accounting for active box constraints."""
    g = coef + tau * (x - anchor)
    if x != 0.0:
        glo = ghi = g + l1_level * np.sign(x)
    else:
        glo, ghi = g - l1_level, g + l1_level
    if x >= hi:
        return max(0.0, glo)
    if x <= lo:
        return max(0.0, -ghi)
    if glo <= 0.0 <= ghi:
        return 0.0
    return min(abs(glo), abs(ghi))


# ---------------------------------------------------------------- penalty

def test_log_penalty_slope_at_ten():
    # 10 / log(11)
    assert log_penalty_slope(10.0) == pytest.approx(4.17032, abs=1e-5)


def test_log_penalty_slope_limit_at_zero():
    assert log_penalty_slope(1e-6) == pytest.approx(1.0, abs=1e-5)


def test_log_penalty_slope_rejects_nonpositive():
    with pytest.raises(NonPositiveTheta):
        log_penalty_slope(0.0)


def test_regularizer_rejects_nan_weight_and_theta():
    with pytest.raises(ValueError, match="weight must be >= 0, got nan"):
        DCRegularizer("log", np.nan)
    with pytest.raises(NonPositiveTheta, match="got nan"):
        DCRegularizer("log", 0.1, np.nan)
    with pytest.raises(NonPositiveTheta, match="got nan"):
        log_penalty_slope(np.nan)


def test_slope_matches_penalty_derivative_at_origin():
    reg = DCRegularizer("log", 1.0, theta=7.0)
    h = 1e-9
    fd = reg.penalty_scalar(h) / h
    assert fd == pytest.approx(reg.slope, rel=1e-6)


def test_smooth_grad_examples():
    reg = DCRegularizer("log", 1.0, theta=10.0)
    assert reg.smooth_grad(0.0) == 0.0
    # 100 / (log(11) * 11)
    assert reg.smooth_grad(1.0) == pytest.approx(3.79121, abs=1e-5)
    xs = np.linspace(-3, 3, 31)
    np.testing.assert_allclose(reg.smooth_grad(-xs), -reg.smooth_grad(xs), atol=1e-15)


@pytest.mark.parametrize("theta", [10.0, 0.5, 1e-3, 1e6])
def test_in_place_smooth_grad_matches_the_expression_bit_for_bit(theta):
    """The in-place derivative gives the bytes and the warnings of the one
    expression it replaced, on signed zeros, infinities, nan, extreme
    magnitudes, a (50, 500) iterate, a vector and a scalar."""
    reg = DCRegularizer("log", 0.1, theta)
    rng = np.random.default_rng(7)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, -1e-300,
                        5e-324, 1.0, -1.0])
    for x in (special, rng.standard_normal((50, 500)) * 3, rng.uniform(-1e3, 1e3, 7), 0.7, -0.0):
        shown = []
        for fn in (lambda v: loop_smooth_grad(reg, np.asarray(v, dtype=float)), reg.smooth_grad):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                got = np.asarray(fn(x))
            shown.append((got.dtype, got.shape, got.tobytes(),
                          [(w.category, str(w.message)) for w in record]))
        assert shown[1] == shown[0]


def test_smooth_grad_matches_finite_differences():
    reg = DCRegularizer("log", 1.0, theta=10.0)
    smooth = lambda x: reg.slope * abs(x) - float(reg.penalty_scalar(x))
    rng = np.random.default_rng(2)
    for x in rng.uniform(-4, 4, size=100):
        h = 1e-6 * (1 + abs(x))
        fd = (smooth(x + h) - smooth(x - h)) / (2 * h)
        g = float(reg.smooth_grad(x))
        assert abs(fd - g) <= 1e-6 * max(1.0, abs(g))


def test_smooth_grad_lipschitz_bound():
    reg = DCRegularizer("log", 0.3, theta=10.0)
    lip = reg.weight * reg.theta**2 / np.log1p(reg.theta)
    rng = np.random.default_rng(3)
    x, y = rng.uniform(-5, 5, size=(2, 200))
    gap = np.abs(reg.weight * (reg.smooth_grad(x) - reg.smooth_grad(y)))
    assert np.all(gap <= lip * np.abs(x - y) + 1e-12)


@pytest.mark.parametrize("kind,theta", [("log", 10.0), ("log", 2.5), ("l1", 1.0)])
def test_dc_split_is_consistent(kind, theta):
    reg = DCRegularizer(kind, 0.37, theta)
    rng = np.random.default_rng(4)
    for x in rng.uniform(-6, 6, size=50):
        convex = reg.weight * reg.slope * abs(x)
        smooth = reg.weight * (reg.slope * abs(x) - float(reg.penalty_scalar(x)))
        assert convex - smooth == pytest.approx(reg.value(x), abs=1e-12)


def test_l1_kind_has_no_smooth_part():
    reg = DCRegularizer("l1", 0.5)
    assert reg.slope == 1.0
    x = np.array([1.0, -2.0])
    np.testing.assert_array_equal(reg.slope * np.abs(x) - reg.penalty_scalar(x), 0.0)
    np.testing.assert_array_equal(reg.smooth_grad(x), 0.0)


# ---------------------------------------------------------------- gradients

def test_block_gradient_zero_at_planted_signal_noiseless():
    inst, gt = make_instance(noise=0.0)
    for i in range(inst.n_agents):
        for block in range(2):
            np.testing.assert_allclose(
                block_gradient(inst, i, gt.x0, block, N_BLOCKS), 0.0, atol=1e-12
            )


def test_block_gradient_scalar_example():
    # single measurement D = 2, b = 1, x = 1: gradient 2*2*(2-1) = 4
    reg = DCRegularizer("l1", 0.0)
    inst_d = (np.array([[2.0]]),)
    inst_b = (np.array([1.0]),)
    inst = ProblemInstance(inst_d, inst_b, 10.0, reg)
    assert block_gradient(inst, 0, np.array([1.0]), 0, 1)[0] == pytest.approx(4.0)


def test_block_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    inst, _ = make_instance(seed=6)
    residual_sq = lambda i, x: float(np.sum((inst.b[i] - inst.D[i] @ x) ** 2))
    for trial in range(30):
        i = int(rng.integers(0, inst.n_agents))
        x = rng.uniform(-2, 2, size=inst.n_vars)
        block = int(rng.integers(0, 2))
        sl = slice(4 * block, 4 * block + 4)
        g = block_gradient(inst, i, x, block, N_BLOCKS)
        for off in range(4):
            e = np.zeros(inst.n_vars)
            h = 1e-6 * (1 + abs(x[sl.start + off]))
            e[sl.start + off] = h
            fd = (residual_sq(i, x + e) - residual_sq(i, x - e)) / (2 * h)
            assert abs(fd - g[off]) <= 1e-6 * max(1.0, abs(g[off]))


def test_block_gradient_bad_index():
    inst, _ = make_instance()
    with pytest.raises(BadBlockIndex):
        block_gradient(inst, 0, np.zeros(inst.n_vars), 5, N_BLOCKS)
    with pytest.raises(BadBlockIndex):
        block_gradient(inst, slice(None), np.zeros((3, inst.n_vars)), [0, -1, 1], N_BLOCKS)


def test_block_dim_splits_n_vars_into_equal_blocks_or_raises():
    assert block_dim(12, 3) == 4 and block_dim(12, 1) == 12 and block_dim(12, 12) == 1
    for n_blocks in (5, 0, -5, 24):
        with pytest.raises(IndivisibleBlocks, match=f"12 variables cannot split into {n_blocks}"):
            block_dim(12, n_blocks)
    inst, _ = make_instance()
    x = np.zeros(inst.n_vars)
    with pytest.raises(IndivisibleBlocks):
        full_gradient(inst, 0, x, 3)
    with pytest.raises(IndivisibleBlocks):
        block_gradient(inst, 0, x, 0, 0)


def test_full_gradient_equals_blockwise_concatenation_exactly():
    inst, _ = make_instance(seed=7)
    x = np.random.default_rng(8).uniform(-1, 1, inst.n_vars)
    full = full_gradient(inst, 0, x, N_BLOCKS)
    concat = np.concatenate([block_gradient(inst, 0, x, b, N_BLOCKS) for b in range(2)])
    assert np.array_equal(full, concat)


# ---------------------------------------------------------------- subproblem

def test_subproblem_pure_projection():
    out = solve_block_subproblem(
        np.zeros(3), np.array([3.0, -12.0, 0.2]), 1.0, 0.0, -10.0, 10.0
    )
    np.testing.assert_array_equal(out, [3.0, -10.0, 0.2])


def test_subproblem_soft_threshold_example():
    out = solve_block_subproblem(np.array([0.0]), np.array([3.0]), 1.0, 1.0, -10.0, 10.0)
    assert out[0] == pytest.approx(2.0)


def test_subproblem_derived_example_lands_on_zero():
    # soft_threshold(0.5 - 2/4, 1/4) = 0
    out = solve_block_subproblem(np.array([2.0]), np.array([0.5]), 4.0, 1.0, -10.0, 10.0)
    assert out[0] == 0.0
    _, best = grid_search_1d(2.0, 0.5, 4.0, 1.0, -10.0, 10.0)
    mine = float(subproblem_objective(out[0], 2.0, 0.5, 4.0, 1.0))
    assert abs(mine - best) <= 1e-4


def test_subproblem_rejects_nonpositive_tau():
    for tau in (0.0, -1.0, np.nan):
        with pytest.raises(NonPositiveTau):
            solve_block_subproblem(np.zeros(1), np.zeros(1), tau, 1.0, -1.0, 1.0)


def test_subproblem_against_grid_and_kkt_sample():
    # a quick version of the acceptance sweep
    rng = np.random.default_rng(9)
    for _ in range(50):
        coef = float(rng.uniform(-5, 5))
        anchor = float(rng.uniform(-5, 5))
        tau = float(rng.uniform(0.1, 8.0))
        level = float(rng.uniform(0.0, 3.0))
        lo = float(rng.uniform(-8, -0.5))
        hi = float(rng.uniform(0.5, 8))
        x = float(solve_block_subproblem(np.array([coef]), np.array([anchor]), tau, level, lo, hi)[0])
        _, best = grid_search_1d(coef, anchor, tau, level, lo, hi)
        assert subproblem_objective(x, coef, anchor, tau, level) <= best + 1e-4
        assert kkt_residual_1d(x, coef, anchor, tau, level, lo, hi) <= 1e-10


def test_soft_threshold_shapes():
    np.testing.assert_allclose(soft_threshold(np.array([3.0, -3.0, 0.5]), 1.0), [2.0, -2.0, 0.0])


# ---------------------------------------------------------------- generation

def test_generate_exact_zero_count():
    _, gt = generate_instance(2, 10, 500, 0.8, 0.5, 10.0, seed=1)
    assert int(np.sum(gt.x0 == 0.0)) == 400
    assert int(np.sum(gt.support)) == 100


def test_generate_rows_are_unit_norm():
    inst, _ = make_instance(seed=10)
    for d in inst.D:
        np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)


def test_generate_noiseless_measurements_exact():
    inst, gt = make_instance(seed=11, noise=0.0)
    for i in range(inst.n_agents):
        np.testing.assert_array_equal(inst.b[i], inst.D[i] @ gt.x0)


def test_generate_deterministic_per_seed():
    a, gta = make_instance(seed=12)
    b, gtb = make_instance(seed=12)
    np.testing.assert_array_equal(gta.x0, gtb.x0)
    for da, db in zip(a.D, b.D):
        np.testing.assert_array_equal(da, db)


def test_generate_rejects_bad_sparsity():
    with pytest.raises(BadSparsity):
        generate_instance(2, 4, 8, 1.0, 0.0, 10.0, seed=0)


@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_generate_matches_per_agent_loop_bit_for_bit(noise):
    inst, gt = generate_instance(4, 6, 10, 0.5, noise, 10.0, seed=21)
    ds, bs, x0 = loop_generate_data(4, 6, 10, 0.5, noise, seed=21)
    assert gt.x0.tobytes() == x0.tobytes()
    assert inst.D.tobytes() == np.stack(ds).tobytes()
    assert inst.b.tobytes() == np.stack(bs).tobytes()


def test_a_redraw_after_another_draw_matches_the_per_agent_loop():
    a = (3, 5, 7, 0.5, 0.2)
    first, _ = generate_instance(*a, 10.0, seed=31)
    generate_instance(*a, 10.0, seed=32)
    inst, gt = generate_instance(*a, 10.0, seed=31)
    ds, bs, x0 = loop_generate_data(*a, seed=31)
    assert gt.x0.tobytes() == x0.tobytes()
    assert inst.D.tobytes() == first.D.tobytes() == np.stack(ds).tobytes()
    assert inst.b.tobytes() == first.b.tobytes() == np.stack(bs).tobytes()
    # a seed of None is rejected: the memo would hand its first draw to the next call
    with pytest.raises(ValueError, match="seed must be an integer, got None"):
        generate_instance(*a, 10.0, seed=None)


def test_drawn_data_are_read_only():
    inst, gt = generate_instance(3, 5, 7, 0.5, 0.2, 10.0, seed=33)
    for array in (inst.D, inst.b, gt.x0):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0
        with pytest.raises(ValueError):
            array.flags.writeable = True


# ---------------------------------------------------------------- data layout

def test_stacked_views_share_the_one_copy_of_the_data():
    inst, _ = make_instance(seed=22)
    assert inst.D.shape == (3, 5, 8) and inst.D.flags.c_contiguous
    assert inst.b.shape == (3, 5)
    assert np.shares_memory(inst.stacked_D, inst.D)
    assert np.shares_memory(inst.stacked_b, inst.b)
    np.testing.assert_array_equal(inst.stacked_D[5:10], inst.D[1])


def test_instance_data_is_read_only_and_caller_array_keeps_its_flags():
    inst, _ = make_instance(seed=23)
    d, b = np.array(inst.D), np.array(inst.b)
    own = ProblemInstance(d, b, inst.box_halfwidth, inst.reg)
    assert np.shares_memory(own.D, d) and np.shares_memory(own.b, b)
    with pytest.raises(ValueError, match="read-only"):
        own.D[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        own.stacked_b[0] = 1.0
    assert d.flags.writeable and b.flags.writeable


@pytest.mark.parametrize(
    "reshape",
    [
        lambda d, b: (d, b[:-1]),  # b misses an agent
        lambda d, b: (d, b[:, :-1]),  # b has the wrong row count
        lambda d, b: (d, (b[0], b[1], b[2][:-1])),  # one agent's b is short
        lambda d, b: ((d[0], d[1], d[2][:, :-1]), b),  # one agent's D has another n
        lambda d, b: (d[0], b[0]),  # one matrix, no agent axis
    ],
    ids=["missing-agent", "wrong-m", "ragged-b", "wrong-n", "no-agent-axis"],
)
def test_instance_rejects_mis_shaped_data(reshape):
    inst, _ = make_instance(seed=24)
    d, b = reshape(inst.D, inst.b)
    with pytest.raises(DimensionMismatch):
        ProblemInstance(d, b, inst.box_halfwidth, inst.reg)


@pytest.mark.parametrize("box", [np.nan, -1.0])
def test_instance_rejects_a_nan_or_negative_box(box):
    inst, _ = make_instance(seed=25)
    with pytest.raises(ValueError, match=f"box_halfwidth must be >= 0, got {box}"):
        ProblemInstance(inst.D, inst.b, box, inst.reg)
    assert ProblemInstance(inst.D, inst.b, 0.0, inst.reg).project_box(np.ones(2)).tolist() == [0, 0]


def test_instance_and_short_run_peak_below_one_and_a_half_copies_of_d():
    # D is 10 MB here; holding it twice, or copying it per round, breaks the bound
    graph = erdos_renyi_symmetric(50, 0.25, seed=3)
    tracemalloc.start()
    try:
        inst, _ = generate_instance(50, 50, 500, 0.8, 0.01, 1.0, seed=1)
        run_block_sca(
            inst, graph, BlockSchedule.shuffled_cycle(50, 10, seed=1),
            StepSizeSchedule(0.1, 1e-4), 1.0, 0.0, 3,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * inst.D.nbytes


def test_a_graph_retains_no_more_than_its_arrays():
    # 249,658 directed edges: a Python tuple per edge retains about 4.9x the arrays
    tracemalloc.start()
    try:
        graph = erdos_renyi_symmetric(1000, 0.25, seed=1)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1.5 * (graph.adjacency.nbytes + graph.broadcast_weights.nbytes)


# ---------------------------------------------------------------- objective value

def test_objective_zero_data_zero_point():
    inst = ProblemInstance(
        (np.zeros((2, 2)),), (np.zeros(2),), 10.0, DCRegularizer("log", 0.1, 10.0)
    )
    assert objective_value(inst, np.zeros(2), stacked_residual(inst, np.zeros(2))) == 0.0


def test_objective_l1_example():
    x = np.array([1.0, -2.0])
    d = np.array([[0.6, 0.8]])
    inst = ProblemInstance((d,), (d @ x,), 10.0, DCRegularizer("l1", 1.0))
    assert objective_value(inst, x, stacked_residual(inst, x)) == pytest.approx(3.0)


def test_objective_log_example():
    # zero residual, single coordinate 1: r(1) = 1 so weighted value is 0.1
    x = np.array([1.0])
    d = np.array([[1.0]])
    inst = ProblemInstance((d,), (d @ x,), 10.0, DCRegularizer("log", 0.1, 10.0))
    assert objective_value(inst, x, stacked_residual(inst, x)) == pytest.approx(0.1)


def test_assembled_smooth_model_gradient_matches_at_anchor():
    # the model's smooth part must reproduce grad f minus the regularizer's
    # smooth-part linearization at the expansion point
    inst, _ = make_instance(seed=13, n_agents=1)
    rng = np.random.default_rng(14)
    x = rng.uniform(-1, 1, inst.n_vars)
    block = 1
    sl = slice(4, 8)
    tau = 2.0
    coef = block_gradient(inst, 0, x, block, N_BLOCKS) - inst.reg.weight * inst.reg.smooth_grad(x[sl])

    def smooth_model(xb):
        return float(coef @ (xb - x[sl]) + 0.5 * tau * np.sum((xb - x[sl]) ** 2))

    target = block_gradient(inst, 0, x, block, N_BLOCKS) - inst.reg.weight * inst.reg.smooth_grad(x[sl])
    for off in range(4):
        e = np.zeros(4)
        e[off] = 1e-6
        fd = (smooth_model(x[sl] + e) - smooth_model(x[sl] - e)) / 2e-6
        assert fd == pytest.approx(target[off], rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------- serialization

def test_save_load_round_trip(tmp_path):
    inst, gt = make_instance(seed=15)
    path = tmp_path / "inst.npz"
    save_instance(path, inst, gt, N_BLOCKS, {"data_seed": 15})
    back, gt_back, manifest = load_instance(path)
    assert manifest["data_seed"] == 15
    assert manifest["block_dims"] == [4, 4]
    assert back.box_halfwidth == inst.box_halfwidth
    assert back.reg == inst.reg
    np.testing.assert_array_equal(gt_back.x0, gt.x0)
    assert back.D.shape == inst.D.shape and back.D.flags.c_contiguous
    np.testing.assert_array_equal(back.D, inst.D)
    np.testing.assert_array_equal(back.b, inst.b)
    steps = StepSizeSchedule(0.1, 1e-4)
    runs = [
        run_block_sca(i, complete_graph(3), BlockSchedule.shuffled_cycle(3, 2, seed=4), steps, 1.0, 0.0, 20)
        for i in (inst, back)
    ]
    assert runs[0].J == runs[1].J
