"""The two-lane run loop against the serial loops it replaced, bit for bit.

``run_block_sca`` and ``run_gradient_push`` hand the metric products at each
new iterate to a worker thread, or form them inline when the process may use
one CPU or D is small. They must record exactly the rows of
``serial_run_block_sca`` and ``serial_run_gradient_push`` (metrics from one
stacked product, then the round), raise and warn what the serial loop
raises and warns in the same order, and join their worker, on every branch.
"""
import contextlib
import ctypes
import glob
import importlib.util
import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import blocksca.solver
from blocksca.blockcomm import BlockSchedule
from blocksca.errors import NonFiniteIterate
from blocksca.objective import block_gradient, full_gradient, generate_instance, metric_products
from blocksca.solver import StepSizeSchedule, _metrics_at, run_block_sca, run_gradient_push

from loop_reference import (
    loop_block_gradient,
    loop_full_gradient,
    serial_run_block_sca,
    serial_run_gradient_push,
)
from test_graph import complete_graph
from test_solver import desk_instance

STEPS = StepSizeSchedule(0.1, 1e-4)
ROUNDS = {name: getattr(blocksca.solver, name) for name in ("solver_round", "push_sum_mix")}
COLUMNS = ("meta", "t", "t_norm", "gamma", "J", "D", "U", "comm", "t_end")


class RoundError(Exception):
    pass


def problem():
    inst, _ = desk_instance(seed=50)
    return inst, complete_graph(inst.n_agents), BlockSchedule.shuffled_cycle(inst.n_agents, 3, 7)


def run(algorithm, tol, t_max, x0=None, serial=False):
    inst, graph, schedule = problem()
    meta = {"algorithm": algorithm}
    if algorithm == "block":
        fn = serial_run_block_sca if serial else run_block_sca
        return fn(inst, graph, schedule, STEPS, 1.0, tol, t_max, meta=meta, x0=x0)
    fn = serial_run_gradient_push if serial else run_gradient_push
    return fn(inst, graph, STEPS, tol, t_max, meta=meta, x0=x0)


LANE_BRANCHES = ("worker", "blas_threads")  # the branches that start a worker thread


@pytest.fixture(params=["worker", "one_cpu", "small_d", "blas_threads"])
def branch(request, monkeypatch):
    """The lane a run takes: a worker thread on 2 CPUs (``worker``, and
    ``blas_threads`` with BLAS on two threads), or inline, on one CPU or
    with the desk instance's D below ``LANE_MIN_ENTRIES``. Every id but
    ``small_d`` lowers that size to 0, so desk-scale runs use the worker."""
    name = request.param
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if name == "one_cpu" else {0, 1})
    if name != "small_d":
        monkeypatch.setattr(blocksca.solver, "LANE_MIN_ENTRIES", 0)
    with blas_threads(2) if name == "blas_threads" else contextlib.nullcontext():
        yield name


def fail_from(monkeypatch, algorithm, first_bad):
    """Make every round t >= first_bad raise RoundError, replacing any earlier
    such patch; returns the list of the rounds that were started."""
    started = []
    if algorithm == "block":
        name, t_of = "solver_round", lambda args: args[5]
    else:  # one push_sum_mix per gradient-push round
        name, t_of = "push_sum_mix", lambda args: len(started)
    original = ROUNDS[name]

    def round_or_fail(*args):
        t = t_of(args)
        started.append(t)
        if t >= first_bad:
            raise RoundError(f"round {t}")
        return original(*args)

    monkeypatch.setattr(blocksca.solver, name, round_or_fail)
    return started


@pytest.mark.parametrize("algorithm", ["block", "gradient_push"])
@pytest.mark.parametrize("stop", ["tol", "t_max"])
def test_overlapped_run_matches_the_serial_loop_bit_for_bit(algorithm, stop, branch):
    tol, t_max = (1e-3, 300) if stop == "tol" else (0.0, 40)
    expected = run(algorithm, tol, t_max, serial=True)
    if stop == "tol":
        assert expected.t_end is not None and expected.t_end < t_max
    else:
        assert expected.t_end is None and expected.t[-1] == t_max
    trace = run(algorithm, tol, t_max)
    for column in COLUMNS:
        assert getattr(trace, column) == getattr(expected, column), column


@pytest.mark.parametrize("algorithm", ["block", "gradient_push"])
def test_non_finite_gap_is_raised_before_the_round_error(algorithm, branch, monkeypatch):
    inst, _, _ = problem()
    x0 = np.zeros((inst.n_agents, inst.n_vars))
    x0[2, 5] = np.nan
    started = fail_from(monkeypatch, algorithm, 0)
    with pytest.raises(NonFiniteIterate, match="at iteration 0"):
        run(algorithm, 1e-3, 50, x0=x0)
    assert started == []


@pytest.mark.parametrize("algorithm", ["block", "gradient_push"])
def test_round_error_is_raised_only_where_the_serial_loop_runs_the_round(
    algorithm, branch, monkeypatch
):
    expected = run(algorithm, 1e-3, 300, serial=True)
    t_end = expected.t_end
    # the round after the last row fails: the run still returns its trace
    fail_from(monkeypatch, algorithm, t_end)
    trace = run(algorithm, 1e-3, 300)
    assert [getattr(trace, c) for c in COLUMNS] == [getattr(expected, c) for c in COLUMNS]
    # a run stopped by the cap never starts round t_max
    started = fail_from(monkeypatch, algorithm, 10)
    assert run(algorithm, 0.0, 10).t[-1] == 10
    assert started == list(range(10))
    # a round the serial loop runs raises its own error
    fail_from(monkeypatch, algorithm, 3)
    with pytest.raises(RoundError, match="round 3"):
        run(algorithm, 1e-3, 300)


def test_speculative_round_warns_only_where_the_serial_loop_runs_it(branch):
    """Round 0 from an infinite entry would warn, but J_0 is nan: the serial
    loop raises before it runs that round, so its warnings must not show."""
    inst, _ = desk_instance(seed=55)
    x0 = np.zeros((inst.n_agents, inst.n_vars))
    x0[2, 5] = np.inf
    graph = complete_graph(inst.n_agents)
    schedule = BlockSchedule.shuffled_cycle(inst.n_agents, 3, 7)
    shown = []
    for fn in (serial_run_block_sca, run_block_sca):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteIterate, match="at iteration 0"):
                fn(inst, graph, schedule, STEPS, 1.0, 1e-3, 50, x0=x0)
        shown.append([(w.category, str(w.message)) for w in record])
    assert shown[0] and shown[1] == shown[0]


@pytest.mark.parametrize("algorithm", ["block", "gradient_push"])
@pytest.mark.parametrize("stop", ["tol", "t_max"])
def test_a_clean_round_runs_once(algorithm, stop, monkeypatch):
    tol, t_max = (1e-3, 300) if stop == "tol" else (0.0, 50)
    last = run(algorithm, tol, t_max, serial=True).t[-1]
    started = fail_from(monkeypatch, algorithm, t_max + 1)
    run(algorithm, tol, t_max)
    assert started == list(range(last))


@pytest.mark.parametrize("algorithm", ["block", "gradient_push"])
def test_a_run_joins_its_lane(algorithm, branch, monkeypatch):
    """A run on the worker branches starts one thread at its first hand-off,
    after row 0, and joins it when it ends, cleanly, by a round error or by
    NonFiniteIterate; an inline run starts none."""
    before = threading.active_count()
    during = []
    disagreement = blocksca.solver.disagreement

    def counted(*args):  # the main thread, once per iteration
        during.append(threading.active_count())
        return disagreement(*args)

    monkeypatch.setattr(blocksca.solver, "disagreement", counted)
    run(algorithm, 0.0, 5)
    assert during[0] == before and set(during[1:]) == {before + (branch in LANE_BRANCHES)}
    assert threading.active_count() == before
    fail_from(monkeypatch, algorithm, 2)
    with pytest.raises(RoundError):
        run(algorithm, 0.0, 5)
    assert threading.active_count() == before
    inst, _, _ = problem()
    with pytest.raises(NonFiniteIterate):
        run(algorithm, 0.0, 5, x0=np.full((inst.n_agents, inst.n_vars), np.nan))
    assert threading.active_count() == before


def test_concurrent_lane_runs_under_a_short_switch_interval_match_the_serial_loop(monkeypatch):
    """Three runs at once, each with its worker (six threads on a 2-core
    machine), switching threads every microsecond: every run still records
    the serial loop's rows, and every thread is joined."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(blocksca.solver, "LANE_MIN_ENTRIES", 0)
    expected = {a: run(a, 0.0, 30, serial=True) for a in ("block", "gradient_push")}
    before, interval = threading.active_count(), sys.getswitchinterval()
    traces = {}
    workers = [threading.Thread(target=lambda k=k, a=a: traces.__setitem__(k, run(a, 0.0, 30)))
               for k, a in enumerate(("block", "gradient_push", "block"))]
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert threading.active_count() == before
    for k, algorithm in enumerate(("block", "gradient_push", "block")):
        assert [getattr(traces[k], c) for c in COLUMNS] == \
            [getattr(expected[algorithm], c) for c in COLUMNS]


@pytest.mark.parametrize("algorithm", ["block", "gradient_push"])
def test_a_non_finite_start_raises_the_serial_loops_floating_point_error(algorithm, branch):
    """Under np.errstate(invalid="raise"), an infinite start entry makes the
    serial loop raise FloatingPointError (a NaN start only reaches
    NonFiniteIterate: NaN propagates without an invalid operation); the run
    raises the same error on every branch."""
    inst, _, _ = problem()
    x0 = np.zeros((inst.n_agents, inst.n_vars))
    x0[2, 5] = np.inf
    raised = []
    for serial in (True, False):
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError) as info:
            run(algorithm, 1e-3, 50, x0=x0, serial=serial)
        raised.append(str(info.value))
    assert raised[1] == raised[0]


def test_lane_calls_run_under_the_callers_errstate():
    """The metric products see the np.errstate of the thread that handed them
    off, on the worker thread and inline: an infinite entry of x makes
    D^T r meet inf - inf."""
    inst, _, _ = problem()
    x = np.zeros((inst.n_agents, inst.n_vars))
    x[2, 5] = np.inf
    with ThreadPoolExecutor(max_workers=1) as pool:
        for executor in (pool, None):
            with np.errstate(invalid="raise"):
                handle = _metrics_at(inst, x, executor)
            with pytest.raises(FloatingPointError):
                handle()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with np.errstate(invalid="ignore"):
                    handle = _metrics_at(inst, x, executor)
                assert np.isnan(handle()[2]).any()


def test_the_lane_runs_nothing_the_tracer_wraps(monkeypatch, tmp_path):
    """perfbench's span tracer is not thread-safe: during lane runs of tiny
    perfbench experiments, every function its TARGETS wrap is called, and
    only from the main thread, while the metric products after each round
    run on the worker (those of the start state run inline)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    bench, spans, workloads = (importlib.import_module(m) for m in ("run", "spans", "workloads"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(blocksca.solver, "LANE_MIN_ENTRIES", 0)
    threads = {}

    def watched(key, fn):
        def call(*args, **kwargs):
            threads.setdefault(key, set()).add(threading.current_thread() is threading.main_thread())
            return fn(*args, **kwargs)
        return call

    found, missing = spans.available_targets()
    assert not missing
    for _, module, attr, _ in found:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, watched((module, attr), getattr(mod, attr)))
    monkeypatch.setattr(blocksca.solver, "metric_products", watched("lane", metric_products))
    for name in ("sparse-sweep", "gradient-push"):
        for exp in bench.experiments(workloads, name, 1, tiny=True, full=False):
            bench.run_experiment(exp, tmp_path)
    assert threads.pop("lane") == {True, False}
    assert set(threads) == {(module, attr) for _, module, attr, _ in found}
    assert all(on_main == {True} for on_main in threads.values()), threads


@contextlib.contextmanager
def blas_threads(count):
    """The body runs with numpy's bundled OpenBLAS on ``count`` threads."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    lib = ctypes.CDLL(libs[0]) if libs else None
    names = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads")
    name = next((n for n in names if lib is not None and hasattr(lib, n.format("set"))), None)
    if name is None:
        pytest.skip("needs numpy's bundled OpenBLAS to pin its thread count")
    get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    before = get()
    set_(count)
    try:
        yield
    finally:
        set_(before)


@pytest.mark.parametrize("m", [1, 5, 50])
@pytest.mark.parametrize("n_agents", [1, 7, 8, 9, 17, 50])
def test_chunked_pass_matches_the_stacked_products(n_agents, m):
    """The metric products equal one stacked D x_bar and one stacked D^T r bit
    for bit, into the given buffers, and so do those handed off inline and to
    a worker thread; the chunked gradient pass equals the one-agent
    gradients. The stacked D x_bar is taken on one BLAS thread:
    a threaded gemv splits the 2,500 rows of N=m=50 at row 1,250, off the
    4-row groups, and rounds the rows there differently; the batched chunks
    do not depend on the thread count, so the products on two BLAS threads
    equal it too. D^T r is the same stacked call in all of them, on the
    thread count it runs under, which may change its last bits."""
    inst, _ = generate_instance(n_agents, m, 500, 0.5, 0.3, 10.0, seed=n_agents * m)
    rng = np.random.default_rng(n_agents + m)
    x = rng.uniform(-2, 2, size=(n_agents, 500))
    blocks = rng.integers(0, 10, size=n_agents)
    x_bar = x.mean(axis=0)
    with blas_threads(1):
        residual = inst.stacked_D @ x_bar - inst.stacked_b
    dt_r = inst.stacked_D.T @ residual
    buffers = np.full(n_agents * m, np.nan), np.full(500, np.nan)
    got = metric_products(inst, x_bar, *buffers)
    assert got[0] is x_bar and got[1] is buffers[0] and got[2] is buffers[1]
    assert np.array_equal(got[1], residual) and np.array_equal(got[2], dt_r)
    with blas_threads(2):
        got = metric_products(inst, x_bar, *buffers)
        dt_r_two = inst.stacked_D.T @ residual
    assert np.array_equal(got[1], residual) and np.array_equal(got[2], dt_r_two)
    with ThreadPoolExecutor(max_workers=1) as pool:
        for executor in (None, pool):
            got = _metrics_at(inst, x, executor)()
            assert np.array_equal(got[0], x_bar)
            assert np.array_equal(got[1], residual) and np.array_equal(got[2], dt_r)
    full = np.stack([loop_full_gradient(inst, i, x[i], 10) for i in range(n_agents)])
    picked = np.concatenate([loop_block_gradient(inst, i, x[i], int(blocks[i]), 10)
                             for i in range(n_agents)])
    assert np.array_equal(full_gradient(inst, slice(None), x, 10), full)
    assert np.array_equal(block_gradient(inst, slice(None), x, blocks, 10), picked)
