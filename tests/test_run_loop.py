"""The shared run loop against the serial loops it replaced, bit for bit.

``run_block_sca`` and ``run_gradient_push`` take the metric product D x_bar
from the state, where the gradient pass at each new iterate formed it chunk
by chunk. They must record exactly the rows of ``serial_run_block_sca`` and
``serial_run_gradient_push`` (metrics from one stacked product, then the
round), raise and warn what the serial loop raises and warns in the same
order, and start no thread, under every setting of CPUs and BLAS threads.
"""
import ast
import contextlib
import ctypes
import glob
import inspect
import os
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import blocksca.solver
from blocksca.blockcomm import BlockSchedule
from blocksca.errors import NonFiniteIterate
from blocksca.objective import block_gradient, full_gradient, generate_instance
from blocksca.solver import StepSizeSchedule, run_block_sca, run_gradient_push

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


@pytest.fixture(params=["worker", "one_cpu", "small_d", "blas_threads"])
def branch(request, monkeypatch):
    """The settings under which the loop once formed D x_bar on a worker
    thread (2 CPUs, one BLAS thread) or inline (1 CPU; the desk instance's
    small D under the process's own settings; BLAS on two threads). The
    gradient pass forms it under each of them, so none may change what a run
    records, raises or warns."""
    name = request.param
    if name != "small_d":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if name == "one_cpu" else {0, 1})
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2" if name == "blas_threads" else "1")
    return name


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
def test_a_run_starts_no_thread(algorithm, monkeypatch):
    before = threading.active_count()
    run(algorithm, 0.0, 5)
    assert threading.active_count() == before
    fail_from(monkeypatch, algorithm, 2)
    with pytest.raises(RoundError):
        run(algorithm, 0.0, 5)
    assert threading.active_count() == before
    inst, _, _ = problem()
    with pytest.raises(NonFiniteIterate):
        run(algorithm, 0.0, 5, x0=np.full((inst.n_agents, inst.n_vars), np.nan))
    assert threading.active_count() == before
    tree = ast.parse(inspect.getsource(blocksca.solver))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name and name.split(".")[0] == "concurrent"]


@contextlib.contextmanager
def one_blas_thread():
    """The body runs with numpy's bundled OpenBLAS on one thread."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    lib = ctypes.CDLL(libs[0]) if libs else None
    names = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads")
    name = next((n for n in names if lib is not None and hasattr(lib, n.format("set"))), None)
    if name is None:
        pytest.skip("needs numpy's bundled OpenBLAS to pin its thread count")
    get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    count = get()
    set_(1)
    try:
        yield
    finally:
        set_(count)


@pytest.mark.parametrize("m", [1, 5, 50])
@pytest.mark.parametrize("n_agents", [1, 7, 8, 9, 17, 50])
def test_chunked_pass_matches_the_stacked_products(n_agents, m):
    """One pass over chunks of agents forms the gradients and D x_bar; both
    equal the one-agent gradients and the one stacked product bit for bit.
    The stacked product is taken on one BLAS thread: a threaded gemv splits
    the 2,500 rows of N=m=50 at row 1,250, off the 4-row groups, and rounds
    the rows there differently; the chunked product does not depend on the
    thread count."""
    inst, _ = generate_instance(n_agents, m, 500, 0.5, 0.3, 10.0, seed=n_agents * m)
    rng = np.random.default_rng(n_agents + m)
    x = rng.uniform(-2, 2, size=(n_agents, 500))
    blocks = rng.integers(0, 10, size=n_agents)
    with one_blas_thread():
        stacked = inst.stacked_D @ x.mean(axis=0)
    full = np.stack([loop_full_gradient(inst, i, x[i], 10) for i in range(n_agents)])
    picked = np.concatenate([loop_block_gradient(inst, i, x[i], int(blocks[i]), 10)
                             for i in range(n_agents)])
    for gradient, args, expected in ((full_gradient, (10,), full),
                                     (block_gradient, (blocks, 10), picked)):
        d_xbar = np.full(n_agents * m, np.nan)
        assert np.array_equal(gradient(inst, slice(None), x, *args, d_xbar), expected)
        assert np.array_equal(d_xbar, stacked)
