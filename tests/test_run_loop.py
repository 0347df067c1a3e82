"""The shared run loop against the serial loops it replaced, bit for bit.

``run_block_sca`` and ``run_gradient_push`` form each iteration's product
D x_bar on a worker thread while the main thread runs the round, or inline
when the process has one CPU, D is small or BLAS runs on more than one
thread. Every branch must record exactly
the rows of ``serial_run_block_sca`` and ``serial_run_gradient_push``
(metrics, then the round), raise and warn what the serial loop raises and
warns in the same order, and leave no thread behind.
"""
import os
import threading
import warnings

import numpy as np
import pytest

import blocksca.solver
from blocksca.blockcomm import BlockSchedule
from blocksca.errors import NonFiniteIterate
from blocksca.solver import StepSizeSchedule, run_block_sca, run_gradient_push

from loop_reference import serial_run_block_sca, serial_run_gradient_push
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


class NoSubmitPool(blocksca.solver.ThreadPoolExecutor):
    def submit(self, *args, **kwargs):
        raise AssertionError("an inline branch handed work to the thread pool")


@pytest.fixture(params=["worker", "one_cpu", "small_d", "blas_threads"])
def branch(request, monkeypatch):
    """The worker branch (2 CPUs, one BLAS thread, any D) or one of the
    inline branches (1 CPU; a D below ``OVERLAP_MIN_ENTRIES``; BLAS on two
    threads), which must hand nothing to the thread pool."""
    name = request.param
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if name == "one_cpu" else {0, 1})
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2" if name == "blas_threads" else "1")
    if name == "small_d":
        assert problem()[0].stacked_D.size < blocksca.solver.OVERLAP_MIN_ENTRIES
    else:
        monkeypatch.setattr(blocksca.solver, "OVERLAP_MIN_ENTRIES", 0)
    if name != "worker":
        monkeypatch.setattr(blocksca.solver, "ThreadPoolExecutor", NoSubmitPool)
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
    if stop == "tol":  # the speculative round of the last row is dropped
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
    assert started == [0]


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
    """Round 0 from an infinite entry warns, but J_0 is nan: the serial loop
    raises before it runs that round, so its warnings must not show."""
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
    # the speculative round of a run stopped by tol is started, then dropped
    assert started == list(range(last + 1 if stop == "tol" else last))


@pytest.mark.parametrize("algorithm", ["block", "gradient_push"])
def test_each_run_joins_its_one_worker_thread(algorithm, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(blocksca.solver, "OVERLAP_MIN_ENTRIES", 0)
    pools = []

    class CountedPool(blocksca.solver.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self._max_workers)

    monkeypatch.setattr(blocksca.solver, "ThreadPoolExecutor", CountedPool)
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
    assert pools == [1, 1, 1]
