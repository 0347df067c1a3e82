#!/usr/bin/env python3
"""Benchmark of the blocksca solver on four closed-loop workloads.

One client runs the workload's experiments back to back in one process.

Timed run, the form BENCHMARK.json describes, from the root of a checkout::

    python3 perfbench/run.py --workload sparse-sweep --seed 1 --seconds 30 --trace 0

repeats passes of the workload for ``--seconds`` seconds. A pass sets up
and solves every experiment of the workload for its ``pass_rounds`` and
writes each trace CSV. With ``--trace 0`` the last stdout line holds the
end-to-end metrics (times from each experiment's fastest pass, set-up as
the median pass); with ``--trace 1`` passes alternate untraced and traced,
and it holds the per-layer metrics, medians over the traced passes.

Full run to tolerance, all four workloads, one table::

    python3 perfbench/run.py --full

``--record`` reruns the full workloads at seed 1 and rewrites
``reference.json``; ``--tiny`` swaps desk-scale instances into a timed run
(smoke test).
On seed 1 every run is checked against ``reference.json``: same ``t_end``,
same ``comm_scalars``, and J within 1e-12 relative at every recorded
checkpoint. On other seeds only finiteness and progress are checked.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"
REFERENCE = BENCH_DIR / "reference.json"
REFERENCE_SEED = 1
CHECKPOINT_STRIDE = 5
J_RTOL = 1e-12

# name -> unit; BENCHMARK.json lists the same names under end_to_end
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "round_ms": "ms",
    "peak_rss_mb": "MB",
    "rounds": "count",
    "comm_scalars": "scalars",
}

# name -> (unit, source span names, what to take); per round unless the
# unit says per pass
PER_LAYER = {
    "blockcomm.build_all_weights.ms": ("ms/round", ("blockcomm.build_all_weights",), "ms"),
    "blockcomm.weight_bytes": ("bytes/round", ("blockcomm.build_all_weights",), "bytes"),
    "blockcomm.select_block.ms": ("ms/round", ("blockcomm.select_block",), "ms"),
    "blockcomm.select_block.calls": ("calls/round", ("blockcomm.select_block",), "calls"),
    "tracking.push_sum_mix.ms": ("ms/round", ("tracking.push_sum_mix",), "ms"),
    "tracking.push_sum_mix.calls": ("calls/round", ("tracking.push_sum_mix",), "calls"),
    "objective.block_gradient.ms": ("ms/round", ("objective.block_gradient",), "ms"),
    "objective.D_bytes": (
        "bytes/round", ("objective.block_gradient", "objective.full_gradient"), "bytes"),
    "objective.full_gradient.ms": ("ms/round", ("objective.full_gradient",), "ms"),
    "objective.objective_value.ms": ("ms/round", ("objective.objective_value",), "ms"),
    "solver.local_optimization.ms": ("ms/round", ("solver.local_optimization",), "ms"),
    "solver.stationarity_gap.ms": ("ms/round", ("solver.stationarity_gap",), "ms"),
    "solver.disagreement.ms": ("ms/round", ("solver.disagreement",), "ms"),
    "solver.metrics.ms": (
        "ms/round",
        ("solver.stationarity_gap", "solver.disagreement", "objective.objective_value"),
        "ms",
    ),
    "solver.solver_round.self_ms": ("ms/round", ("solver.solver_round",), "self_ms"),
    "solver.run.self_ms": ("ms/round", ("solver.run",), "self_ms"),
    "solver.traced_round_ms": ("ms/round", ("solver.run",), "ms"),
    "graph.resolve_graph.ms": ("ms/pass", ("graph.resolve_graph",), "ms"),
    "objective.generate_instance.ms": ("ms/pass", ("objective.generate_instance",), "ms"),
    "harness.write_trace_csv.ms": ("ms/pass", ("harness.write_trace_csv",), "ms"),
}
OVERHEAD = ("tracing_overhead_pct", "%")


def _prepare_imports() -> None:
    """Use the checkout's own sources and one BLAS thread; both must happen
    before numpy is first imported. A second OpenBLAS thread spin-waits on
    the other core and gave no faster rounds at these matrix sizes, while
    it made runs noisier on a shared 2-core machine."""
    if not (SRC / "blocksca" / "__init__.py").is_file():
        raise SystemExit(f"error: no blocksca package under {SRC}; run from a full checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    import platform

    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "l3_cache": _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "note": "working sets fit in L3; byte counts are computed from shapes, not measured",
    }


def _blas_threads(numpy):
    """Thread count OpenBLAS reports, or the environment cap if it cannot be asked."""
    import ctypes
    import glob

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _read_first(path, key=None):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if key is None:
                    return line.strip()
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


@dataclass
class Sample:
    """Phase seconds and counts of one experiment in one pass."""

    setup_s: float
    solve_s: float
    csv_s: float
    rounds: int
    comm: int

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.solve_s + self.csv_s


@dataclass
class Pass:
    """Samples of the experiments that ran, plus attempts and failures."""

    samples: dict = field(default_factory=dict)  # experiment name -> Sample
    attempted: int = 0
    failed: int = 0


def run_experiment(exp, out_dir):
    """Set up, solve and write one experiment; returns (trace, phase seconds)."""
    from blocksca import harness, solver

    cfg = exp.cfg
    t0 = perf_counter()
    graph, used_seed, lam2 = harness.resolve_graph(cfg)
    inst, _ = harness.resolve_problem(cfg)
    schedule = harness.resolve_schedule(cfg)
    t1 = perf_counter()
    meta = dict(harness.config_echo(cfg), graph_seed_used=str(used_seed), lambda2=repr(lam2))
    steps = solver.StepSizeSchedule(cfg.gamma0, cfg.mu)
    if exp.algorithm == "gradient_push":
        trace = solver.run_gradient_push(inst, graph, steps, cfg.tol, exp.t_max, meta=meta)
    else:
        trace = solver.run_block_sca(
            inst, graph, schedule, steps, cfg.tau, cfg.tol, exp.t_max, meta=meta
        )
    t2 = perf_counter()
    harness.write_trace_csv(trace, out_dir / f"{exp.name}.csv")
    t3 = perf_counter()
    return trace, (t1 - t0, t2 - t1, t3 - t2)


def check(trace, exp, ref) -> list[str]:
    """Problems with one run's output; ``ref`` is its reference entry or None."""
    import numpy as np

    cols = np.array([trace.J, trace.D, trace.U])
    if not np.all(np.isfinite(cols)):
        return ["non-finite J, D or U"]
    last = trace.t[-1]
    if ref is None:
        # a pass is too short to judge progress: J can rise over the first
        # rounds while the trackers settle
        full_block_run = exp.algorithm == "block" and exp.t_max > exp.pass_rounds
        if full_block_run and trace.t_end is None:
            return [f"no convergence within {exp.t_max} rounds"]
        if trace.t_end is None and last != exp.t_max:
            return [f"stopped at round {last} without converging"]
        return []
    t_end = ref["t_end"] if ref["t_end"] is not None and ref["t_end"] <= exp.t_max else None
    problems = []
    if trace.t_end != t_end:
        problems.append(f"t_end {trace.t_end} != reference {t_end}")
    if last != (t_end if t_end is not None else exp.t_max):
        problems.append(f"stopped at round {last}")
    for t, j_ref, comm_ref in ref["checkpoints"]:
        if t > last:
            break
        if trace.comm[t] != comm_ref:
            problems.append(f"comm_scalars {trace.comm[t]} != {comm_ref} at t={t}")
        if abs(trace.J[t] - j_ref) > J_RTOL * abs(j_ref):
            problems.append(f"J {trace.J[t]!r} != {j_ref!r} at t={t}")
    return problems


def run_pass(experiments, refs, out_dir) -> Pass:
    p = Pass()
    for exp in experiments:
        p.attempted += 1
        try:
            trace, phases = run_experiment(exp, out_dir)
            problems = check(trace, exp, refs.get(exp.name) if refs is not None else None)
        except Exception:  # count the failure, keep measuring the rest
            traceback.print_exc()
            p.failed += 1
            continue
        if problems:
            print(f"{exp.name}: " + "; ".join(problems), file=sys.stderr)
            p.failed += 1
        p.samples[exp.name] = Sample(*phases, trace.t[-1], trace.comm[-1])
    return p


def _by_experiment(passes) -> list[list[Sample]]:
    runs: dict = {}
    for p in passes:
        for name, sample in p.samples.items():
            runs.setdefault(name, []).append(sample)
    return list(runs.values())


def fastest_wall_s(passes) -> float:
    """Sum over experiments of each one's fastest wall time in ``passes``."""
    return sum(min(s.wall_s for s in runs) for runs in _by_experiment(passes))


def end_to_end(passes, rss_mb) -> dict:
    """Times take each experiment's fastest pass: neighbours on a shared
    machine slow whole seconds of a run, and the fastest of several short
    samples is the one they disturb least. Set-up is the median pass."""
    runs = _by_experiment(passes)
    rounds = sum(r[0].rounds for r in runs)
    values = {
        "wall_s": fastest_wall_s(passes),
        "setup_s": statistics.median(sum(s.setup_s for s in p.samples.values()) for p in passes),
        "round_ms": 1e3 * sum(min(s.solve_s for s in r) for r in runs) / max(rounds, 1),
        "peak_rss_mb": rss_mb,
        "rounds": rounds,
        "comm_scalars": sum(r[0].comm for r in runs),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(summary: dict, nbytes: dict, rounds: int) -> dict:
    out = {}
    for metric, (unit, sources, take) in PER_LAYER.items():
        if take == "bytes":
            total = sum(nbytes.get(s, 0) for s in sources)
        else:
            total = sum(summary.get(s, {}).get(take, 0) for s in sources)
        out[metric] = total if unit.endswith("/pass") else total / max(rounds, 1)
    return out


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(experiments, refs, seconds, traced, out_dir, spans_path):
    """Closed loop of passes for about ``seconds``, at least one; returns
    the final result object."""
    import spans

    plain, traced_passes, layer_rows = [], [], []
    _, missing = spans.available_targets()
    if traced:
        spans_path.write_text("pass,name,start,end,parent\n", encoding="utf-8")
    start = perf_counter()
    while True:
        before = perf_counter()
        plain.append(run_pass(experiments, refs, out_dir))
        if traced:
            tracer = spans.Tracer()
            with spans.instrument(tracer):
                p = run_pass(experiments, refs, out_dir)
            traced_passes.append(p)
            rounds = sum(sample.rounds for sample in p.samples.values())
            layer_rows.append(per_layer(tracer.summarize(), tracer.nbytes, rounds))
            tracer.write(spans_path, len(layer_rows))
        # stop before a pass that would end past the time budget
        now = perf_counter()
        if now + (now - before) > start + seconds:
            break
    attempted = sum(p.attempted for p in plain + traced_passes)
    failed = sum(p.failed for p in plain + traced_passes)
    if traced:
        absent = sorted(m for m, (_, src, _) in PER_LAYER.items() if missing.intersection(src))
        print(json.dumps({"missing_metrics": absent}))
        metrics = {
            name: {"value": statistics.median(r[name] for r in layer_rows), "unit": unit}
            for name, (unit, _, _) in PER_LAYER.items() if name not in absent
        }
        overhead = fastest_wall_s(traced_passes) / fastest_wall_s(plain) - 1.0
        metrics[OVERHEAD[0]] = {"value": 100.0 * overhead, "unit": OVERHEAD[1]}
    else:
        metrics = end_to_end(plain, peak_rss_mb())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def record(names) -> None:
    """Rerun every full workload at the reference seed and rewrite reference.json."""
    import workloads as wl

    out = {}
    for name in names:
        for exp in wl.WORKLOADS[name]:
            trace, _ = run_experiment(wl.seeded(exp, REFERENCE_SEED), OUT_DIR)
            last = trace.t[-1]
            ts = sorted(set(range(0, last + 1, CHECKPOINT_STRIDE)) | {last})
            out[exp.name] = {
                "t_end": trace.t_end,
                "checkpoints": [[t, trace.J[t], trace.comm[t]] for t in ts],
            }
            print(f"{exp.name}: t_end={trace.t_end} rounds={last}", file=sys.stderr)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in out.items()]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def full_run(names, seed) -> bool:
    """Every named workload once, to tolerance; prints one table row per
    metric and one JSON line per workload. Returns True when all passed."""
    import workloads as wl

    refs = load_reference() if seed == REFERENCE_SEED else None
    ok = True
    for name in names:
        exps = experiments(wl, name, seed, tiny=False, full=True)
        p = run_pass(exps, refs, OUT_DIR)
        metrics = end_to_end([p], peak_rss_mb())
        metrics["fail_rate"] = {"value": p.failed / p.attempted, "unit": "ratio"}
        for metric, m in metrics.items():
            print(f"{name:14s} {metric:13s} {m['value']:>16.6g} {m['unit']}")
        print(json.dumps({"workload": name, "correct": p.failed == 0, "attempted": p.attempted,
                          "failed": p.failed, "metrics": metrics}))
        ok = ok and p.failed == 0
    return ok


def experiments(wl, name, seed, tiny, full):
    """The workload's experiments at ``seed``, capped at ``pass_rounds``
    unless ``full``."""
    exps = [wl.seeded(e, seed) for e in wl.WORKLOADS[name]]
    if tiny:
        exps = [e for e in map(wl.tiny, exps) if e is not None]
    if not full:
        exps = [dataclasses.replace(e, t_max=e.pass_rounds) for e in exps]
    return exps


def main(argv=None) -> int:
    _prepare_imports()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads as wl

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--full", action="store_true", help="run to tolerance once, no time loop")
    ap.add_argument("--record", action="store_true", help="rewrite reference.json")
    ap.add_argument("--tiny", action="store_true", help="desk-scale instances")
    args = ap.parse_args(argv)
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    if not (args.full or args.record) and args.workload is None:
        ap.error("--workload is required for a timed run")
    if args.tiny and (args.full or args.record):
        ap.error("--tiny applies to timed runs only")

    OUT_DIR.mkdir(exist_ok=True)
    print(json.dumps({"env": environment()}))
    if args.record:
        record(names)
        return 0
    if args.full:
        return 0 if full_run(names, args.seed) else 1
    refs = load_reference() if args.seed == REFERENCE_SEED and not args.tiny else None
    exps = experiments(wl, args.workload, args.seed, args.tiny, full=False)
    result = timed_run(exps, refs, args.seconds, args.trace == 1, OUT_DIR,
                       OUT_DIR / f"{args.workload}.spans.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
