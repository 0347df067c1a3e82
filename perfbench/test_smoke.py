"""Desk-scale smoke test of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench``. Each
workload runs in its tiny variant for about a second, with tracing off and
on; every metric BENCHMARK.json names must appear with its unit.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

run._prepare_imports()
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def _run_tiny(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported_with_its_unit(workload, trace):
    result = _run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_declared_metrics_match_benchmark_json():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    declared = list(run.PER_LAYER) + [run.OVERHEAD[0]]
    assert [m["name"] for m in SPEC["per_layer"]] == declared
    assert sorted(WORKLOADS) == sorted(wl.WORKLOADS)


def _tiny_experiments(name):
    return run.experiments(wl, name, 3, tiny=True, full=False)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_account_for_traced_rounds(workload, tmp_path):
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        p = run.run_pass(_tiny_experiments(workload), None, tmp_path)
    assert p.failed == 0
    rounds = sum(s.rounds for s in p.samples.values())
    layer = run.per_layer(tracer.summarize(), tracer.nbytes, rounds)
    parts = [
        "blockcomm.build_all_weights.ms", "blockcomm.select_block.ms",
        "tracking.push_sum_mix.ms", "objective.block_gradient.ms",
        "objective.full_gradient.ms", "solver.local_optimization.ms", "solver.metrics.ms",
        "solver.solver_round.self_ms", "solver.run.self_ms",
    ]
    assert sum(layer[k] for k in parts) == pytest.approx(layer["solver.traced_round_ms"])


def test_missing_function_is_reported_not_fatal(monkeypatch, tmp_path, capsys):
    renamed = tuple(
        (name, module, attr + "_gone" if name == "blockcomm.select_block" else attr, nbytes)
        for name, module, attr, nbytes in spans.TARGETS
    )
    monkeypatch.setattr(spans, "TARGETS", renamed)
    result = run.timed_run(_tiny_experiments("sparse-sweep"), None, 0.0, True, tmp_path,
                           tmp_path / "spans.csv")
    missing = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["missing_metrics"]
    assert missing == ["blockcomm.select_block.calls", "blockcomm.select_block.ms"]
    assert result["correct"]
    assert not set(missing) & set(result["metrics"])
    assert "tracking.push_sum_mix.ms" in result["metrics"]
