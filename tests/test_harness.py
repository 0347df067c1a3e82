import dataclasses
import json
import math
import re

import numpy as np
import pytest

import blocksca.harness
from blocksca.cli import main
from blocksca.errors import IndivisibleBlocks, MalformedTrace
from blocksca.harness import (
    RunConfig,
    apply_overrides,
    config_echo,
    config_hash,
    load_config,
    parse_config_text,
    read_trace_csv,
    resolve_graph,
    resolve_problem,
    run_baseline,
    run_single,
    sweep_blocks,
    write_trace_csv,
)
from blocksca.solver import RunTrace, StepSizeSchedule, run_gradient_push

from loop_reference import load_instance

MINI_CONFIG = """
# three agents, six variables, two blocks, noiseless
n_agents = 3
n_vars = 6
n_blocks = 2
m_per_agent = 4
sparsity = 0.5
noise_var = 0.0
graph_p = 1.0
tol = 1e-3
t_max = 500
"""


@pytest.fixture()
def mini_config(tmp_path):
    path = tmp_path / "mini.cfg"
    path.write_text(MINI_CONFIG, encoding="utf-8")
    return path


# ---------------------------------------------------------------- config

def test_parse_config_defaults_and_values():
    cfg = parse_config_text(MINI_CONFIG)
    assert cfg.n_agents == 3
    assert cfg.noise_var == 0.0
    assert cfg.lam == 0.1  # untouched default


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError):
        parse_config_text("bogus_key = 1")


def test_parse_config_rejects_bad_line():
    with pytest.raises(ValueError):
        parse_config_text("n_agents 3")


def test_overrides():
    cfg = apply_overrides(RunConfig(), ["n_blocks=5", "baseline=on"])
    assert cfg.n_blocks == 5
    assert cfg.baseline is True


def test_config_hash_changes_with_values():
    a = RunConfig()
    b = apply_overrides(a, ["tau=2.0"])
    assert config_hash(a) != config_hash(b)
    assert re.fullmatch(r"[0-9a-f]{8}", config_hash(a))


# Every config field is echoed into every trace header and into the hash
# that names trace files, so adding, dropping or reformatting a field
# changes all of them. Pinned for the defaults and the poorly connected
# sweep configuration (tau=5, p=0.25) at B=10.
PINNED_HEADERS = {
    "8545e37e": "n_agents=50 n_vars=500 n_blocks=10 m_per_agent=50 sparsity=0.8 noise_var=0.5 "
                "box_halfwidth=10.0 reg=log lam=0.1 theta=10.0 tau=1.0 gamma0=0.1 mu=0.0001 "
                "graph_p=0.95 graph_seed=1 data_seed=1 schedule_seed=1 schedule=shuffled_cycle "
                "tol=0.001 t_max=0 baseline=False",
    "4e952681": "n_agents=50 n_vars=500 n_blocks=10 m_per_agent=50 sparsity=0.8 noise_var=0.5 "
                "box_halfwidth=10.0 reg=log lam=0.1 theta=10.0 tau=5.0 gamma0=0.1 mu=0.0001 "
                "graph_p=0.25 graph_seed=1 data_seed=1 schedule_seed=1 schedule=shuffled_cycle "
                "tol=0.001 t_max=0 baseline=False",
}


@pytest.mark.parametrize("cfg,digest", [
    (RunConfig(), "8545e37e"),
    (RunConfig(n_agents=50, n_vars=500, n_blocks=10, m_per_agent=50, sparsity=0.8,
               noise_var=0.5, lam=0.1, theta=10.0, tau=5.0, graph_p=0.25,
               schedule="shuffled_cycle", tol=1e-3), "4e952681"),
])
def test_trace_header_and_config_hash_are_pinned(tmp_path, cfg, digest):
    path = tmp_path / "trace.csv"
    write_trace_csv(RunTrace.empty(dict(config_echo(cfg))), path)
    expected = [f"# {kv}" for kv in PINNED_HEADERS[digest].split()]
    expected.append("t,t_norm,gamma,J,D,U,comm_scalars")
    assert path.read_text(encoding="utf-8").splitlines() == expected
    assert config_hash(cfg) == digest


def test_config_echo_is_ordered_and_complete():
    echo = config_echo(RunConfig())
    keys = [k for k, _ in echo]
    assert keys[0] == "n_agents"
    assert "schedule" in keys and "t_max" in keys


def test_resolve_graph_retries_until_connected():
    cfg = RunConfig(n_agents=8, graph_p=0.25, graph_seed=0)
    g, used_seed, lam2 = resolve_graph(cfg)
    assert used_seed >= 0
    assert lam2 > 0


def test_resolve_graph_above_dense_limit_reports_nan():
    g, _, lam2 = resolve_graph(RunConfig(n_agents=600, graph_p=0.02))
    assert g.n_agents == 600
    assert math.isnan(lam2)


def test_resolve_graph_is_resolved_once_per_graph_key():
    cfg = RunConfig(n_agents=6, graph_p=0.5, graph_seed=3)
    g, used_seed, lam2 = resolve_graph(cfg)
    again = resolve_graph(dataclasses.replace(cfg, n_blocks=5, tau=2.0, data_seed=9))
    assert again[0] is g and again[1:] == (used_seed, lam2)
    other = resolve_graph(dataclasses.replace(cfg, graph_seed=used_seed + 1))
    assert other[0] is not g


def test_resolve_problem_shares_the_drawn_data_across_a_sweep():
    cfg = RunConfig(n_agents=4, n_vars=12, n_blocks=2, m_per_agent=3)
    inst, _ = resolve_problem(cfg)
    for change in ({"n_blocks": 3}, {"graph_p": 0.5}, {"tau": 2.0}):
        other, _ = resolve_problem(dataclasses.replace(cfg, **change))
        assert np.shares_memory(other.D, inst.D), change
    other, _ = resolve_problem(dataclasses.replace(cfg, data_seed=2))
    assert not np.shares_memory(other.D, inst.D)


# ---------------------------------------------------------------- traces

def test_trace_round_trip(tmp_path, mini_config):
    cfg = load_config(mini_config)
    trace = run_single(cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    meta, cols = read_trace_csv(path)
    assert meta["n_agents"] == "3"
    assert cols["t"] == trace.t
    np.testing.assert_allclose(cols["J"], trace.J, rtol=0)
    assert cols["comm_scalars"] == trace.comm


def test_trace_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(MalformedTrace):
        read_trace_csv(path)


def test_trace_rejects_short_row(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("t,t_norm,gamma,J,D,U,comm_scalars\n0,0.0,0.1\n", encoding="utf-8")
    with pytest.raises(MalformedTrace):
        read_trace_csv(path)


def test_trace_rejects_missing_file(tmp_path):
    with pytest.raises(MalformedTrace):
        read_trace_csv(tmp_path / "nope.csv")


# ---------------------------------------------------------------- cli run

def test_cli_run_smoke(tmp_path, mini_config):
    out = tmp_path / "trace.csv"
    code = main(["run", "--config", str(mini_config), "--out", str(out)])
    assert code == 0
    meta, cols = read_trace_csv(out)
    assert len(cols["t"]) >= 1
    assert cols["J"][-1] < 1e-3


def test_cli_run_byte_identical_reruns(tmp_path, mini_config):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["run", "--config", str(mini_config), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(mini_config), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_run_zero_tol_hits_cap(tmp_path, mini_config):
    out = tmp_path / "trace.csv"
    code = main([
        "run", "--config", str(mini_config), "--out", str(out),
        "--set", "tol=0", "--set", "t_max=40",
    ])
    assert code == 2
    _, cols = read_trace_csv(out)
    assert len(cols["t"]) == 41


def test_cli_run_bad_config_returns_one(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 1


def test_cli_run_non_finite_iterate_returns_one(tmp_path, mini_config, capsys):
    out = tmp_path / "trace.csv"
    code = main(["run", "--config", str(mini_config), "--out", str(out), "--set", "tau=nan"])
    assert code == 1
    err = capsys.readouterr().err
    assert "stationarity gap is nan at iteration 1" in err
    assert not out.exists()


def test_cli_run_negative_t_max_returns_one_before_set_up(tmp_path, mini_config, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(blocksca.harness, "resolve_graph", lambda cfg: pytest.fail("set-up ran"))
    out = tmp_path / "trace.csv"
    code = main(["run", "--config", str(mini_config), "--out", str(out), "--set", "t_max=-5"])
    assert code == 1
    assert capsys.readouterr().err == "error: t_max must be >= 0 (0 means automatic), got -5\n"
    assert not out.exists()
    with pytest.raises(ValueError, match="t_max must be >= 0"):
        RunConfig(t_max=-1)


def test_cli_run_nan_tol_returns_one_before_set_up(tmp_path, mini_config, capsys, monkeypatch):
    monkeypatch.setattr(blocksca.harness, "resolve_graph", lambda cfg: pytest.fail("set-up ran"))
    out = tmp_path / "trace.csv"
    code = main(["run", "--config", str(mini_config), "--out", str(out), "--set", "tol=nan"])
    assert code == 1
    assert capsys.readouterr().err == "error: tol must be >= 0, got nan\n"
    assert not out.exists()
    with pytest.raises(ValueError, match="tol must be >= 0"):
        RunConfig(tol=-1e-3)
    assert RunConfig(tol=0.0).tol == 0.0


@pytest.mark.parametrize("field,bound", [
    ("mu", "> 0"), ("theta", "> 0"), ("lam", ">= 0"), ("box_halfwidth", ">= 0"),
    ("gamma0", "in (0, 1]"),
], ids=["mu", "theta", "lam", "box_halfwidth", "gamma0"])
def test_cli_run_nan_field_returns_one_before_set_up(tmp_path, mini_config, capsys, monkeypatch,
                                                      field, bound):
    monkeypatch.setattr(blocksca.harness, "resolve_graph", lambda cfg: pytest.fail("set-up ran"))
    out = tmp_path / "trace.csv"
    code = main(["run", "--config", str(mini_config), "--out", str(out), "--set", f"{field}=nan"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {field} must be {bound}, got nan\n"
    assert not out.exists()
    with pytest.raises(ValueError, match=f"{field} must be"):
        RunConfig(**{field: -1.0})


@pytest.mark.parametrize("command", ["run", "sweep-blocks", "gen-instance"])
@pytest.mark.parametrize("n_blocks", [0, -5, 4])
def test_cli_block_count_that_does_not_split_n_vars_returns_one(tmp_path, mini_config, capsys,
                                                                command, n_blocks):
    outdir = tmp_path / "out"
    args = [command, "--config", str(mini_config), "--outdir", str(outdir)]
    if command == "sweep-blocks":
        args += ["--blocks", f"1,{n_blocks}"]
    else:
        args += ["--set", f"n_blocks={n_blocks}"]
    if command == "gen-instance":
        args += ["--out", str(outdir / "inst.npz")]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: 6 variables cannot split into {n_blocks} blocks\n"
    assert not outdir.exists()


def test_cli_run_without_a_connected_graph_returns_one(tmp_path, mini_config, capsys):
    out = tmp_path / "trace.csv"
    code = main(["run", "--config", str(mini_config), "--out", str(out), "--set", "graph_p=0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: no strongly connected graph within 1000 seeds at p=0.0\n"
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("setting,message", [
    ("noise_var=-0.5", "noise_var must be >= 0, got -0.5"),
    ("m_per_agent=0", "m_per_agent must be >= 1, got 0"),
    ("noise_var=nan", "noise_var must be >= 0, got nan"),
    ("n_vars=0", "n_vars must be >= 1, got 0"),
])
def test_cli_run_invalid_instance_size_returns_one(tmp_path, mini_config, capsys, setting, message):
    out = tmp_path / "trace.csv"
    code = main(["run", "--config", str(mini_config), "--out", str(out), "--set", setting])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_run_baseline_writes_second_trace(tmp_path, mini_config):
    out = tmp_path / "trace.csv"
    code = main([
        "run", "--config", str(mini_config), "--out", str(out),
        "--set", "baseline=on", "--set", "t_max=30", "--set", "tol=0",
    ])
    assert code == 2
    base = out.with_name("trace_baseline.csv")
    meta, cols = read_trace_csv(base)
    assert meta["algorithm"] == "gradient_push"
    # full-vector payload plus the push-sum weight, per agent per round
    assert cols["comm_scalars"][1] - cols["comm_scalars"][0] == 3 * (6 + 1)


def test_run_baseline_shares_the_setup_of_run_single(mini_config, monkeypatch):
    cfg = apply_overrides(load_config(mini_config), ["baseline=on", "t_max=30", "tol=0"])
    trace = run_single(cfg)
    graph, _, _ = resolve_graph(cfg)
    inst, _ = resolve_problem(cfg)
    expected = run_gradient_push(inst, graph, StepSizeSchedule(cfg.gamma0, cfg.mu), 0.0, 30,
                                 n_blocks=cfg.n_blocks)
    monkeypatch.setattr("blocksca.harness.run_block_sca", None)  # must not be called
    base = run_baseline(cfg)
    assert base.meta == {**trace.meta, "algorithm": "gradient_push"}
    assert base.J == expected.J and base.D == expected.D and base.comm == expected.comm


def test_run_comm_accounting_from_csv(tmp_path, mini_config):
    out = tmp_path / "trace.csv"
    main(["run", "--config", str(mini_config), "--out", str(out), "--set", "t_max=25", "--set", "tol=0"])
    _, cols = read_trace_csv(out)
    deltas = np.diff(cols["comm_scalars"])
    assert np.all(deltas == 3 * (2 * 3 + 2))  # N * (2d + 2) with d = 3


# ---------------------------------------------------------------- sweep

def test_sweep_matches_single_run(tmp_path, mini_config):
    cfg = load_config(mini_config)
    rows, traces, paths = sweep_blocks(cfg, [1, 2], tmp_path / "sweep")
    single = run_single(apply_overrides(cfg, ["n_blocks=1"]))
    assert rows[0]["B"] == 1
    assert rows[0]["t_end"] == single.t_end
    assert rows[0]["t_end_norm"] == single.t_end
    assert traces[0].J == single.J and traces[0].meta == single.meta
    assert [trace.meta["n_blocks"] for trace in traces] == ["1", "2"]
    meta, cols = read_trace_csv(paths[0])
    np.testing.assert_allclose(cols["J"], single.J, rtol=0)


def test_sweep_runs_no_baseline(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr("blocksca.harness.run_gradient_push",
                        lambda *args, **kwargs: calls.append(args))
    cfg = RunConfig(n_agents=3, n_vars=6, t_max=50, baseline=True)
    _, traces, paths = sweep_blocks(cfg, [1, 2, 3], tmp_path)
    assert calls == []
    assert len(paths) == 3 and all(trace.meta["baseline"] == "True" for trace in traces)


def test_sweep_rejects_indivisible(tmp_path, mini_config):
    cfg = load_config(mini_config)
    with pytest.raises(IndivisibleBlocks):
        sweep_blocks(cfg, [4], tmp_path)
    # every block count is checked before the first run solves or writes
    with pytest.raises(IndivisibleBlocks):
        sweep_blocks(cfg, [1, 4], tmp_path / "sweep")
    assert list(tmp_path.rglob("*.csv")) == []


def test_cli_sweep_writes_summary(tmp_path, mini_config):
    code = main([
        "sweep-blocks", "--config", str(mini_config), "--blocks", "1,2,3",
        "--outdir", str(tmp_path / "out"),
    ])
    assert code == 0
    summary = (tmp_path / "out" / "sweep_summary.csv").read_text(encoding="utf-8")
    lines = summary.strip().splitlines()
    assert lines[0] == "B,t_end,t_end_norm,comm_scalars"
    assert len(lines) == 4


# ---------------------------------------------------------------- plot

def run_and_plot(tmp_path, mini_config, n_traces):
    paths = []
    for k in range(n_traces):
        out = tmp_path / f"tr{k}.csv"
        main([
            "run", "--config", str(mini_config), "--out", str(out),
            "--set", f"n_blocks={k + 1}", "--set", "t_max=60", "--set", "tol=0",
        ])
        paths.append(str(out))
    svg = tmp_path / "chart.svg"
    assert main(["plot", *paths, "--out", str(svg)]) == 0
    return svg.read_text(encoding="utf-8")


def test_plot_single_trace_has_two_polylines(tmp_path, mini_config):
    svg = run_and_plot(tmp_path, mini_config, 1)
    assert svg.count("<polyline") == 2


def test_plot_three_traces_have_six_polylines(tmp_path, mini_config):
    svg = run_and_plot(tmp_path, mini_config, 3)
    assert svg.count("<polyline") == 6


def test_plot_y_mapping_is_monotone_in_data(tmp_path, mini_config):
    out = tmp_path / "tr.csv"
    main(["run", "--config", str(mini_config), "--out", str(out)])
    svg_path = tmp_path / "chart.svg"
    main(["plot", str(out), "--out", str(svg_path)])
    svg = svg_path.read_text(encoding="utf-8")
    _, cols = read_trace_csv(out)

    solid = re.search(r'<polyline[^>]*points="([^"]+)"', svg).group(1)
    ys = [float(pt.split(",")[1]) for pt in solid.split()]
    data = cols["J"]
    # pick three well-separated rows with clearly distinct values
    idx = [0, len(data) // 2, len(data) - 1]
    assert data[idx[0]] > data[idx[1]] > data[idx[2]]
    # larger data value maps to smaller pixel y (origin is top-left)
    assert ys[idx[0]] < ys[idx[1]] < ys[idx[2]]


def test_plot_rejects_malformed_trace(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,trace\n", encoding="utf-8")
    assert main(["plot", str(bad), "--out", str(tmp_path / "x.svg")]) == 1


# ---------------------------------------------------------------- gen-instance

def test_cli_outdir_env_var(tmp_path, mini_config, monkeypatch):
    monkeypatch.setenv("BLOCKSCA_OUTDIR", str(tmp_path / "envout"))
    assert main(["run", "--config", str(mini_config)]) == 0
    traces = list((tmp_path / "envout").glob("trace_*.csv"))
    assert len(traces) == 1


def test_cli_gen_instance_round_trip(tmp_path, mini_config):
    out = tmp_path / "inst.npz"
    assert main(["gen-instance", "--config", str(mini_config), "--out", str(out)]) == 0
    inst, gt, manifest = load_instance(out)
    assert inst.n_agents == 3
    assert inst.n_vars == 6
    assert manifest["data_seed"] == 1
    assert gt.x0.shape == (6,)


def test_cli_gen_instance_manifest_is_pinned(tmp_path, mini_config):
    out = tmp_path / "inst.npz"
    assert main(["gen-instance", "--config", str(mini_config), "--out", str(out)]) == 0
    with np.load(out, allow_pickle=False) as data:
        text = str(data["manifest"])
    assert json.loads(text)["block_dims"] == [3] * 2  # [dim] * B
    assert text == (
        '{"block_dims": [3, 3], "box_halfwidth": 10.0, "data_seed": 1, "m_per_agent": 4, '
        '"n_agents": 3, "n_vars": 6, "noise_var": 0.0, "reg_kind": "log", "reg_theta": 10.0, '
        '"reg_weight": 0.1, "sparsity": 0.5}'
    )
