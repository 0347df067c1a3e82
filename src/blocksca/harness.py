"""Experiment orchestration: configs, single runs, block sweeps, trace files.

Configs are flat ``key = value`` text files; every key has a default equal
to the reference experiment at full scale (50 agents, 500 variables, log
penalty). Runs are deterministic given the three seeds, so a repeated run
writes a byte-identical trace.
"""
from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .blockcomm import BlockSchedule
from .errors import MalformedTrace
from .graph import DiGraph, algebraic_connectivity, erdos_renyi_symmetric, is_strongly_connected
from .objective import DCRegularizer, GroundTruth, ProblemInstance, block_dim, generate_instance
from .solver import RunTrace, StepSizeSchedule, run_block_sca, run_gradient_push

TRACE_COLUMNS = ("t", "t_norm", "gamma", "J", "D", "U", "comm_scalars")


@dataclass(frozen=True)
class RunConfig:
    """All knobs of one experiment; defaults match the full-scale setup."""

    n_agents: int = 50
    n_vars: int = 500
    n_blocks: int = 10
    m_per_agent: int = 50
    sparsity: float = 0.8
    noise_var: float = 0.5
    box_halfwidth: float = 10.0
    reg: str = "log"
    lam: float = 0.1
    theta: float = 10.0
    tau: float = 1.0
    gamma0: float = 0.1
    mu: float = 1e-4
    graph_p: float = 0.95
    graph_seed: int = 1
    data_seed: int = 1
    schedule_seed: int = 1
    schedule: str = "shuffled_cycle"
    tol: float = 1e-3
    t_max: int = 0  # 0 means automatic: 500 rounds per block
    baseline: bool = False

    def __post_init__(self):
        if self.t_max < 0:
            raise ValueError(f"t_max must be >= 0 (0 means automatic), got {self.t_max}")
        # each bound is written so that nan fails it
        for name, ok, bound in (("tol", self.tol >= 0, ">= 0"), ("mu", self.mu > 0, "> 0"),
                                ("lam", self.lam >= 0, ">= 0"), ("theta", self.theta > 0, "> 0"),
                                ("box_halfwidth", self.box_halfwidth >= 0, ">= 0"),
                                ("tau", self.tau > 0, "> 0"),
                                ("gamma0", 0 < self.gamma0 <= 1, "in (0, 1]"),
                                ("graph_seed", self.graph_seed >= 0, ">= 0"),
                                ("data_seed", self.data_seed >= 0, ">= 0"),
                                ("schedule_seed", self.schedule_seed >= 0, ">= 0")):
            if not ok:
                raise ValueError(f"{name} must be {bound}, got {getattr(self, name)}")

    def resolved_t_max(self) -> int:
        return self.t_max if self.t_max > 0 else 500 * self.n_blocks


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(key: str, raw: str):
    if key not in _FIELDS:
        raise ValueError(f"unknown config key {key!r}")
    kind = _FIELDS[key].type
    raw = raw.strip()
    if kind == "bool":
        if raw.lower() in ("1", "true", "on", "yes"):
            return True
        if raw.lower() in ("0", "false", "off", "no"):
            return False
        raise ValueError(f"cannot read {raw!r} as a flag for {key}")
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def parse_config_text(text: str) -> RunConfig:
    """Parse flat key=value lines; '#' starts a comment, blank lines ignored."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key] = _coerce(key, val)
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def apply_overrides(cfg: RunConfig, overrides) -> RunConfig:
    """Apply command-line style ``key=value`` overrides."""
    values = {}
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not key=value")
        key, val = (part.strip() for part in item.split("=", 1))
        values[key] = _coerce(key, val)
    return dataclasses.replace(cfg, **values)


def config_echo(cfg: RunConfig) -> list[tuple[str, str]]:
    """Ordered (key, value-string) pairs used in trace headers and legends."""
    out = []
    for f in dataclasses.fields(RunConfig):
        v = getattr(cfg, f.name)
        out.append((f.name, repr(v) if isinstance(v, float) else str(v)))
    return out


def config_hash(cfg: RunConfig) -> str:
    text = "\n".join(f"{k}={v}" for k, v in config_echo(cfg))
    return hashlib.sha1(text.encode()).hexdigest()[:8]


def resolve_graph(cfg: RunConfig) -> tuple[DiGraph, int, float]:
    """Generate the network, bumping the seed until strongly connected.

    Returns (graph, seed actually used, achieved algebraic connectivity);
    the connectivity is nan above ``graph.DENSE_LIMIT`` agents. The last
    network is memoized, so a sweep over other fields resolves it once.
    """
    return _connected_graph(cfg.n_agents, cfg.graph_p, cfg.graph_seed)


@lru_cache(maxsize=1)
def _connected_graph(n_agents: int, graph_p: float, graph_seed: int) -> tuple[DiGraph, int, float]:
    seed = graph_seed
    for _ in range(1000):
        g = erdos_renyi_symmetric(n_agents, graph_p, seed)
        if is_strongly_connected(g):
            return g, seed, algebraic_connectivity(g)
        seed += 1
    raise ValueError(f"no strongly connected graph within 1000 seeds at p={graph_p}")


def resolve_problem(cfg: RunConfig) -> tuple[ProblemInstance, GroundTruth]:
    """The configured instance; raises IndivisibleBlocks before drawing it
    when ``n_blocks`` does not split ``n_vars``."""
    block_dim(cfg.n_vars, cfg.n_blocks)
    reg = DCRegularizer(cfg.reg, weight=cfg.lam, theta=cfg.theta)
    return generate_instance(
        cfg.n_agents,
        cfg.m_per_agent,
        cfg.n_vars,
        cfg.sparsity,
        cfg.noise_var,
        cfg.box_halfwidth,
        cfg.data_seed,
        reg=reg,
    )


def resolve_schedule(cfg: RunConfig) -> BlockSchedule:
    if cfg.schedule == "round_robin":
        return BlockSchedule.round_robin(cfg.n_agents, cfg.n_blocks)
    if cfg.schedule == "shuffled_cycle":
        return BlockSchedule.shuffled_cycle(cfg.n_agents, cfg.n_blocks, cfg.schedule_seed)
    raise ValueError(f"unknown schedule {cfg.schedule!r}")


def _setup(cfg: RunConfig) -> tuple[DiGraph, ProblemInstance, BlockSchedule, StepSizeSchedule,
                                   dict]:
    """Graph, instance, schedule, step sizes and trace meta of one configured
    run. The pieces built from the config alone come first, and so does the
    penalty's check, so that a config error exits before any set-up."""
    block_dim(cfg.n_vars, cfg.n_blocks)
    schedule, steps = resolve_schedule(cfg), StepSizeSchedule(cfg.gamma0, cfg.mu)
    DCRegularizer(cfg.reg, weight=cfg.lam, theta=cfg.theta)
    graph, used_seed, lam2 = resolve_graph(cfg)
    inst, _ = resolve_problem(cfg)
    meta = dict(config_echo(cfg), graph_seed_used=str(used_seed), lambda2=repr(lam2))
    return graph, inst, schedule, steps, meta


def run_single(cfg: RunConfig) -> RunTrace:
    """Run one configured experiment with the block solver."""
    graph, inst, schedule, steps, meta = _setup(cfg)
    return run_block_sca(inst, graph, schedule, steps, cfg.tau, cfg.tol, cfg.resolved_t_max(),
                         meta=meta)


def run_baseline(cfg: RunConfig) -> RunTrace:
    """The gradient-push baseline of a configured experiment, on the graph
    and instance ``run_single`` solves."""
    graph, inst, _, steps, meta = _setup(cfg)
    meta = {**meta, "algorithm": "gradient_push"}
    # sliced as the block run's start-up gradients are, so both share their last bits
    return run_gradient_push(inst, graph, steps, cfg.tol, cfg.resolved_t_max(), meta=meta,
                             n_blocks=cfg.n_blocks)


def write_trace_csv(trace: RunTrace, path) -> None:
    """Echo comments, a fixed header, then one row per iteration."""
    lines = [f"# {k}={v}" for k, v in trace.meta.items()]
    lines.append(",".join(TRACE_COLUMNS))
    columns = (trace.t, trace.t_norm, trace.gamma, trace.J, trace.D, trace.U, trace.comm)
    for t, *values, comm in zip(*columns):
        lines.append(",".join((str(t), *map(repr, values), str(comm))))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_trace_csv(path) -> tuple[dict, dict]:
    """Parse a trace file back into (meta, columns). Raises MalformedTrace."""
    meta: dict = {}
    cols: dict = {name: [] for name in TRACE_COLUMNS}
    header_seen = False
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MalformedTrace(f"cannot read {path}: {exc}") from exc
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, v = body.split("=", 1)
                meta[k.strip()] = v.strip()
            continue
        if not header_seen:
            if tuple(line.split(",")) != TRACE_COLUMNS:
                raise MalformedTrace(f"unexpected header in {path}: {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != len(TRACE_COLUMNS):
            raise MalformedTrace(f"row with {len(parts)} fields in {path}")
        try:
            cols["t"].append(int(parts[0]))
            for name, val in zip(TRACE_COLUMNS[1:-1], parts[1:-1]):
                cols[name].append(float(val))
            cols["comm_scalars"].append(int(parts[-1]))
        except ValueError as exc:
            raise MalformedTrace(f"unparseable row in {path}: {line!r}") from exc
    if not header_seen:
        raise MalformedTrace(f"{path} has no header row")
    return meta, cols


def sweep_blocks(
    cfg: RunConfig, blocks, outdir
) -> tuple[list[dict], list[RunTrace], list[Path]]:
    """One run per block count with shared seeds; returns summary rows, the
    traces and the paths they were written to. Every block count is checked
    against ``n_vars`` before the first run. No baseline is run: the
    ``baseline`` flag only reaches the trace headers here."""
    configs = [dataclasses.replace(cfg, n_blocks=n_blocks) for n_blocks in blocks]
    for sub in configs:
        block_dim(sub.n_vars, sub.n_blocks)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows, traces, paths = [], [], []
    for sub in configs:
        trace = run_single(sub)
        path = outdir / f"trace_B{sub.n_blocks}_{config_hash(sub)}.csv"
        write_trace_csv(trace, path)
        rows.append(summary_row(sub.n_blocks, trace))
        traces.append(trace)
        paths.append(path)
    return rows, traces, paths


def summary_row(n_blocks: int, trace: RunTrace) -> dict:
    t_end = trace.t_end if trace.t_end is not None else -1
    return {
        "B": n_blocks,
        "t_end": t_end,
        "t_end_norm": t_end / n_blocks if t_end >= 0 else -1.0,
        "comm_scalars": trace.comm[-1],
    }


def write_summary_csv(rows, path) -> None:
    lines = ["B,t_end,t_end_norm,comm_scalars"]
    for r in rows:
        lines.append(f"{r['B']},{r['t_end']},{r['t_end_norm']!r},{r['comm_scalars']}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
