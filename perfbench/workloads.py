"""The benchmark's four workloads, each a list of solver experiments.

An experiment is one call of ``run_block_sca`` or ``run_gradient_push`` on
a configuration built through ``blocksca.harness``. Every experiment has
two round caps:

- ``t_max``: the cap of the full run to tolerance (``run.py --full``);
- ``pass_rounds``: the cap of one timed pass, about a twentieth of the
  rounds seed 1 needs to reach tolerance (a fortieth on ``sparse-sweep``,
  so that its B=50 sample stays under a second), so a pass keeps the full
  sweep's mix of block counts but fits many times into one timed run. A round costs the
  same early and late in a run, so the prefix measures the same per-round
  work as the full run.

All four share the paper's reference instance size: 500 variables, 50
measurements per agent, log penalty, noise variance 0.5, and the
``shuffled_cycle`` schedule. The workload seed becomes the graph, data
and schedule seed of every experiment.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from blocksca.harness import RunConfig

BLOCK_COUNTS = (1, 2, 5, 10, 25, 50)

# acceptance criterion 9's poorly connected instance (lambda_2 about 4.9)
SPARSE = RunConfig(
    n_agents=50, n_vars=500, m_per_agent=50, sparsity=0.8, noise_var=0.5,
    lam=0.1, theta=10.0, tau=5.0, graph_p=0.25, schedule="shuffled_cycle", tol=1e-3,
)
# the densely connected pairing of the reproduction suite (lambda_2 about 41.6)
DENSE = dataclasses.replace(SPARSE, graph_p=0.95, tau=1.0)
AGENTS_200 = dataclasses.replace(SPARSE, n_agents=200, n_blocks=10)


@dataclass(frozen=True)
class Experiment:
    name: str
    cfg: RunConfig
    t_max: int
    pass_rounds: int
    algorithm: str = "block"  # or "gradient_push"


def _sweep(prefix: str, cfg: RunConfig, cap_per_block: int, pass_rounds) -> tuple:
    return tuple(
        Experiment(f"{prefix}-B{b}", dataclasses.replace(cfg, n_blocks=b), cap_per_block * b, p)
        for b, p in zip(BLOCK_COUNTS, pass_rounds)
    )


WORKLOADS = {
    # criterion 9, the ROADMAP headline; most rounds are at B >= 25, where
    # the B dense N x N weight builds and 2B push-sum mixes dominate
    "sparse-sweep": _sweep("sparse", SPARSE, 200, (3, 5, 10, 20, 45, 90)),
    # same sweep on the dense graph: out-degree about 47 instead of 12, and
    # B=1 limited by the local model rather than by mixing
    "dense-sweep": _sweep("dense", DENSE, 500, (25, 5, 10, 15, 45, 85)),
    # per-agent Python loops and B*N^2 weight builds at four times the agents
    "agents-200": (Experiment("agents200-B10", AGENTS_200, 2000, 12),),
    # full-vector baseline: bypasses blockcomm, one mix per round, the only
    # caller of objective.full_gradient inside the round loop
    "gradient-push": (
        Experiment("gradpush-B1", dataclasses.replace(SPARSE, n_blocks=1), 1000, 50,
                   algorithm="gradient_push"),
    ),
}


def seeded(exp: Experiment, seed: int) -> Experiment:
    """The experiment with its graph, data and schedule seeds set to ``seed``."""
    cfg = dataclasses.replace(exp.cfg, graph_seed=seed, data_seed=seed, schedule_seed=seed)
    return dataclasses.replace(exp, cfg=cfg)


TINY_VARS = 20


def tiny(exp: Experiment) -> Experiment | None:
    """Desk-scale variant for the smoke test, or None when its block count
    does not divide the tiny vector."""
    if TINY_VARS % exp.cfg.n_blocks:
        return None
    cfg = dataclasses.replace(exp.cfg, n_agents=6, n_vars=TINY_VARS, m_per_agent=5)
    return dataclasses.replace(exp, cfg=cfg, pass_rounds=5)
