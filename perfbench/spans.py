"""Span tracing around calls into the blocksca modules, from outside them.

``instrument`` swaps each traced public function for a wrapper at the
module attribute its caller looks it up from (the solver imports
``build_all_weights`` by name, so the wrapper goes on ``blocksca.solver``),
and restores the originals on exit. ``src/`` is not modified. A name that
a module no longer has is reported as missing instead of failing the run.

Spans (name, start, end, parent) are kept in memory; ``summarize`` turns
them into per-name totals, call counts and self times, where self time is
a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import contextlib
import importlib
from collections import defaultdict
from time import perf_counter


def _weight_bytes(graph, selections, n_blocks, *_):
    return n_blocks * graph.n_agents**2 * 8


def _agent_d_bytes(inst, agent, *_):
    return inst.D[agent].nbytes


# (span name, module the caller looks the function up in, attribute,
#  computed bytes per call or None)
TARGETS = (
    ("graph.resolve_graph", "blocksca.harness", "resolve_graph", None),
    ("objective.generate_instance", "blocksca.harness", "generate_instance", None),
    ("harness.write_trace_csv", "blocksca.harness", "write_trace_csv", None),
    ("solver.run", "blocksca.solver", "run_block_sca", None),
    ("solver.run", "blocksca.solver", "run_gradient_push", None),
    ("solver.solver_round", "blocksca.solver", "solver_round", None),
    ("solver.local_optimization", "blocksca.solver", "local_optimization", None),
    ("blockcomm.build_all_weights", "blocksca.solver", "build_all_weights", _weight_bytes),
    ("blockcomm.select_block", "blocksca.solver", "select_block", None),
    ("tracking.push_sum_mix", "blocksca.solver", "push_sum_mix", None),
    ("objective.block_gradient", "blocksca.solver", "block_gradient", _agent_d_bytes),
    ("objective.full_gradient", "blocksca.solver", "full_gradient", _agent_d_bytes),
    ("solver.stationarity_gap", "blocksca.solver", "stationarity_gap", None),
    ("solver.disagreement", "blocksca.solver", "disagreement", None),
    ("objective.objective_value", "blocksca.solver", "objective_value", None),
)


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.nbytes: dict = defaultdict(int)
        self._open = [-1]

    def wrap(self, name, fn, nbytes=None):
        def traced(*args, **kwargs):
            if nbytes is not None:
                self.nbytes[name] += nbytes(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1]
            self._open.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans[idx] = (name, start, end, parent)

        return traced

    def summarize(self) -> dict:
        """name -> {"ms": total ms, "self_ms": total self ms, "calls": n}."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"ms": 0.0, "self_ms": 0.0, "calls": 0})
        for (name, start, end, _), covered in zip(self.spans, child):
            agg = out[name]
            agg["ms"] += (end - start) * 1e3
            agg["self_ms"] += (end - start - covered) * 1e3
            agg["calls"] += 1
        return dict(out)

    def write(self, path, label) -> None:
        """Append this pass's spans as CSV rows: pass,name,start,end,parent."""
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f"{label},{name},{start!r},{end!r},{parent}\n")


def available_targets() -> tuple[list, set]:
    """(targets whose function exists, span names with no such target)."""
    found = [t for t in TARGETS if hasattr(importlib.import_module(t[1]), t[2])]
    missing = {t[0] for t in TARGETS} - {t[0] for t in found}
    return found, missing


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every available traced function through ``tracer``."""
    found, _ = available_targets()
    saved = []
    try:
        for name, module, attr, nbytes in found:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, tracer.wrap(name, fn, nbytes))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
