"""Command-line interface.

Subcommands: run, sweep-blocks, plot, repro-paper, gen-instance. Config
files are flat key=value text; any key can be overridden with --set. The
output directory defaults to $BLOCKSCA_OUTDIR or ./out.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import BlockscaError
from .harness import (
    RunConfig,
    apply_overrides,
    config_hash,
    load_config,
    read_trace_csv,
    resolve_problem,
    run_baseline,
    run_single,
    sweep_blocks,
    write_summary_csv,
    write_trace_csv,
)
from .objective import save_instance
from .repro import DEFAULT_BLOCKS, repro_paper
from .svgplot import plot_traces


def _outdir(args) -> Path:
    return Path(args.outdir or os.environ.get("BLOCKSCA_OUTDIR", "out"))


def _config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    return apply_overrides(cfg, args.set or [])


def cmd_run(args) -> int:
    cfg = _config(args)
    trace = run_single(cfg)
    out = Path(args.out) if args.out else _outdir(args) / f"trace_{config_hash(cfg)}.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, out)
    print(f"trace written to {out}")
    if cfg.baseline:
        base_out = out.with_name(out.stem + "_baseline.csv")
        write_trace_csv(run_baseline(cfg), base_out)
        print(f"baseline trace written to {base_out}")
    if trace.t_end is None:
        print(f"iteration cap {cfg.resolved_t_max()} reached before tol={cfg.tol}")
        return 2
    print(f"converged: t_end={trace.t_end}, t_end/B={trace.t_end / cfg.n_blocks:g}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _config(args)
    blocks = [int(b) for b in args.blocks.split(",")]
    outdir = _outdir(args)
    rows, _, paths = sweep_blocks(cfg, blocks, outdir)
    summary = outdir / "sweep_summary.csv"
    write_summary_csv(rows, summary)
    for row, path in zip(rows, paths):
        print(f"B={row['B']}: t_end={row['t_end']} t_end/B={row['t_end_norm']:g} ({path})")
    print(f"summary written to {summary}")
    return 0


def cmd_plot(args) -> int:
    series = []
    for path in args.traces:
        meta, cols = read_trace_csv(path)
        label = f"B={meta['n_blocks']}" if "n_blocks" in meta else Path(path).stem
        if meta.get("algorithm") == "gradient_push":
            label = "gradient push"
        series.append((label, cols["t_norm"], cols["J"], cols["D"]))
    plot_traces(series, args.out)
    print(f"chart written to {args.out}")
    return 0


def cmd_repro(args) -> int:
    blocks = DEFAULT_BLOCKS if args.blocks is None else tuple(map(int, args.blocks.split(",")))
    report = repro_paper(_outdir(args), blocks=blocks, quick=args.quick)
    print(report)
    report_path = _outdir(args) / "repro_report.txt"
    report_path.write_text(report + "\n", encoding="utf-8")
    return 0 if report.rstrip().endswith("PASS") else 2


def cmd_gen_instance(args) -> int:
    cfg = _config(args)
    inst, gt = resolve_problem(cfg)
    extra = {
        "data_seed": cfg.data_seed,
        "sparsity": cfg.sparsity,
        "box_halfwidth": cfg.box_halfwidth,
    }
    save_instance(args.out, inst, gt, cfg.n_blocks, extra)
    print(f"instance written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="blocksca")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_config=True):
        if with_config:
            p.add_argument("--config", help="flat key=value config file")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override a config key (repeatable)")
        p.add_argument("--outdir", help="output directory (default $BLOCKSCA_OUTDIR or ./out)")

    p = sub.add_parser("run", help="run one experiment, write a trace CSV")
    common(p)
    p.add_argument("--out", help="trace file path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep-blocks", help="run the same experiment for several block counts")
    common(p)
    p.add_argument("--blocks", default="1,2,5,10,25", help="comma-separated block counts")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot", help="render trace CSVs to an SVG chart")
    p.add_argument("traces", nargs="+", help="trace CSV files")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("repro-paper", help="full-scale two-topology reproduction suite")
    common(p, with_config=False)
    p.add_argument("--blocks", help="comma-separated block counts")
    p.add_argument("--quick", action="store_true", help="desk-scale smoke version")
    p.set_defaults(func=cmd_repro)

    p = sub.add_parser("gen-instance", help="generate and save a problem instance")
    common(p)
    p.add_argument("--out", required=True, help="output .npz path")
    p.set_defaults(func=cmd_gen_instance)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BlockscaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
