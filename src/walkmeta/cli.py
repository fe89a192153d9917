"""Command-line entry points: run, sweep, report, topo.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from functools import partial

import numpy as np

from . import simulator, topology
from .config import ExperimentConfig, parse_config
from .errors import ConfigError, NumericalError, ParameterError, WalkmetaError
from .report import render_svg

EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL = 0, 1, 2

_SWEEP_AXES = ("method", "epsilon", "topology")
_METRICS = ("train_metric", "unseen_metric", "grad_norm_sq")


def _default_output(config_path: str) -> str:
    stem = os.path.splitext(os.path.basename(config_path))[0]
    return stem + ".csv"


def _print_summary(record: simulator.RunRecord):
    last = record.rows[-1]
    print(f"iterations={last.iteration} comm_units={last.comm_units}")
    print(f"train_metric={last.train_metric!r} "
          f"unseen_metric={last.unseen_metric!r} "
          f"grad_norm_sq={last.grad_norm_sq!r}")
    if record.dp_report is not None:
        dp = record.dp_report
        print(f"network DP: epsilon_prime={dp.epsilon_prime:.6g} "
              f"delta_total={dp.delta_total:.6g} (n_u={dp.n_u:.6g}, q={dp.q:.6g})")
    if record.aborted:
        print(f"ABORTED: {record.abort_reason}", file=sys.stderr)


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    record = simulator.run(cfg)
    out = cfg.output or _default_output(args.config)
    with open(out, "w", encoding="utf-8") as f:
        f.write(record.to_csv())
    _print_summary(record)
    print(f"wrote {out}")
    return EXIT_NUMERICAL if record.aborted else EXIT_OK


def _sweep_cell_config(cfg: ExperimentConfig, axis: str, value: str,
                       seed_index: int) -> ExperimentConfig:
    cfg = replace(cfg, seed=cfg.seed + seed_index)
    if axis == "method":
        return replace(cfg, method=value)
    if axis == "epsilon":
        return replace(cfg, privacy=replace(cfg.privacy, epsilon=float(value),
                                            enabled=True))
    if axis == "topology":
        return replace(cfg, topology=replace(cfg.topology, family=value))
    raise ConfigError(f"unknown sweep axis {axis!r}")


def _run_cell(job):
    value, seed_index, cfg, path = job
    record = simulator.run(cfg.validate())
    with open(path, "w", encoding="utf-8") as f:
        f.write(record.to_csv())
    last = record.rows[-1]
    return (value, seed_index, path, record.aborted,
            last.train_metric, last.unseen_metric, last.comm_units)


def _cell_outcome(job, result):
    """result() for one cell, or a failed outcome when the cell raises a
    library error or its worker process died."""
    try:
        return result()
    except (WalkmetaError, BrokenProcessPool) as e:
        print(f"cell {job[3]} failed: {e}", file=sys.stderr)
        return (job[0], job[1], job[3], True, float("nan"), float("nan"), 0)


def cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    values = [v for v in args.values.split(",") if v]
    if not values:
        print("sweep: --values must list at least one value", file=sys.stderr)
        return EXIT_USAGE
    if args.seeds < 1:
        print("sweep: --seeds must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.config))[0]

    jobs = []
    for value in values:
        for s in range(args.seeds):
            cell = _sweep_cell_config(cfg, args.axis, value, s)
            path = os.path.join(outdir, f"{stem}_{args.axis}-{value}_seed{s}.csv")
            jobs.append((value, s, cell, path))
    # validate every cell before burning compute on any of them
    for _, _, cell, _ in jobs:
        cell.validate()

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(_run_cell, job) for job in jobs]
            outcomes = [_cell_outcome(job, fut.result)
                        for job, fut in zip(jobs, futures)]
    else:
        outcomes = [_cell_outcome(job, partial(_run_cell, job)) for job in jobs]

    summary_path = os.path.join(outdir, f"{stem}_{args.axis}_summary.csv")
    lines = ["value,n_seeds,n_failed,train_mean,train_std,"
             "unseen_mean,unseen_std,comm_units_mean"]
    for value in values:
        cells = [o for o in outcomes if o[0] == value]
        ok = [o for o in cells if not o[3] and np.isfinite(o[4])]
        tr = np.array([o[4] for o in ok])
        un = np.array([o[5] for o in ok])
        cm = np.array([o[6] for o in ok], dtype=float)
        if ok:
            stats = (tr.mean(), tr.std(), un.mean(), un.std(), cm.mean())
            # numpy 2 reprs its scalars as np.float64(x); write plain floats
            lines.append(f"{value},{len(cells)},{len(cells) - len(ok)},"
                         + ",".join(repr(float(x)) for x in stats))
        else:
            lines.append(f"{value},{len(cells)},{len(cells)},nan,nan,nan,nan,nan")
    with open(summary_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    for _, _, path, *_ in outcomes:
        print(f"wrote {path}")
    print(f"wrote {summary_path}")
    return EXIT_OK


def cmd_report(args) -> int:
    if args.metric not in _METRICS:
        print(f"report: metric must be one of {_METRICS}", file=sys.stderr)
        return EXIT_USAGE
    series = []
    for path in args.csvs:
        try:
            with open(path, "r", encoding="utf-8") as f:
                _, rows = simulator.read_run_csv(f.read())
        except (OSError, ValueError, ParameterError) as e:
            print(f"report: cannot read {path}: {e}", file=sys.stderr)
            return EXIT_USAGE
        label = os.path.splitext(os.path.basename(path))[0]
        xs = [float(r.comm_units) for r in rows]
        ys = [getattr(r, args.metric) for r in rows]
        series.append((label, xs, ys))
    svg = render_svg(series, y_label=args.metric)
    with open(args.output, "w", encoding="utf-8") as f:
        f.write(svg)
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_topo(args) -> int:
    cfg = parse_config(args.config)
    g = cfg.build_graph()
    tm = cfg.build_transition()
    print(f"n={g.n} edges={g.num_edges()}")
    print(f"sigma2={topology.sigma2(tm)!r}")
    try:
        pi = topology.stationary_distribution(tm)
        print("stationary=" + " ".join(f"{v:.6g}" for v in pi))
    except WalkmetaError as e:
        print(f"stationary: {e}")
    for i, j in sorted(g.edges()):
        print(f"{i} {j}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="walkmeta",
        description="Random-walk decentralized meta-learning simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured experiment")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a grid over one axis")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, choices=_SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")
    p_sweep.add_argument("--seeds", type=int, default=3)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--outdir", default=".")
    p_sweep.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("report", help="render run CSVs as an SVG chart")
    p_rep.add_argument("csvs", nargs="+")
    p_rep.add_argument("--metric", default="train_metric")
    p_rep.add_argument("-o", "--output", required=True)
    p_rep.set_defaults(func=cmd_report)

    p_topo = sub.add_parser("topo", help="print the configured topology")
    p_topo.add_argument("config")
    p_topo.set_defaults(func=cmd_topo)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
