"""Command-line entry points: run, sweep, report, topo.

Exit codes: 0 success, 1 usage or library error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import simulator, topology
from .config import ExperimentConfig, parse_config, parse_value, with_keys
from .errors import NumericalError, WalkmetaError
from .report import render_svg

EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL = 0, 1, 2

# sweep axis -> the config key its values set
_SWEEP_KEYS = {"method": "method.kind", "epsilon": "privacy.epsilon",
               "topology": "topology.family"}
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


def _run_and_write(cfg: ExperimentConfig, path: str) -> simulator.RunRecord:
    record = simulator.run(cfg)
    with open(path, "w", encoding="utf-8") as f:
        f.write(record.to_csv())
    return record


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    out = cfg.output or _default_output(args.config)
    record = _run_and_write(cfg, out)
    _print_summary(record)
    print(f"wrote {out}")
    return EXIT_NUMERICAL if record.aborted else EXIT_OK


def _sweep_cell_config(cfg: ExperimentConfig, axis: str, value: str,
                       seed_index: int) -> ExperimentConfig:
    key = _SWEEP_KEYS[axis]
    keys = {"run.seed": cfg.seed + seed_index, key: parse_value(key, value)}
    if axis == "epsilon":
        keys["privacy.enabled"] = True
    return with_keys(cfg, keys)


def cmd_sweep(args) -> int:
    """Runs the cells one at a time, in this process. A cell that raises a
    library error counts as failed and writes no CSV; the others go on."""
    cfg = parse_config(args.config)
    values = [v for v in args.values.split(",") if v]
    # a repeated value would run its cells twice into the same CSVs
    repeated = sorted({v for v in values if values.count(v) > 1})
    problem = ("--values must list at least one value" if not values else
               f"--values repeats {','.join(repeated)}" if repeated else
               "--seeds must be >= 1" if args.seeds < 1 else
               "--jobs must be 1: cells run one at a time in this process"
               if args.jobs != 1 else "")
    if problem:
        print(f"sweep: {problem}", file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(args.outdir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.config))[0]

    cells = []
    for value in values:
        for s in range(args.seeds):
            # validated here, before burning compute on any cell
            cell = _sweep_cell_config(cfg, args.axis, value, s).validate()
            path = os.path.join(args.outdir, f"{stem}_{args.axis}-{value}_seed{s}.csv")
            cells.append((value, cell, path))

    written = []
    finals = {value: [] for value in values}  # (train, unseen, comm) per finished cell
    for value, cell, path in cells:
        try:
            record = _run_and_write(cell, path)
        except WalkmetaError as e:
            print(f"cell {path} failed: {e}", file=sys.stderr)
            continue
        written.append(path)
        last = record.rows[-1]
        if not record.aborted and np.isfinite(last.train_metric):
            finals[value].append((last.train_metric, last.unseen_metric,
                                  last.comm_units))

    summary_path = os.path.join(args.outdir, f"{stem}_{args.axis}_summary.csv")
    lines = ["value,n_seeds,n_failed,train_mean,train_std,"
             "unseen_mean,unseen_std,comm_units_mean"]
    for value, ok in finals.items():
        if ok:
            tr, un, cm = (np.array(column, dtype=float) for column in zip(*ok))
            stats = (tr.mean(), tr.std(), un.mean(), un.std(), cm.mean())
            # numpy 2 reprs its scalars as np.float64(x); write plain floats
            lines.append(f"{value},{args.seeds},{args.seeds - len(ok)},"
                         + ",".join(repr(float(x)) for x in stats))
        else:
            lines.append(f"{value},{args.seeds},{args.seeds},nan,nan,nan,nan,nan")
    with open(summary_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    for path in written + [summary_path]:
        print(f"wrote {path}")
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
        except (OSError, ValueError) as e:
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
    tm = cfg.build_transition(g)
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
    p_sweep.add_argument("--axis", required=True, choices=tuple(_SWEEP_KEYS))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")
    p_sweep.add_argument("--seeds", type=int, default=3)
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="must be 1; kept so that older command lines parse")
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
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (WalkmetaError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
