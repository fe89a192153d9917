"""Comparing methods per communication unit, not per iteration.

Runs four training protocols on the same clients, prepared once, from the
same initial point, and plots train meta-loss against cumulative
communication cost: the token walk pays 1 unit per iteration, the variant
that ships optimizer state pays 3, and the centralized baseline pays 2 units
per sampled client per round. Writes comparison.svg next to this script.
"""

import os
from dataclasses import replace

import numpy as np

from walkmeta import simulator
from walkmeta.config import ExperimentConfig
from walkmeta.report import render_svg

base = ExperimentConfig(T=2000, eval_every=100, seed=0)
methods = {
    "token walk (adaptive)": replace(base, method="lodmeta"),
    "token walk (sgd)": replace(base, method="lodmeta_sgd"),
    "token + shipped aux": replace(base, method="lodmeta_basic"),
    "centralized (4 clients/round)": replace(base, method="centralized_maml",
                                             n_active=4, T=500),
}

# one client set for all four runs: its row 0 is evaluated once
clients = simulator.Clients(base.build_assignment(), base.build_arch(), base.hyper)

series = []
print(f"{'method':30s} {'final loss':>10s} {'total comm':>10s}")
for label, cfg in methods.items():
    rec = simulator.run(cfg, clients)
    xs = [float(r.comm_units) for r in rec.rows]
    ys = [r.train_metric for r in rec.rows]
    series.append((label, xs, ys))
    print(f"{label:30s} {ys[-1]:10.4f} {int(xs[-1]):10d}")

# Communication to first reach a loss every method eventually attains.
target = 1.1 * max(min(ys) for _, _, ys in series)
print(f"\ncommunication units to reach meta-loss {target:.3f}:")
for label, xs, ys in series:
    hit = next((x for x, y in zip(xs, ys) if y <= target), None)
    print(f"  {label:30s} {'never' if hit is None else int(hit)}")

out = os.path.join(os.path.dirname(__file__), "comparison.svg")
with open(out, "w") as f:
    f.write(render_svg(series, x_label="communication units",
                       y_label="train meta-loss"))
print(f"\nwrote {out}")
