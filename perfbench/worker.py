"""Workload process, started by run.py in a fresh single-threaded interpreter.

    worker.py setup --workload W --seed S
        Builds the workload's first configuration (validation, client
        assignment, graph and transition matrix) and prints the monotonic
        clock reading when done; run.py subtracts its spawn time.

    worker.py baseline
        Imports numpy and prints the monotonic clock reading: the part of
        set-up that no walkmeta change can touch, timed as a reference.

    worker.py run --workload W --seed S --seconds N --trace 0|1 --workdir D
        Runs passes of the workload for N seconds (at least one full panel)
        and prints one JSON line with metrics, checked operations and the
        environment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time


def setup(args):
    import walkmeta.cli  # noqa: F401  (the CLI workloads load it too)
    from workloads import WORKLOADS
    cfg = WORKLOADS[args.workload].setup_config(args.seed).validate()
    cfg.build_assignment()
    cfg.build_transition()
    print(repr(time.monotonic()))


def baseline(args):
    import numpy  # noqa: F401
    print(repr(time.monotonic()))


def fail(op, cause: str):
    """op with cause added to its causes, once."""
    from workloads import Op
    causes = op.cause.split("; ") if op.cause else []
    return op if cause in causes else Op(op.name, "; ".join(causes + [cause]))


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Runner:
    """Runs passes, checks every output and keeps the first output of each
    panel seed; a repeated seed must reproduce it byte for byte.

    An operation is counted once per panel seed, however many times its pass
    repeats, so `attempted` and `failed` depend on the seed only and not on
    how many passes fit in the run. A repeat whose outputs differ fails the
    operations of its seed."""

    def __init__(self, wl, passes):
        self.wl = wl
        self.passes = passes
        self.first: dict[int, tuple] = {}   # panel index -> (pass, output, ops)
        self.traced_ops: dict[int, object] = {}   # panel index -> Op

    def timed(self, i):
        p = self.passes[i % len(self.passes)]
        t0 = time.perf_counter()
        out = self.wl.run(p)
        return p, out, time.perf_counter() - t0

    def check(self, i, p, out):
        j = i % len(self.passes)
        if j not in self.first:
            self.first[j] = (p, out, self.wl.check(p, out))
        elif out.texts != self.first[j][1].texts:
            p, first, ops = self.first[j]
            self.first[j] = (p, first, [
                fail(op, "output differs on a repeat of this pass") for op in ops])

    def check_traced(self, i, p, same: bool):
        """One operation per panel seed: every traced pass on it reproduced
        the untraced outputs."""
        from workloads import Op
        j = i % len(self.passes)
        op = self.traced_ops.setdefault(j, Op(f"traced pass seed={p.seed}"))
        if not same:
            self.traced_ops[j] = fail(op, "traced output differs from untraced output")

    @property
    def ops(self):
        return ([op for j in sorted(self.first) for op in self.first[j][2]]
                + [self.traced_ops[j] for j in sorted(self.traced_ops)])

    def losses(self):
        from workloads import meta_losses
        scored = [meta_losses(cfg, w) for p, out, _ in self.first.values()
                  for cfg, w in self.wl.finals(p, out)]
        return (statistics.fmean(s[0] for s in scored),
                statistics.fmean(s[1] for s in scored))


# The host's speed drifts by up to a third over tens of seconds (shared
# physical cores), and whole runs land in a fast or a slow phase. A fixed
# numpy kernel that no walkmeta change can touch is timed between passes;
# each pass's wall time is scaled to the speed at which that kernel takes
# REFERENCE_S, so a run's timings do not depend on the phase it landed in.
# The kernel is timed three times and the median kept, so that one
# preemption during a 9 ms kernel does not skew a pass.
REFERENCE_S = 0.009


def reference_s() -> float:
    import numpy as np
    times = []
    for _ in range(3):
        x = np.linspace(-1.0, 1.0, 400).reshape(10, 40)
        w = np.linspace(-0.2, 0.2, 1600).reshape(40, 40)
        t0 = time.perf_counter()
        for _ in range(600):
            h = np.tanh(x @ w)
            x = x + 1e-3 * ((1.0 - h * h) @ w.T)
            sum(range(30))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_untraced(wl, runner, seconds):
    walls, scaled = [], []
    ref = reference_s()
    start = time.perf_counter()
    i = 0
    while i < len(runner.passes) or time.perf_counter() - start < seconds:
        p, out, wall = runner.timed(i)
        ref_after = reference_s()
        walls.append(wall)
        scaled.append(wall * REFERENCE_S / (0.5 * (ref + ref_after)))
        ref = ref_after
        runner.check(i, p, out)
        i += 1
    # before scoring, which is the benchmark's own work
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall_s = statistics.median(scaled)
    t0 = time.perf_counter()
    train, unseen = runner.losses()
    score_s = time.perf_counter() - t0
    return {
        "wall_s": (wall_s, "s"),
        "iter_ms": (1e3 * wall_s / wl.iterations(runner.passes[0]), "ms"),
        "final_meta_loss": (train, "loss"),
        "unseen_meta_loss": (unseen, "loss"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }, {"passes": len(walls), "measure_s": round(time.perf_counter() - start, 3),
        "score_s": round(score_s, 3),
        "unscaled_wall_s": statistics.median(walls),
        "pass_quartiles_s": [round(q, 4) for q in statistics.quantiles(walls, n=4)]}


def run_traced(wl, runner, seconds):
    """Pairs of passes on the same seed, one untraced and one traced. Every
    per-layer figure is the median over the traced passes of a per-pass value."""
    from tracer import TARGETS, WATCH, Tracer
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        p, out, wall = runner.timed(i)
        plain.append(wall)
        runner.check(i, p, out)
        with Tracer() as tr:
            _, tout, twall = runner.timed(i)
        traced.append(twall)
        tracers.append(tr)
        runner.check_traced(i, p, tout.texts == out.texts)
        i += 1

    med = statistics.median
    iters = wl.iterations(runner.passes[0])
    m = {}
    for mod, attr in TARGETS:
        name = f"{mod}.{attr}"
        calls = med([t.calls[name] for t in tracers])
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_ms"] = (med([1e3 * t.self_s[name] for t in tracers]), "ms")
        m[f"{name}.us_per_call"] = (med([1e6 * t.total_s[name] / t.calls[name]
                                         if t.calls[name] else 0.0 for t in tracers]), "us")
    for parent, children in WATCH.items():
        short = parent.split(".")[1].removesuffix("_exact")
        for child in children:
            counts = [c for t in tracers for c in t.child_counts[(parent, child)]]
            m[f"{child}.per_{short}"] = (med(counts) if counts else 0.0, "count")
    m["simulator.evaluate.share"] = (med([t.total_s["simulator.evaluate"] / w
                                          for t, w in zip(tracers, traced)]), "ratio")
    m["model.grad.calls_per_iter"] = (m["model.grad.calls"][0] / iters, "count")
    m["metalearn.inner_loop.unique_share"] = (med([
        t.eval_unique_inner_loops / t.eval_inner_loops if t.eval_inner_loops else 0.0
        for t in tracers]), "ratio")
    # per pair, so that drift in machine speed between pairs cancels
    m["trace.overhead_share"] = (med([t / p - 1.0 for t, p in zip(traced, plain)]),
                                 "ratio")
    exact = {f"{n}.calls": sorted({t.calls[n] for t in tracers})
             for n in (f"{mo}.{a}" for mo, a in TARGETS)}
    varying = {k: v for k, v in exact.items() if len(v) > 1}
    return m, {"passes": len(traced), "calls_vary_between_passes": varying}


def run(args):
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    passes = wl.prepare(args.seed, args.workdir)
    if args.trace:
        # The traced run measures layers, not what is learned: the panel's
        # first seed is enough, and keeps the run's operations a fixed set.
        passes = passes[:1]
    runner = Runner(wl, passes)
    if args.trace:
        metrics, info = run_traced(wl, runner, args.seconds)
    else:
        metrics, info = run_untraced(wl, runner, args.seconds)
    ops = [(op.name, op.cause) for op in runner.ops]
    info["env"] = environment()
    print(json.dumps({"metrics": metrics, "ops": ops, "info": info}))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "baseline", "run"))
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", default="")
    args = ap.parse_args(argv)
    {"setup": setup, "baseline": baseline, "run": run}[args.mode](args)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
