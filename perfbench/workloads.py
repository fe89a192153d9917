"""The four benchmark workloads: what one pass runs, how its outputs are
checked, and how the learned parameters are scored.

A pass is the unit of timed work: one training run (`sine_d1761`,
`sine_private_d25`), one `walkmeta sweep` (`blob_sweep`) or one set of
eight `walkmeta topo` cases (`topo_n300`). A workload owns a panel of
passes, each with its own `ExperimentConfig.seed`. The panel for
benchmark seed s starts at config seed s * seeds_per_panel, so different
benchmark seeds use disjoint config seeds.

Every function here reaches walkmeta through its public API or its CLI.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import shutil
from dataclasses import dataclass, field, replace

import numpy as np

from walkmeta import cli, metalearn, simulator, topology
from walkmeta.config import ExperimentConfig, parse_config, parse_config_text
from walkmeta.optimizer import HyperParams
from walkmeta.privacy import PrivacyParams
from walkmeta.tasks import assign_clients

# Held-out clients scored for unseen_meta_loss. Their ids follow the training
# ids, so the first n_unseen of them are the run's own unseen clients.
HELD_OUT = 100


@dataclass
class Op:
    """One checked operation: a run, a sweep cell, a summary file or a
    topology case. `cause` is empty when every check passed."""
    name: str
    cause: str = ""


@dataclass
class PassOutput:
    texts: dict[str, str]                       # every output, for byte checks
    final: list = field(default_factory=list)   # (cfg, final ParamVector)


def guarded(check, *args) -> str:
    """Run a check; output it cannot parse is a failed check, not a crash."""
    try:
        return check(*args)
    except (ValueError, IndexError, KeyError) as e:
        return f"unparseable output: {type(e).__name__}: {e}"


def check_run_csv(text: str, method: str, n_active: int, T: int) -> str:
    """Empty string when the run CSV passes every check, else the cause."""
    header, rows = simulator.read_run_csv(text)
    if "aborted" in header:
        return f"aborted: {header['aborted']}"
    if not rows or rows[-1].iteration != T:
        return f"last row is iteration {rows[-1].iteration if rows else None}, not T={T}"
    units = simulator.comm_cost(simulator.MethodKind(method, n_active))
    for r in rows:
        if not all(map(math.isfinite, (r.train_metric, r.unseen_metric, r.grad_norm_sq))):
            return f"non-finite metric at iteration {r.iteration}"
        if r.comm_units != r.iteration * units:
            return (f"comm_units {r.comm_units} at iteration {r.iteration}, "
                    f"expected {r.iteration * units}")
    if simulator.RunRecord(rows=rows, header=header).to_csv() != text:
        return "CSV does not round-trip through read_run_csv"
    return ""


def meta_losses(cfg: ExperimentConfig, w) -> tuple[float, float]:
    """Mean meta-loss of w over the training clients and over HELD_OUT
    held-out clients of cfg's seed."""
    a = assign_clients(cfg.n_training, HELD_OUT, cfg.task, cfg.seed)
    h = cfg.hyper

    def mean(tasks):
        return float(np.mean([metalearn.meta_loss(w, t, h.alpha, h.K)
                              for t in tasks.values()]))
    return mean(a.training), mean(a.unseen)


@contextlib.contextmanager
def capture(owner, attr: str):
    """Record what owner.attr returns while the block runs."""
    fn = getattr(owner, attr)
    seen = []

    def recorder(*args, **kwargs):
        out = fn(*args, **kwargs)
        seen.append((args, out))
        return out
    setattr(owner, attr, recorder)
    try:
        yield seen
    finally:
        setattr(owner, attr, fn)


# ---------------------------------------------------------------------
# training through the library API

class WalkWorkload:
    """One `simulator.run` per pass; its CSV text is the output."""

    def __init__(self, name, panel, make_config):
        self.name = name
        self.panel = panel
        self.make_config = make_config

    def prepare(self, seed, workdir):
        return [self.make_config(seed * self.panel + j) for j in range(self.panel)]

    def setup_config(self, seed):
        return self.make_config(seed * self.panel)

    def iterations(self, cfg) -> int:
        return cfg.T

    def run(self, cfg) -> PassOutput:
        rec = simulator.run(cfg)
        return PassOutput({"run.csv": rec.to_csv()}, [(cfg, rec.final_params)])

    def finals(self, cfg, out: PassOutput):
        return out.final

    def check(self, cfg, out: PassOutput) -> list[Op]:
        return [Op(f"run seed={cfg.seed}",
                   guarded(check_run_csv, out.texts["run.csv"], cfg.method,
                           cfg.n_active, cfg.T))]


def sine_d1761_config(seed: int) -> ExperimentConfig:
    # The reference run (all defaults, d=1761), shortened from T=2000 so a
    # panel of seeds fits in one run; eval_every=50 keeps evaluation's share.
    return ExperimentConfig(T=200, seed=seed)


def sine_private_d25_config(seed: int) -> ExperimentConfig:
    # Privacy settings of acceptance criterion c09, evaluation only at 0 and T.
    return ExperimentConfig(
        hidden=(8,), T=1000, eval_every=1000, seed=seed,
        hyper=HyperParams(eta=0.001, lam=1.0),
        privacy=PrivacyParams(epsilon=0.5, delta=0.3, m_meta=1.0, enabled=True))


# ---------------------------------------------------------------------
# `walkmeta sweep --axis method`

SWEEP_METHODS = ("lodmeta", "lodmeta_sgd", "lodmeta_basic", "centralized_maml")
SWEEP_SEEDS = 2
BLOB_CONFIG = """\
[task]
kind = blob
[run]
T = 60
eval_every = 20
seed = {seed}
"""


@dataclass(frozen=True)
class SweepPass:
    seed: int
    config_path: str
    outdir: str


class SweepWorkload:
    name = "blob_sweep"
    panel = 4   # sweeps per panel, each over SWEEP_SEEDS config seeds

    def prepare(self, seed, workdir):
        passes = []
        for j in range(self.panel):
            s = (seed * self.panel + j) * SWEEP_SEEDS
            d = os.path.join(workdir, f"sweep{j}")
            os.makedirs(d, exist_ok=True)
            path = os.path.join(d, "blob.cfg")
            with open(path, "w", encoding="utf-8") as f:
                f.write(BLOB_CONFIG.format(seed=s))
            passes.append(SweepPass(s, path, os.path.join(d, "out")))
        return passes

    def setup_config(self, seed):
        return parse_config_text(BLOB_CONFIG.format(seed=seed * self.panel * SWEEP_SEEDS))

    def iterations(self, p: SweepPass) -> int:
        return parse_config(p.config_path).T * len(SWEEP_METHODS) * SWEEP_SEEDS

    def _argv(self, p: SweepPass):
        return ["sweep", p.config_path, "--axis", "method",
                "--values", ",".join(SWEEP_METHODS), "--seeds", str(SWEEP_SEEDS),
                "--jobs", "1", "--outdir", p.outdir]

    def run(self, p: SweepPass) -> PassOutput:
        shutil.rmtree(p.outdir, ignore_errors=True)
        with capture(simulator, "run") as runs, \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self._argv(p))
        texts = {"exit": str(code)}
        for name in sorted(os.listdir(p.outdir)):
            with open(os.path.join(p.outdir, name), encoding="utf-8") as f:
                texts[name] = f.read()
        shutil.rmtree(p.outdir)
        return PassOutput(texts, [(args[0], rec.final_params) for args, rec in runs])

    def finals(self, p: SweepPass, out: PassOutput):
        return out.final

    def check(self, p: SweepPass, out: PassOutput) -> list[Op]:
        cfg = parse_config(p.config_path)
        ops, finals = [], {}
        for method in SWEEP_METHODS:
            for s in range(SWEEP_SEEDS):
                name = f"blob_method-{method}_seed{s}.csv"
                text = out.texts.get(name)
                cause = ("missing" if text is None else
                         guarded(check_run_csv, text, method, cfg.n_active, cfg.T))
                ops.append(Op(f"cell {method} seed={p.seed + s}", cause))
                if not cause:
                    finals[method, s] = simulator.read_run_csv(text)[1][-1]
        summary = out.texts.get("blob_method_summary.csv")
        if out.texts["exit"] != "0":
            cause = f"sweep exit code {out.texts['exit']}"
        elif summary is None:
            cause = "missing"
        else:
            cause = guarded(_check_summary, summary, finals)
        ops.append(Op(f"summary seed={p.seed}", cause))
        return ops


NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


def _check_summary(text: str, finals: dict) -> str:
    """Every field after the value column parses as a number, and the means
    agree with the cells' last rows. A field written as a numpy repr,
    np.float64(x), fails the first check, but x is still read so that the
    other checks run; all causes are joined with "; "."""
    causes, reprs = [], []
    for line in text.splitlines()[1:]:
        value, *fields = line.split(",")
        numbers = []
        for f in fields:
            m = NUMPY_REPR.fullmatch(f)
            if m:
                reprs.append((f, value))
                f = m.group(1)
            try:
                numbers.append(float(f))
            except ValueError:
                causes.append(f"field {f!r} of row {value!r} is not a number")
                break
        else:
            causes += _check_summary_row(value, numbers, finals)
    if reprs:
        f, value = reprs[0]
        causes.insert(0, f"{len(reprs)} fields are numpy reprs, not numbers, "
                         f"e.g. {f!r} in row {value!r}")
    return "; ".join(causes)


def _check_summary_row(value: str, numbers: list, finals: dict) -> list[str]:
    n_seeds, n_failed, train_mean, _, unseen_mean, _, comm_mean = numbers
    cells = [finals.get((value, s)) for s in range(int(n_seeds))]
    if n_failed != 0 or None in cells:
        return [f"row {value!r} reports {n_failed:g} failed cells"]
    causes = []
    for got, attr in ((train_mean, "train_metric"), (unseen_mean, "unseen_metric"),
                      (comm_mean, "comm_units")):
        want = float(np.mean([getattr(c, attr) for c in cells]))
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            causes.append(f"row {value!r}: {attr} mean {got!r}, cells give {want!r}")
    return causes


# ---------------------------------------------------------------------
# `walkmeta topo`

TOPO_FAMILIES = ("ring", "small_world", "regular", "star")
TOPO_SCHEMES = (topology.SCHEME_METROPOLIS, topology.SCHEME_UNIFORM)
TOPO_N = 300
TOPO_LAZINESS = 0.1
SIGMA2_TOLERANCE = 1e-6
TOPO_CONFIG = """\
[topology]
family = {family}
scheme = {scheme}
n = {n}
laziness = {laziness}
[clients]
n_training = {n}
[run]
seed = {seed}
"""


@dataclass(frozen=True)
class TopoPass:
    seed: int
    cases: tuple[tuple[str, str, str], ...]   # (family, scheme, config path)


class TopoWorkload:
    name = "topo_n300"
    panel = 4

    def prepare(self, seed, workdir):
        passes = []
        for j in range(self.panel):
            s = seed * self.panel + j
            cases = []
            for family in TOPO_FAMILIES:
                for scheme in TOPO_SCHEMES:
                    path = os.path.join(workdir, f"topo{j}_{family}_{scheme}.cfg")
                    with open(path, "w", encoding="utf-8") as f:
                        f.write(TOPO_CONFIG.format(family=family, scheme=scheme,
                                                   n=TOPO_N, laziness=TOPO_LAZINESS,
                                                   seed=s))
                    cases.append((family, scheme, path))
            passes.append(TopoPass(s, tuple(cases)))
        return passes

    def setup_config(self, seed):
        return parse_config_text(TOPO_CONFIG.format(
            family=TOPO_FAMILIES[0], scheme=TOPO_SCHEMES[0], n=TOPO_N,
            laziness=TOPO_LAZINESS, seed=seed * self.panel))

    def iterations(self, p: TopoPass) -> int:
        return len(p.cases)

    def run(self, p: TopoPass) -> PassOutput:
        texts = {}
        for family, scheme, path in p.cases:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["topo", path])
            texts[f"{family}/{scheme}"] = f"exit={code}\n" + buf.getvalue()
        return PassOutput(texts)

    def check(self, p: TopoPass, out: PassOutput) -> list[Op]:
        return [Op(f"topo {family}/{scheme} seed={p.seed}",
                   guarded(_check_topo, out.texts[f"{family}/{scheme}"], path, scheme))
                for family, scheme, path in p.cases]

    def finals(self, p: TopoPass, out: PassOutput):
        # topo_n300 trains nothing: its losses are those of the initial
        # parameters (a T=0 run), scored on the first case's clients.
        cfg = parse_config(p.cases[0][2])
        return [(cfg, simulator.run(replace(cfg, T=0)).final_params)]


def _reference_kernel(adj: np.ndarray, scheme: str, laziness: float):
    """Independent rebuild of the walk kernel and its closed-form stationary
    distribution: uniform for Metropolis, degree-proportional otherwise."""
    n = adj.shape[0]
    deg = adj.sum(axis=1).astype(float)
    if scheme == topology.SCHEME_METROPOLIS:
        base = np.where(adj, 1.0 / np.maximum(deg[:, None], deg[None, :]), 0.0)
        base[np.diag_indices(n)] = 1.0 - base.sum(axis=1)
        pi = np.full(n, 1.0 / n)
    else:
        base = adj / deg[:, None]
        pi = deg / deg.sum()
    return laziness * np.eye(n) + (1.0 - laziness) * base, pi


def reference_spectrum(adj: np.ndarray, scheme: str) -> tuple[float, np.ndarray]:
    """sigma2 and pi of the walk kernel on adj, computed independently."""
    P, pi = _reference_kernel(adj, scheme, TOPO_LAZINESS)
    # P is reversible with respect to pi, so D^1/2 P D^-1/2 is symmetric.
    r = np.sqrt(pi)
    eig = np.linalg.eigvalsh(r[:, None] * P / r[None, :])
    return float(np.max(np.abs(eig[:-1]))), pi


def _check_topo(text: str, path: str, scheme: str) -> str:
    lines = text.splitlines()
    if lines[0] != "exit=0":
        return lines[0]
    n = int(lines[1].split()[0].partition("=")[2])
    n_edges = int(lines[1].split()[1].partition("=")[2])
    sig = float(lines[2].partition("=")[2])
    if not lines[3].startswith("stationary="):
        return f"no stationary distribution: {lines[3]!r}"
    edges = [tuple(map(int, ln.split())) for ln in lines[4:]]
    if len(edges) != n_edges:
        return f"{len(edges)} edges listed, header says {n_edges}"
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    sigma2_ref, pi_ref = reference_spectrum(adj, scheme)
    if not 0.0 <= sig <= 1.0:
        return f"sigma2={sig!r} outside [0, 1]"
    if abs(sig - sigma2_ref) > SIGMA2_TOLERANCE:
        return (f"sigma2 {sig!r} is {abs(sig - sigma2_ref):.2e} from the "
                f"eigvalsh reference {sigma2_ref!r}")
    # pi is deterministic for a given config: recompute it at full precision
    pi = topology.stationary_distribution(parse_config(path).build_transition())
    if pi.shape != (n,):
        return f"stationary distribution has shape {pi.shape}, expected ({n},)"
    if np.max(np.abs(pi - pi_ref)) > 1e-9:
        return f"stationary distribution off by {np.max(np.abs(pi - pi_ref)):.3g}"
    if lines[3] != "stationary=" + " ".join(f"{v:.6g}" for v in pi):
        return "printed stationary distribution differs from the computed one"
    return ""


WORKLOADS = {
    "sine_d1761": WalkWorkload("sine_d1761", 24, sine_d1761_config),
    "sine_private_d25": WalkWorkload("sine_private_d25", 12, sine_private_d25_config),
    "blob_sweep": SweepWorkload(),
    "topo_n300": TopoWorkload(),
}
