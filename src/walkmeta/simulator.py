"""Training protocols over the network, with communication accounting.

The four protocols run one loop and differ only in their entry in
`config.METHOD_TABLE`: a token carrying the meta-parameters moves through
the graph (walk methods) or a server samples clients each round
(centralized). Per-iteration communication is charged in relative units:
1 for a bare parameter payload, 3 when momentum and preconditioner travel
too, 2 per active client for centralized download+upload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from . import metalearn, model, optimizer, privacy, topology
from .config import METHOD_TABLE, ExperimentConfig, MethodKind, comm_cost, config_echo
from .errors import NumericalError, ParameterError
from .model import HEAD_XENT, ParamVector
from .tasks import ClientAssignment

_INIT_STREAM, _WALK_STREAM, _NOISE_STREAM = 11, 13, 17


@dataclass(frozen=True)
class EvalRow:
    iteration: int
    comm_units: int
    active_client: int
    train_metric: float
    unseen_metric: float
    grad_norm_sq: float


@dataclass
class Trace:
    """Full per-iteration record, kept only when requested (tests/debugging)."""
    active: list[int] = field(default_factory=list)
    w: list[np.ndarray] = field(default_factory=list)  # w_0 .. w_T


@dataclass
class RunRecord:
    rows: list[EvalRow]
    header: dict
    dp_report: privacy.DpReport | None = None
    aborted: bool = False
    abort_reason: str = ""
    trace: Trace | None = None
    final_params: ParamVector | None = None

    def to_csv(self) -> str:
        lines = [f"# {k}={v}" for k, v in self.header.items()]
        if self.dp_report is not None:
            lines += [f"# {k}={v}" for k, v in self.dp_report.as_dict().items()]
        if self.aborted:
            lines.append(f"# aborted={self.abort_reason}")
        lines.append("iteration,comm_units,active_client,"
                     "train_metric,unseen_metric,grad_norm_sq")
        for r in self.rows:
            lines.append(f"{r.iteration},{r.comm_units},{r.active_client},"
                         f"{r.train_metric!r},{r.unseen_metric!r},{r.grad_norm_sq!r}")
        return "\n".join(lines) + "\n"


def read_run_csv(text: str) -> tuple[dict, list[EvalRow]]:
    header: dict[str, str] = {}
    rows: list[EvalRow] = []
    saw_columns = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            header[key] = val
            continue
        if not saw_columns:
            saw_columns = True  # column header line
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise ParameterError(f"malformed CSV row at line {lineno}: {line!r}")
        rows.append(EvalRow(int(parts[0]), int(parts[1]), int(parts[2]),
                            float(parts[3]), float(parts[4]), float(parts[5])))
    return header, rows


# ---------------------------------------------------------------------
# evaluation

# Clients adapted side by side in evaluation and centralized rounds. The
# per-client arithmetic is unchanged. Larger blocks buy little time for their
# memory. perfbench, one run each at blocks 4/8/26 (2-core x86, one BLAS
# thread, numpy 2.4): sine_d1761 peak_rss_mb 40.5/41.9/47.4 and iter_ms
# 0.94/0.97/0.93; blob_sweep peak_rss_mb 41.4/44.5/55.2 and iter_ms
# 2.20/1.77/2.19, with a second pair at 4/8 of 2.32/2.13 ms and 41.5/44.7 MB.
_CLIENT_BLOCK = 4


class Clients:
    """A set of clients prepared once for many runs and adaptations: each
    client's checked (support, query) batches and the workspace for their
    sizes (one per distinct pair of sizes, normally one); `training` by
    client id, `unseen` as a list. The workspaces come from `workspaces`
    when given, a dict that callers share, keyed by all a workspace is
    bound to: (arch, K, alpha, support size, query size)."""

    def __init__(self, assignment: ClientAssignment, arch: model.Arch,
                 h: optimizer.HyperParams, workspaces: dict | None = None):
        workspaces = {} if workspaces is None else workspaces
        self.arch, self.K, self.alpha = arch, h.K, h.alpha
        self._initial = {}  # evaluate's triple by the bytes of w

        def prepare(task):
            support = model.check_batch(arch, task.support)
            query = model.check_batch(arch, task.query)
            sizes = (len(support[0]), len(query[0]))
            key = (arch, h.K, h.alpha, *sizes)
            if key not in workspaces:
                workspaces[key] = metalearn.Workspace(arch, *sizes, h.K, h.alpha,
                                                      _CLIENT_BLOCK)
            return support, query, workspaces[key]

        self.training = {cid: prepare(t) for cid, t in assignment.training.items()}
        self.unseen = [prepare(t) for t in assignment.unseen.values()]

    def evaluate_initial(self, w: np.ndarray) -> tuple[float, float, float]:
        """evaluate(w, self), worked out once per initial point w (d,), told
        apart by its bits: every run from w on these clients has this row 0.
        A failed evaluation is not kept, so it raises again."""
        key = w.tobytes()
        if key not in self._initial:
            self._initial[key] = evaluate(w, self)
        return self._initial[key]


def _client_blocks(clients):
    """Runs of at most _CLIENT_BLOCK consecutive prepared clients that share
    a workspace, as lists."""
    for _, shared in groupby(clients, key=lambda c: c[2]):
        shared = list(shared)
        for start in range(0, len(shared), _CLIENT_BLOCK):
            yield shared[start:start + _CLIENT_BLOCK]


def _adapt_block(w: np.ndarray, block: list, metrics: list | None = None,
                 gsum: np.ndarray | None = None):
    """Adapts a block of prepared clients that share a workspace from w (d,).
    When given, appends each client's adapted query metric to `metrics` and
    adds each client's exact meta-gradient to `gsum`, in client order; one
    inner trajectory per client serves both."""
    n = len(block)
    programs = block[0][2].programs((n,))
    programs.load(np.broadcast_to(w, (n, w.size)), block)
    programs.adapt()
    if metrics is not None:
        metrics += _query_metrics(programs.query)
    if gsum is not None:
        programs.exact()
        for row in programs.query.dir:
            gsum += row


def _mean_meta_gradient(w: np.ndarray, clients: list, g: np.ndarray) -> np.ndarray:
    """The exact meta-gradient at w (d,) averaged over prepared clients,
    written to g and returned: several in client blocks, one in the lone cut."""
    if len(clients) == 1:
        programs = clients[0][2].programs(())
        programs.load(w, clients)
        programs.step()
        np.copyto(g, programs.query.dir)
        return g
    g.fill(0.0)
    for block in _client_blocks(clients):
        _adapt_block(w, block, gsum=g)
    return np.divide(g, len(clients), g)


def _query_metrics(q: model.Tape) -> list[float]:
    """Adapted query metric per row of the query tape `adapt` just wrote:
    accuracy for xent, else the loss."""
    if q.arch.head == HEAD_XENT:
        return [float(np.mean(p == labels)) for p, labels in zip(q.z.argmax(axis=-1), q.t)]
    return model.head_losses(q.arch, q.point, q.z, q.t)


def evaluate(w: np.ndarray, clients: Clients) -> tuple[float, float, float]:
    """(mean adapted query metric on training clients, same on unseen
    clients, squared norm of the averaged exact meta-gradient) at w (d,)."""
    def mean(vals):
        return float(np.mean(vals)) if vals else float("nan")

    train, unseen = [], []
    gsum = np.zeros_like(w)
    with model.quiet():
        for block in _client_blocks(clients.training.values()):
            _adapt_block(w, block, train, gsum)
        for block in _client_blocks(clients.unseen):
            _adapt_block(w, block, unseen)
        gmean = gsum / len(clients.training)
        gnorm_sq = float(gmean @ gmean)
    if not np.isfinite(gnorm_sq):
        raise NumericalError("non-finite meta-gradient norm")
    return mean(train), mean(unseen), gnorm_sq


# ---------------------------------------------------------------------
# runs

class _Tail:
    """A step after its meta-gradient `g` (d,), bound once per run over
    buffers: with `private`, g is clipped to its m_meta and noise drawn;
    Adam over the m/v of each owner (`aux`, a client or -1 for the token or
    server, bound on first use), or SGD, writes `delta`; `w` moves by it.
    The ops are those of optimizer.clip, privacy.sample_perturbation and
    adam_step or sgd_step, in order, so the bits are theirs: the factor
    M / max(|g|, M) is 1.0 when |g| <= M, and noise is 0 + sigma * z."""

    def __init__(self, w: np.ndarray, h: optimizer.HyperParams, adam: bool,
                 private: privacy.PrivacyParams | None = None, rng=None):
        c, d, g, zero = model.const, w.size, np.empty(w.size), model.const(0.0)
        self.w, self.g, self.delta, self._tmp, self._h = w, g, np.empty(d), np.empty(d), h
        self.aux, self._ops, self._flags = {}, {}, np.zeros(2)   # g's and w's checks
        zeros, (gslot, wslot) = np.zeros((d, 1)), self._flags.reshape(2, 1, 1)
        self._pre, self._noise = [], zero
        if private is not None:   # |g|^2, |g|, max(|g|, M), factor: 0-d ops are slow in place
            bound, sigma2 = c(private.m_meta), privacy.noise_sigma(private)
            sq, n, mx, f = (a.reshape(()) for a in np.empty((4, 1, 1)))
            self._pre += [(g.reshape(1, -1).dot, (g[:, None], sq.reshape(1, 1))),
                          (np.sqrt, (sq, n)), (np.fmax, (n, bound, mx)),
                          (np.divide, (bound, mx, f)), (np.multiply, (g, f, g))]
            if sigma2 > 0:   # as Generator.normal; sample_perturbation draws none for 0
                self._noise = z = np.empty(d)
                self._pre += [(rng.standard_normal, (None, np.float64, z)),
                              (np.multiply, (c(math.sqrt(sigma2)), z, z)), (np.add, (zero, z, z))]
        self._check_g = [(g.reshape(1, -1).dot, (zeros, gslot))] if adam else None
        self._move = [(np.add, (w, self.delta, w)), (w.reshape(1, -1).dot, (zeros, wslot))]

    def _bind(self, owner: int) -> list:
        h, c, g, delta, tmp = self._h, model.const, self.g, self.delta, self._tmp
        if self._check_g is None:
            return self._pre + [(np.multiply, (c(-h.eta), g, delta))]
        m, v = self.aux[owner] = np.zeros(g.size), np.zeros(g.size)
        return self._pre + self._check_g + [
            (np.multiply, (c(h.theta), m, m)), (np.multiply, (c(1.0 - h.theta), g, tmp)),
            (np.add, (m, tmp, m)), (np.multiply, (c(h.beta), v, v)),
            (np.multiply, (c(1.0 - h.beta), g, tmp)), (np.multiply, (tmp, g, tmp)),
            (np.add, (v, tmp, v)), (np.add, (m, self._noise, delta)),
            (np.multiply, (c(-h.eta), delta, delta)), (np.add, (v, c(h.lam), tmp)),
            (np.sqrt, (tmp, tmp)), (np.divide, (delta, tmp, delta))]

    def __call__(self, owner: int) -> bool:
        """One update by `owner`'s m/v; False if w is then non-finite."""
        for f, a in self._ops.get(owner) or self._ops.setdefault(owner, self._bind(owner)):
            f(*a)
        if math.isnan(self._flags[0]):
            raise NumericalError("non-finite gradient passed to adam_step")
        for f, a in self._move:
            f(*a)
        return not math.isnan(self._flags[1])


def run(cfg: ExperimentConfig, clients: Clients | None = None) -> RunRecord:
    """The one training loop: validates cfg and runs cfg.method, on
    `clients` when given, prepared for cfg's arch, K and alpha, else on the
    clients cfg builds."""
    cfg.validate()
    spec = METHOD_TABLE[cfg.method]
    h = cfg.hyper
    arch = cfg.build_arch()
    if clients is None:
        clients = Clients(cfg.build_assignment(), arch, h)
    for name, want, got in (("arch", arch, clients.arch), ("K", h.K, clients.K),
                            ("alpha", h.alpha, clients.alpha)):
        if got != want:
            raise ParameterError(f"{name}: clients must be prepared for the config's "
                                 f"{want!r}, got {got!r}")
    n = cfg.n_training
    if sorted(clients.training) != list(range(n)):
        raise ParameterError(f"assignment training ids must be 0 .. {n - 1} "
                             f"(clients.n_training={n}), got {sorted(clients.training)}")
    if spec.walks:  # a server-sampled run never builds the graph
        tm = cfg.build_transition()
    init_ss = np.random.SeedSequence([cfg.seed, _INIT_STREAM])
    walk_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _WALK_STREAM]))
    noise_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _NOISE_STREAM]))
    w = model.init_params(arch, init_ss).values

    per_iter = comm_cost(MethodKind(cfg.method, cfg.n_active))
    noisy = spec.noise and cfg.privacy.enabled
    tail = _Tail(w, h, spec.aux is not None, cfg.privacy if noisy else None, noise_rng)

    current = int(walk_rng.integers(n)) if spec.walks else -1
    comm = 0
    trace = Trace(w=[w.copy()]) if cfg.record_trace else None
    rows = [EvalRow(0, 0, current, *clients.evaluate_initial(w))]
    dp_report = None
    if noisy and cfg.T >= 1:  # the report covers only the chain that adds noise
        dp_report = privacy.account_network_dp(cfg.privacy.epsilon, cfg.privacy.delta,
                                               cfg.delta_hat, cfg.T, cfg.n_training)
    # method.resolved repeats method.kind; kept so run CSVs keep their bytes
    record = RunRecord(rows=rows, header={**config_echo(cfg), "method.resolved": cfg.method},
                       dp_report=dp_report, trace=trace)

    with model.quiet():
        for t in range(cfg.T):
            if spec.walks:
                if t > 0:
                    current = topology.sample_next(tm, current, walk_rng)
                active = [current]
            else:
                active = walk_rng.choice(n, size=cfg.n_active, replace=False)
            comm += per_iter
            try:
                _mean_meta_gradient(w, [clients.training[int(i)] for i in active], tail.g)
                if not tail(current if spec.aux == "client" else -1):
                    step = "iteration" if spec.walks else "round"
                    raise NumericalError(f"non-finite parameters at {step} {t}")
                if trace is not None:
                    trace.active.append(current)
                    trace.w.append(w.copy())
                if (t + 1) % cfg.eval_every == 0 or t + 1 == cfg.T:
                    rows.append(EvalRow(t + 1, comm, current,
                                        *evaluate(w, clients)))
            except NumericalError as e:
                record.aborted = True
                record.abort_reason = str(e)
                rows.append(EvalRow(t + 1, comm, current, *[float("nan")] * 3))
                break
    record.final_params = ParamVector(w, arch)
    return record

