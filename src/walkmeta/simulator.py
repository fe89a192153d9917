"""Training protocols over the network, with communication accounting.

Four protocols share one skeleton: a token carrying the meta-parameters
moves through the graph (walk methods) or between clients and a server
(centralized rounds). Per-iteration communication is charged in relative
units: 1 for a bare parameter payload, 3 when momentum and preconditioner
travel too, 2 per active client for centralized download+upload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import metalearn, model, optimizer, privacy, topology
from .config import ExperimentConfig, config_echo
from .errors import NumericalError, ParameterError
from .model import HEAD_XENT, ParamVector
from .tasks import ClientAssignment

METHOD_LODMETA = "lodmeta"
METHOD_BASIC = "lodmeta_basic"
METHOD_SGD = "lodmeta_sgd"
METHOD_CENTRALIZED = "centralized_maml"

_INIT_STREAM, _WALK_STREAM, _NOISE_STREAM = 11, 13, 17


@dataclass(frozen=True)
class MethodKind:
    kind: str
    n_active: int = 1

    def __post_init__(self):
        if self.kind not in (METHOD_LODMETA, METHOD_BASIC, METHOD_SGD,
                             METHOD_CENTRALIZED):
            raise ParameterError(f"unknown method {self.kind!r}")
        if self.n_active < 1:
            raise ParameterError("n_active must be >= 1")


def comm_cost(mk: MethodKind) -> int:
    """Relative communication units charged per iteration."""
    if mk.kind == METHOD_BASIC:
        return 3
    if mk.kind == METHOD_CENTRALIZED:
        return 2 * mk.n_active
    return 1


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
# per-client arithmetic is unchanged. Larger blocks save little more time but
# raise peak memory: over three default runs, +2% peak RSS at 4, +4% at 8 and
# +10% with all 26 clients in one block.
_CLIENT_BLOCK = 4


def _client_blocks(tasks, arch: model.Arch):
    """Checked batches of tasks stacked in runs of at most _CLIENT_BLOCK
    clients whose batch shapes agree; yields (support, query) per run."""
    checked = [(model.check_batch(arch, t.support), model.check_batch(arch, t.query))
               for t in tasks]

    def shapes(c):
        return [a.shape for batch in c for a in batch if a is not None]

    start = 0
    while start < len(checked):
        stop = start + 1
        while (stop < len(checked) and stop - start < _CLIENT_BLOCK
               and shapes(checked[stop]) == shapes(checked[start])):
            stop += 1
        yield (model.stack_batches([c[0] for c in checked[start:stop]]),
               model.stack_batches([c[1] for c in checked[start:stop]]))
        start = stop


def _adapt_block(w: ParamVector, support, query, h: optimizer.HyperParams,
                 metrics: list | None = None, gsum: np.ndarray | None = None):
    """Adapts a block of clients from w. When given, appends each client's
    adapted query metric to `metrics` and adds each client's exact
    meta-gradient to `gsum`, in client order; one inner trajectory per
    client serves both. Nothing of the block outlives the call, so two
    blocks never hold memory at once."""
    n = len(support[0])
    states, tapes = metalearn.trajectory(
        np.broadcast_to(w.values, (n, w.values.size)), w.arch, support, h.alpha, h.K)
    if metrics is not None:
        metrics += _query_metrics(states[-1], w.arch, query)
    if gsum is not None:
        for row in metalearn.exact_from_trajectory(states, tapes, w.arch, query,
                                                   h.alpha):
            gsum += row


def _query_metrics(u: np.ndarray, arch: model.Arch, query) -> list[float]:
    """Adapted query metric per row of u: accuracy for xent, else the loss."""
    x, t = query
    if arch.head == HEAD_XENT:
        preds = model.predictions(u, arch, x).argmax(axis=-1)
        return [float(np.mean(p == labels)) for p, labels in zip(preds, t)]
    return model.losses(u, arch, x, t)


def evaluate(w: ParamVector, assignment: ClientAssignment,
             h: optimizer.HyperParams) -> tuple[float, float, float]:
    """(mean adapted query metric on training clients, same on unseen
    clients, squared norm of the averaged exact meta-gradient)."""
    def mean(vals):
        return float(np.mean(vals)) if vals else float("nan")

    train, unseen = [], []
    gsum = np.zeros_like(w.values)
    with model.quiet():
        for support, query in _client_blocks(assignment.training.values(), w.arch):
            _adapt_block(w, support, query, h, train, gsum)
        for support, query in _client_blocks(assignment.unseen.values(), w.arch):
            _adapt_block(w, support, query, h, unseen)
        gmean = gsum / assignment.n_training
        gnorm_sq = float(gmean @ gmean)
    if not np.isfinite(gnorm_sq):
        raise NumericalError("non-finite meta-gradient norm")
    return mean(train), mean(unseen), gnorm_sq


# ---------------------------------------------------------------------
# runs

def _streams(seed: int):
    init_ss = np.random.SeedSequence([seed, _INIT_STREAM])
    walk = np.random.default_rng(np.random.SeedSequence([seed, _WALK_STREAM]))
    noise = np.random.default_rng(np.random.SeedSequence([seed, _NOISE_STREAM]))
    return init_ss, walk, noise


def _dp_report(cfg: ExperimentConfig) -> privacy.DpReport | None:
    if not cfg.privacy.enabled or cfg.T < 1:
        return None
    return privacy.account_network_dp(cfg.privacy.epsilon, cfg.privacy.delta,
                                      cfg.delta_hat, cfg.T, cfg.n_training)


# the metrics of the last row of a run that a numerical failure ended
_NAN_METRICS = (float("nan"),) * 3


def _run_walk(cfg: ExperimentConfig, method: str,
              assignment: ClientAssignment | None = None,
              transition: topology.TransitionMatrix | None = None,
              w0: ParamVector | None = None) -> RunRecord:
    """Shared skeleton for the three token-passing protocols."""
    cfg.validate()
    h = cfg.hyper
    arch = cfg.build_arch()
    assignment = assignment if assignment is not None else cfg.build_assignment()
    tm = transition if transition is not None else cfg.build_transition()
    if tm.n != assignment.n_training:
        raise ParameterError("transition matrix size must equal n_training")
    init_ss, walk_rng, noise_rng = _streams(cfg.seed)
    w = w0.copy() if w0 is not None else model.init_params(arch, init_ss)
    d = w.arch.param_count

    mk = MethodKind(method, cfg.n_active)
    per_iter = comm_cost(mk)
    use_privacy = method == METHOD_LODMETA and cfg.privacy.enabled
    sigma2 = privacy.noise_sigma(cfg.privacy) if use_privacy else 0.0
    local_aux = {i: optimizer.AuxState.zeros(d) for i in assignment.training}
    token_aux = optimizer.AuxState.zeros(d)  # basic variant only

    current = int(walk_rng.integers(assignment.n_training))
    comm = 0
    trace = Trace() if cfg.record_trace else None
    if trace is not None:
        trace.w.append(w.values.copy())
    rows = [EvalRow(0, 0, current, *evaluate(w, assignment, h))]
    record = RunRecord(rows=rows, header=dict(config_echo(cfg)),
                       dp_report=_dp_report(cfg), trace=trace)
    record.header["method.resolved"] = method

    for t in range(cfg.T):
        i = current
        task = assignment.training[i]
        comm += per_iter
        try:
            g = metalearn.meta_gradient_exact(w, task, h.alpha, h.K).values
            if use_privacy:
                g = optimizer.clip(g, cfg.privacy.m_meta)
                noise = privacy.sample_perturbation(sigma2, d, noise_rng)
            else:
                noise = np.zeros(d)
            if method == METHOD_SGD:
                delta = optimizer.sgd_step(g, h.eta)
            elif method == METHOD_BASIC:
                token_aux, delta = optimizer.adam_step(token_aux, g,
                                                       np.zeros(d), h)
            else:
                local_aux[i], delta = optimizer.adam_step(local_aux[i], g,
                                                          noise, h)
            w = w.with_values(w.values + delta)
            if not np.all(np.isfinite(w.values)):
                raise NumericalError(f"non-finite parameters at iteration {t}")
            current = topology.sample_next(tm, i, walk_rng)
            if trace is not None:
                trace.active.append(i)
                trace.w.append(w.values.copy())
            if (t + 1) % cfg.eval_every == 0 or t + 1 == cfg.T:
                rows.append(EvalRow(t + 1, comm, i, *evaluate(w, assignment, h)))
        except NumericalError as e:
            record.aborted = True
            record.abort_reason = str(e)
            rows.append(EvalRow(t + 1, comm, i, *_NAN_METRICS))
            break
    record.final_params = w
    return record


def run_lodmeta(cfg: ExperimentConfig, **overrides) -> RunRecord:
    """Token passes the model only; each client keeps its own auxiliary
    state; calibrated Gaussian noise perturbs the clipped meta-gradient
    when privacy is enabled."""
    return _run_walk(cfg, METHOD_LODMETA, **overrides)


def run_lodmeta_basic(cfg: ExperimentConfig, **overrides) -> RunRecord:
    """A single auxiliary state travels with the token (3x communication),
    no privacy perturbation."""
    return _run_walk(cfg, METHOD_BASIC, **overrides)


def run_lodmeta_sgd(cfg: ExperimentConfig, **overrides) -> RunRecord:
    """Plain SGD outer update, token passes the model only."""
    return _run_walk(cfg, METHOD_SGD, **overrides)


def run_centralized_maml(cfg: ExperimentConfig,
                         assignment: ClientAssignment | None = None,
                         w0: ParamVector | None = None) -> RunRecord:
    """Server-coordinated baseline: each round samples n_active training
    clients without replacement, averages their exact meta-gradients and
    applies one server-held adaptive update. Costs 2*n_active per round."""
    cfg.validate()
    h = cfg.hyper
    arch = cfg.build_arch()
    assignment = assignment if assignment is not None else cfg.build_assignment()
    init_ss, walk_rng, _ = _streams(cfg.seed)
    w = w0.copy() if w0 is not None else model.init_params(arch, init_ss)
    d = w.arch.param_count

    mk = MethodKind(METHOD_CENTRALIZED, cfg.n_active)
    per_round = comm_cost(mk)
    aux = optimizer.AuxState.zeros(d)
    comm = 0
    trace = Trace() if cfg.record_trace else None
    if trace is not None:
        trace.w.append(w.values.copy())
    rows = [EvalRow(0, 0, -1, *evaluate(w, assignment, h))]
    record = RunRecord(rows=rows, header=dict(config_echo(cfg)), trace=trace)
    record.header["method.resolved"] = METHOD_CENTRALIZED

    for t in range(cfg.T):
        chosen = walk_rng.choice(assignment.n_training, size=cfg.n_active,
                                 replace=False)
        comm += per_round
        try:
            gsum = np.zeros(d)
            with model.quiet():
                for support, query in _client_blocks(
                        [assignment.training[int(i)] for i in chosen], w.arch):
                    _adapt_block(w, support, query, h, gsum=gsum)
            g = gsum / cfg.n_active
            aux, delta = optimizer.adam_step(aux, g, np.zeros(d), h)
            w = w.with_values(w.values + delta)
            if not np.all(np.isfinite(w.values)):
                raise NumericalError(f"non-finite parameters at round {t}")
            if trace is not None:
                trace.active.append(-1)
                trace.w.append(w.values.copy())
            if (t + 1) % cfg.eval_every == 0 or t + 1 == cfg.T:
                rows.append(EvalRow(t + 1, comm, -1, *evaluate(w, assignment, h)))
        except NumericalError as e:
            record.aborted = True
            record.abort_reason = str(e)
            rows.append(EvalRow(t + 1, comm, -1, *_NAN_METRICS))
            break
    record.final_params = w
    return record


_RUNNERS = {
    METHOD_LODMETA: run_lodmeta,
    METHOD_BASIC: run_lodmeta_basic,
    METHOD_SGD: run_lodmeta_sgd,
    METHOD_CENTRALIZED: run_centralized_maml,
}


def run(cfg: ExperimentConfig) -> RunRecord:
    """Dispatch on cfg.method."""
    return _RUNNERS[cfg.method](cfg)
