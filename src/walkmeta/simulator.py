"""Training protocols over the network, with communication accounting.

The four protocols run one loop and differ only in their entry in
`config.METHOD_TABLE`: a token carrying the meta-parameters moves through
the graph (walk methods) or a server samples clients each round
(centralized). Per-iteration communication is charged in relative units:
1 for a bare parameter payload, 3 when momentum and preconditioner travel
too, 2 per active client for centralized download+upload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
# per-client arithmetic is unchanged. Larger blocks save little more time but
# raise peak memory: over three default runs, +2% peak RSS at 4, +4% at 8 and
# +10% with all 26 clients in one block.
_CLIENT_BLOCK = 4


class _Clients:
    """A set of clients prepared once for many adaptations: each client's
    checked (support, query) batches and the workspace for their sizes (one
    per distinct pair of sizes, normally one), keyed by client id, and the
    evaluation blocks."""

    def __init__(self, assignment: ClientAssignment, arch: model.Arch, K: int):
        workspaces = {}

        def prepare(task):
            support = model.check_batch(arch, task.support)
            query = model.check_batch(arch, task.query)
            sizes = (len(support[0]), len(query[0]))
            if sizes not in workspaces:
                workspaces[sizes] = metalearn.Workspace(arch, *sizes, K, _CLIENT_BLOCK)
            return support, query, workspaces[sizes]

        self.training = {cid: prepare(t) for cid, t in assignment.training.items()}
        self.training_blocks = list(_client_blocks(list(self.training.values())))
        self.unseen_blocks = list(_client_blocks([prepare(t) for t in
                                                  assignment.unseen.values()]))


def _client_blocks(clients: list):
    """Prepared clients stacked in runs of at most _CLIENT_BLOCK whose batch
    shapes agree; yields (support, query, workspace) per run."""
    def shapes(c):
        return [a.shape for batch in c[:2] for a in batch if a is not None]

    start = 0
    while start < len(clients):
        stop = start + 1
        while (stop < len(clients) and stop - start < _CLIENT_BLOCK
               and shapes(clients[stop]) == shapes(clients[start])):
            stop += 1
        yield (model.stack_batches([c[0] for c in clients[start:stop]]),
               model.stack_batches([c[1] for c in clients[start:stop]]),
               clients[start][2])
        start = stop


def _adapt_block(w: np.ndarray, arch: model.Arch, support, query,
                 ws: metalearn.Workspace, h: optimizer.HyperParams,
                 metrics: list | None = None, gsum: np.ndarray | None = None):
    """Adapts a block of clients from w (d,). When given, appends each
    client's adapted query metric to `metrics` and adds each client's exact
    meta-gradient to `gsum`, in client order; one inner trajectory per
    client serves both."""
    n = len(support[0])
    programs = ws.programs((n,), h.alpha)
    programs.load(np.broadcast_to(w, (n, w.size)), support, query)
    programs.adapt()
    q = programs.query
    if metrics is not None:
        metrics += _query_metrics(q.point, arch, query, q)
    if gsum is not None:
        programs.exact()
        for row in q.dir:
            gsum += row


def _mean_meta_gradient(w: np.ndarray, arch: model.Arch, clients: list,
                        h: optimizer.HyperParams) -> np.ndarray:
    """The exact meta-gradient at w (d,) averaged over prepared clients;
    several run in client blocks, one as a lone vector without stacking."""
    with model.quiet():
        if len(clients) == 1:
            support, query, ws = clients[0]
            programs = ws.programs((), h.alpha)
            programs.load(w, support, query)
            programs.step()
            return programs.query.dir.copy()
        gsum = np.zeros_like(w)
        for block in _client_blocks(clients):
            _adapt_block(w, arch, *block, h, gsum=gsum)
    return gsum / len(clients)


def _query_metrics(u: np.ndarray, arch: model.Arch, query, tape: model.Tape) -> list[float]:
    """Adapted query metric per row of u: accuracy for xent, else the loss."""
    x, t = query
    if arch.head == HEAD_XENT:
        preds = model.predictions(u, arch, x, tape).argmax(axis=-1)
        return [float(np.mean(p == labels)) for p, labels in zip(preds, t)]
    return model.losses(u, arch, x, t, tape)


def evaluate(w: ParamVector, assignment: ClientAssignment,
             h: optimizer.HyperParams, clients: _Clients | None = None
             ) -> tuple[float, float, float]:
    """(mean adapted query metric on training clients, same on unseen
    clients, squared norm of the averaged exact meta-gradient). `clients`
    is assignment prepared once by the caller; without it the batches are
    checked and a workspace made for this call."""
    def mean(vals):
        return float(np.mean(vals)) if vals else float("nan")

    values, arch = w.values, w.arch
    clients = clients or _Clients(assignment, arch, h.K)
    train, unseen = [], []
    gsum = np.zeros_like(values)
    with model.quiet():
        for block in clients.training_blocks:
            _adapt_block(values, arch, *block, h, train, gsum)
        for block in clients.unseen_blocks:
            _adapt_block(values, arch, *block, h, unseen)
        gmean = gsum / assignment.n_training
        gnorm_sq = float(gmean @ gmean)
    if not np.isfinite(gnorm_sq):
        raise NumericalError("non-finite meta-gradient norm")
    return mean(train), mean(unseen), gnorm_sq


# ---------------------------------------------------------------------
# runs

def run(cfg: ExperimentConfig, assignment: ClientAssignment | None = None) -> RunRecord:
    """The one training loop: validates cfg and runs cfg.method, on
    `assignment` when given, else on the one cfg builds."""
    cfg.validate()
    spec = METHOD_TABLE[cfg.method]
    h = cfg.hyper
    arch = cfg.build_arch()
    assignment = assignment if assignment is not None else cfg.build_assignment()
    n = cfg.n_training
    if sorted(assignment.training) != list(range(n)):
        raise ParameterError(f"assignment training ids must be 0 .. {n - 1} "
                             f"(clients.n_training={n}), got {sorted(assignment.training)}")
    if spec.walks:  # a server-sampled run never builds the graph
        tm = cfg.build_transition()
    init_ss = np.random.SeedSequence([cfg.seed, _INIT_STREAM])
    walk_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _WALK_STREAM]))
    noise_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _NOISE_STREAM]))
    w = model.init_params(arch, init_ss).values
    d = arch.param_count
    prepared = _Clients(assignment, arch, h.K)

    per_iter = comm_cost(MethodKind(cfg.method, cfg.n_active))
    noisy = spec.noise and cfg.privacy.enabled
    sigma2 = privacy.noise_sigma(cfg.privacy) if noisy else 0.0
    aux = {}  # m/v state by owner: a client index, or -1 for the token/server
    zero_aux = optimizer.AuxState.zeros(d)

    current = int(walk_rng.integers(n)) if spec.walks else -1
    comm = 0
    trace = Trace(w=[w.copy()]) if cfg.record_trace else None
    rows = [EvalRow(0, 0, current, *evaluate(ParamVector(w, arch), assignment, h,
                                             prepared))]
    dp_report = None
    if noisy and cfg.T >= 1:  # the report covers only the chain that adds noise
        dp_report = privacy.account_network_dp(cfg.privacy.epsilon, cfg.privacy.delta,
                                               cfg.delta_hat, cfg.T, cfg.n_training)
    # method.resolved repeats method.kind; kept so run CSVs keep their bytes
    record = RunRecord(rows=rows, header={**config_echo(cfg), "method.resolved": cfg.method},
                       dp_report=dp_report, trace=trace)

    for t in range(cfg.T):
        if spec.walks:
            if t > 0:
                current = topology.sample_next(tm, current, walk_rng)
            clients = [current]
        else:
            clients = walk_rng.choice(n, size=cfg.n_active, replace=False)
        comm += per_iter
        try:
            g = _mean_meta_gradient(w, arch, [prepared.training[int(i)] for i in clients], h)
            noise = 0.0
            if noisy:
                g = optimizer.clip(g, cfg.privacy.m_meta)
                noise = privacy.sample_perturbation(sigma2, d, noise_rng)
            if spec.aux is None:
                delta = optimizer.sgd_step(g, h.eta)
            else:
                owner = current if spec.aux == "client" else -1
                aux[owner], delta = optimizer.adam_step(aux.get(owner, zero_aux), g,
                                                        noise, h)
            w = w + delta
            if not np.logical_and.reduce(np.isfinite(w), axis=None):
                step = "iteration" if spec.walks else "round"
                raise NumericalError(f"non-finite parameters at {step} {t}")
            if trace is not None:
                trace.active.append(current)
                trace.w.append(w.copy())
            if (t + 1) % cfg.eval_every == 0 or t + 1 == cfg.T:
                rows.append(EvalRow(t + 1, comm, current, *evaluate(
                    ParamVector(w, arch), assignment, h, prepared)))
        except NumericalError as e:
            record.aborted = True
            record.abort_reason = str(e)
            rows.append(EvalRow(t + 1, comm, current, *[float("nan")] * 3))
            break
    record.final_params = ParamVector(w, arch)
    return record

