"""Experiment configuration: flat key-value text files with [section] headers.

Every key has a default mirroring the reference hyperparameter setup
(eta=0.001, theta=0, beta=0.99, K=5, epsilon=0.5, delta=0.3), so an empty
file is a complete, runnable configuration. Unknown keys are a hard error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

from . import topology as topo
from .errors import ConfigError
from .model import HEAD_MSE, HEAD_QUADRATIC, HEAD_XENT, Arch
from .optimizer import HyperParams
from .privacy import PrivacyParams
from .tasks import KIND_BLOB, KIND_SINE, TaskConfig, assign_clients

METHODS = ("lodmeta", "lodmeta_basic", "lodmeta_sgd", "centralized_maml")
FAMILIES = ("small_world", "regular", "ring", "star", "complete")


@dataclass(frozen=True)
class TopologySpec:
    family: str = "small_world"
    n: int = 20
    k: int = 4
    degree: int = 3
    p_rewire: float = 0.3
    laziness: float = 0.1
    scheme: str = topo.SCHEME_METROPOLIS


@dataclass(frozen=True)
class ExperimentConfig:
    topology: TopologySpec = field(default_factory=TopologySpec)
    task: TaskConfig = field(default_factory=TaskConfig)
    n_training: int = 20
    n_unseen: int = 6
    method: str = "lodmeta"
    n_active: int = 4
    hidden: tuple[int, ...] | None = None   # None -> per-task default
    head: str | None = None                 # None -> per-task default
    hyper: HyperParams = field(default_factory=HyperParams)
    privacy: PrivacyParams = field(default_factory=PrivacyParams)
    delta_hat: float = 0.1
    T: int = 2000
    eval_every: int = 50
    seed: int = 0
    output: str = ""
    record_trace: bool = False

    # -- derived builders ---------------------------------------------

    def build_graph(self) -> topo.Graph:
        t = self.topology
        if t.family == "small_world":
            return topo.gen_small_world(t.n, t.k, t.p_rewire, self.seed)
        if t.family == "regular":
            return topo.gen_regular_expander(t.n, t.degree, self.seed)
        if t.family == "ring":
            return topo.gen_ring(t.n)
        if t.family == "star":
            return topo.gen_star(t.n)
        if t.family == "complete":
            return topo.gen_complete(t.n)
        raise ConfigError(f"topology.family: unknown family {t.family!r}")

    def build_transition(self) -> topo.TransitionMatrix:
        return topo.build_transition_matrix(self.build_graph(),
                                            scheme=self.topology.scheme,
                                            laziness=self.topology.laziness)

    def build_assignment(self):
        return assign_clients(self.n_training, self.n_unseen, self.task, self.seed)

    def build_arch(self) -> Arch:
        head = self.head
        hidden = self.hidden
        if self.task.kind == KIND_SINE:
            head = head or HEAD_MSE
            hidden = hidden if hidden is not None else (40, 40)
            return Arch(1, hidden, 1, head)
        head = head or HEAD_XENT
        hidden = hidden if hidden is not None else (64,)
        out = self.task.ways if head == HEAD_XENT else 1
        return Arch(self.task.dim, hidden, out, head)

    def validate(self) -> "ExperimentConfig":
        def bad(key, msg):
            raise ConfigError(f"{key}: {msg}")

        t = self.topology
        if t.family not in FAMILIES:
            bad("topology.family", f"must be one of {FAMILIES}, got {t.family!r}")
        if t.scheme not in (topo.SCHEME_UNIFORM, topo.SCHEME_METROPOLIS):
            bad("topology.scheme", f"unknown scheme {t.scheme!r}")
        if not (0.0 <= t.laziness < 1.0):
            bad("topology.laziness", f"must be in [0, 1), got {t.laziness}")
        if t.family == "small_world":
            if not (t.n > t.k >= 2):
                bad("topology.k", f"need n > k >= 2, got n={t.n}, k={t.k}")
            if t.k % 2 != 0:
                bad("topology.k", f"must be even, got {t.k}")
            if not (0.0 <= t.p_rewire <= 1.0):
                bad("topology.p_rewire", f"must be in [0, 1], got {t.p_rewire}")
        if t.family == "regular" and (t.n * t.degree) % 2 != 0:
            bad("topology.degree", f"n*degree must be even, got n={t.n}, degree={t.degree}")
        if self.n_training < 1:
            bad("clients.n_training", f"must be >= 1, got {self.n_training}")
        if self.n_unseen < 0:
            bad("clients.n_unseen", f"must be >= 0, got {self.n_unseen}")
        if t.n != self.n_training:
            bad("topology.n", "the walk runs over training clients only, so "
                f"topology.n ({t.n}) must equal clients.n_training ({self.n_training})")
        if self.method not in METHODS:
            bad("method.kind", f"must be one of {METHODS}, got {self.method!r}")
        if self.n_active < 1:
            bad("method.n_active", f"must be >= 1, got {self.n_active}")
        if self.method == "centralized_maml" and self.n_active > self.n_training:
            bad("method.n_active", f"cannot exceed n_training ({self.n_training})")
        if self.task.kind not in (KIND_SINE, KIND_BLOB):
            bad("task.kind", f"must be sine or blob, got {self.task.kind!r}")
        if self.task.shots < 1:
            bad("task.shots", f"must be >= 1, got {self.task.shots}")
        h = self.hyper  # HyperParams validates its own bounds on construction
        p = self.privacy
        if not (0.0 < p.epsilon < 1.0):
            bad("privacy.epsilon", f"must be in (0, 1), got {p.epsilon}")
        if not (0.0 < p.delta < 0.5):
            bad("privacy.delta", f"must be in (0, 1/2), got {p.delta}")
        if p.m_meta <= 0:
            bad("privacy.m_meta", f"must be positive, got {p.m_meta}")
        if not (0.0 < self.delta_hat < 1.0):
            bad("privacy.delta_hat", f"must be in (0, 1), got {self.delta_hat}")
        if self.T < 0:
            bad("run.T", f"must be >= 0, got {self.T}")
        if self.eval_every < 1:
            bad("run.eval_every", f"must be >= 1, got {self.eval_every}")
        if p.enabled and h.eta > 2.0 / p.m_meta:
            warnings.warn(
                f"eta={h.eta} exceeds 2/m_meta={2.0 / p.m_meta:.6g}; the stated "
                "privacy guarantee assumes eta <= 2/m_meta", stacklevel=2)
        return self


# ---------------------------------------------------------------------
# text format

_BOOLS = {"true": True, "false": False, "yes": True, "no": False,
          "1": True, "0": False}


def _parse_bool(s: str) -> bool:
    try:
        return _BOOLS[s.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {s!r}")


def _parse_hidden(s: str):
    if s in ("auto", ""):
        return None
    return tuple(int(w) for w in s.split(","))


def _parse_head(s: str):
    if s == "auto":
        return None
    if s not in (HEAD_MSE, HEAD_XENT, HEAD_QUADRATIC):
        raise ValueError(f"unknown head {s!r}")
    return s


# key -> (parser, getter); getter extracts the value from a config for
# serialization.
_SCHEMA = {
    "topology.family": (str, lambda c: c.topology.family),
    "topology.n": (int, lambda c: c.topology.n),
    "topology.k": (int, lambda c: c.topology.k),
    "topology.degree": (int, lambda c: c.topology.degree),
    "topology.p_rewire": (float, lambda c: c.topology.p_rewire),
    "topology.laziness": (float, lambda c: c.topology.laziness),
    "topology.scheme": (str, lambda c: c.topology.scheme),
    "task.kind": (str, lambda c: c.task.kind),
    "task.shots": (int, lambda c: c.task.shots),
    "task.query_size": (int, lambda c: c.task.query_size),
    "task.ways": (int, lambda c: c.task.ways),
    "task.query_per_class": (int, lambda c: c.task.query_per_class),
    "task.dim": (int, lambda c: c.task.dim),
    "task.spread": (float, lambda c: c.task.spread),
    "clients.n_training": (int, lambda c: c.n_training),
    "clients.n_unseen": (int, lambda c: c.n_unseen),
    "method.kind": (str, lambda c: c.method),
    "method.n_active": (int, lambda c: c.n_active),
    "model.hidden": (_parse_hidden, lambda c: "auto" if c.hidden is None
                     else ",".join(map(str, c.hidden))),
    "model.head": (_parse_head, lambda c: c.head or "auto"),
    "hyper.eta": (float, lambda c: c.hyper.eta),
    "hyper.theta": (float, lambda c: c.hyper.theta),
    "hyper.beta": (float, lambda c: c.hyper.beta),
    "hyper.lambda": (float, lambda c: c.hyper.lam),
    "hyper.alpha": (float, lambda c: c.hyper.alpha),
    "hyper.K": (int, lambda c: c.hyper.K),
    "privacy.enabled": (_parse_bool, lambda c: str(c.privacy.enabled).lower()),
    "privacy.epsilon": (float, lambda c: c.privacy.epsilon),
    "privacy.delta": (float, lambda c: c.privacy.delta),
    "privacy.m_meta": (float, lambda c: c.privacy.m_meta),
    "privacy.delta_hat": (float, lambda c: c.delta_hat),
    "run.T": (int, lambda c: c.T),
    "run.eval_every": (int, lambda c: c.eval_every),
    "run.seed": (int, lambda c: c.seed),
    "run.output": (str, lambda c: c.output),
    "run.record_trace": (_parse_bool, lambda c: str(c.record_trace).lower()),
}


def parse_config_text(text: str) -> ExperimentConfig:
    raw: dict[str, object] = {}
    section = ""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        full = f"{section}.{key}" if section and "." not in key else key
        if full not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {full!r}")
        parser = _SCHEMA[full][0]
        try:
            raw[full] = parser(value)
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {full}: {e}") from None
    return _build(raw).validate()


# keys whose field has another name or sits at the top level, and the
# sections that are dataclasses of their own
_FIELDS = {"hyper.lambda": "hyper.lam", "privacy.delta_hat": "delta_hat",
           "method.kind": "method"}
_NESTED = ("topology", "task", "hyper", "privacy")


def _build(raw: dict[str, object]) -> ExperimentConfig:
    """The default config with each parsed key set on its field."""
    top: dict[str, object] = {}
    nested: dict[str, dict] = {section: {} for section in _NESTED}
    for key, value in raw.items():
        section, _, name = _FIELDS.get(key, key).rpartition(".")
        if section in nested:
            nested[section][name] = value
        else:
            top[name] = value
    defaults = ExperimentConfig()
    for section, fields in nested.items():
        top[section] = replace(getattr(defaults, section), **fields)
    return replace(defaults, **top)


def parse_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read())


def serialize_config(cfg: ExperimentConfig) -> str:
    """Emit every key grouped by section; reparses to an equal config."""
    sections: dict[str, list[str]] = {}
    for key, (_, getter) in _SCHEMA.items():
        section, _, name = key.partition(".")
        val = getter(cfg)
        sections.setdefault(section, []).append(f"{name} = {val}")
    out = []
    for section, lines in sections.items():
        out.append(f"[{section}]")
        out.extend(lines)
        out.append("")
    return "\n".join(out)


def config_echo(cfg: ExperimentConfig) -> dict[str, object]:
    """Flat key=value view of the full config, for CSV headers."""
    return {key: getter(cfg) for key, (_, getter) in _SCHEMA.items()}
