"""Experiment configuration: flat key-value text files with [section] headers.

Every key has a default mirroring the reference hyperparameter setup
(eta=0.001, theta=0, beta=0.99, K=5, epsilon=0.5, delta=0.3), so an empty
file is a complete, runnable configuration. Unknown keys are a hard error.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import reduce

from . import topology as topo
from .errors import ConfigError, ParameterError
from .model import HEAD_MSE, HEAD_XENT, Arch
from .optimizer import HyperParams
from .privacy import PrivacyParams
from .tasks import KIND_SINE, TaskConfig, assign_clients

FAMILIES = topo.FAMILIES  # re-exported: the families a config may name


@dataclass(frozen=True)
class Method:
    """The four facts that set one training protocol apart from another."""
    units: int         # communication units per iteration, per active client
                       # when a server samples
    walks: bool        # a token walks the graph; else a server samples n_active
    aux: str | None    # who owns the m/v state: "client" (one per client),
                       # "token" (one that travels, or the server's), None (SGD)
    noise: bool        # clipped, noised updates and a DP report with privacy on


METHOD_TABLE = {
    "lodmeta": Method(1, walks=True, aux="client", noise=True),
    "lodmeta_basic": Method(3, walks=True, aux="token", noise=False),
    "lodmeta_sgd": Method(1, walks=True, aux=None, noise=False),
    "centralized_maml": Method(2, walks=False, aux="token", noise=False),
}


@dataclass(frozen=True)
class MethodKind:
    """The [method] section: a METHOD_TABLE name and n_active."""
    kind: str
    n_active: int = 1

    def __post_init__(self):
        if self.kind not in METHOD_TABLE:
            raise ParameterError(
                f"kind: must be one of {tuple(METHOD_TABLE)}, got {self.kind!r}")
        if self.n_active < 1:
            raise ParameterError(f"n_active: must be >= 1, got {self.n_active}")


def comm_cost(mk: MethodKind) -> int:
    """Relative communication units charged per iteration."""
    method = METHOD_TABLE[mk.kind]
    return method.units if method.walks else method.units * mk.n_active


@dataclass(frozen=True)
class TopologySpec:
    family: str = "small_world"
    n: int = 20
    k: int = 4
    degree: int = 3
    p_rewire: float = 0.3
    laziness: float = 0.1
    scheme: str = topo.SCHEME_METROPOLIS

    def __post_init__(self):
        topo.check_kernel(self.scheme, self.laziness)


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
        return topo.gen_graph(t.family, t.n, t.k, t.degree, t.p_rewire, self.seed)

    def build_transition(self, graph: topo.Graph | None = None) -> topo.TransitionMatrix:
        """The walk kernel on `graph`, one that build_graph made, or on a new
        graph from build_graph."""
        if graph is None:
            graph = self.build_graph()
        return topo.build_transition_matrix(graph, scheme=self.topology.scheme,
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
        """Checks _BOUNDS, check_family and the rules that tie fields together;
        TopologySpec, TaskConfig, HyperParams and PrivacyParams check themselves."""
        for key, ok, bound in _BOUNDS:
            value = reduce(getattr, _KEYS[key][0], self)
            if not ok(value):
                raise ConfigError(f"{key}: must be {bound}, got {value!r}")
        t = self.topology
        with _keys_of("topology"):
            topo.check_family(t.family, t.n, t.k, t.degree, t.p_rewire)
        if t.n != self.n_training:
            raise ConfigError(f"topology.n: must equal clients.n_training ({self.n_training}),"
                              f" got {t.n}; the walk runs over training clients only")
        with _keys_of("method"):
            method = METHOD_TABLE[MethodKind(self.method, self.n_active).kind]
        if not method.walks and self.n_active > self.n_training:
            raise ConfigError(f"method.n_active: cannot exceed n_training ({self.n_training})")
        with _keys_of("model"):
            self.build_arch()
        p = self.privacy
        if p.enabled and method.noise and self.hyper.eta > 2.0 / p.m_meta:
            warnings.warn(
                f"eta={self.hyper.eta} exceeds 2/m_meta={2.0 / p.m_meta:.6g}; the "
                "stated privacy guarantee assumes eta <= 2/m_meta", stacklevel=2)
        return self


# ExperimentConfig's own bounds: (key, test, bound as the error states it).
_BOUNDS = (
    ("clients.n_training", lambda v: v >= 1, ">= 1"),
    ("clients.n_unseen", lambda v: v >= 0, ">= 0"),
    ("privacy.delta_hat", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("run.T", lambda v: v >= 0, ">= 0"),
    ("run.eval_every", lambda v: v >= 1, ">= 1"),
    ("run.seed", lambda v: v >= 0, ">= 0"),
)


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
    return None if s == "auto" else s   # the Arch that validate builds checks it


# The file's keys, section by section in file order. A row's keys set the
# fields of the dataclass in the ExperimentConfig field it names, or
# top-level fields when it names none; "key:field" marks a key whose field
# is named otherwise.
_SECTIONS = (
    ("topology", "topology", "family n k degree p_rewire laziness scheme"),
    ("task", "task", "kind shots query_size ways query_per_class dim spread"),
    ("clients", "", "n_training n_unseen"),
    ("method", "", "kind:method n_active"),
    ("model", "", "hidden head"),
    ("hyper", "hyper", "eta theta beta lambda:lam alpha K"),
    ("privacy", "privacy", "enabled epsilon delta m_meta"),
    ("privacy", "", "delta_hat"),
    ("run", "", "T eval_every seed output record_trace"),
)

# (parser, formatter) of the keys whose text is not their field's own type
_CODECS = {
    "model.hidden": (_parse_hidden,
                     lambda v: "auto" if v is None else ",".join(map(str, v))),
    "model.head": (_parse_head, lambda v: v or "auto"),
}
_BOOL_CODEC = (_parse_bool, lambda v: str(v).lower())
_DEFAULTS = ExperimentConfig()


def _key_table() -> dict[str, tuple]:
    """key -> (field path, parser, formatter) in file order. Except for
    bools and the keys in _CODECS, the parser is the default's type and the
    value is written as it is."""
    keys = {}
    for section, holder, row in _SECTIONS:
        for entry in row.split():
            name, _, fld = entry.partition(":")
            path = (holder, fld or name) if holder else (fld or name,)
            default = reduce(getattr, path, _DEFAULTS)
            key = f"{section}.{name}"
            codec = _CODECS.get(key) or (_BOOL_CODEC if isinstance(default, bool)
                                         else (type(default), lambda v: v))
            keys[key] = (path, *codec)
    return keys


_KEYS = _key_table()


@contextmanager
def _keys_of(section: str):
    """Turns a section type's "field: reason" error into a ConfigError that
    names the key as the file writes it."""
    try:
        yield
    except ParameterError as e:
        name, sep, reason = str(e).partition(": ")
        key = next((k for k, (path, *_) in _KEYS.items() if path == (section, name)),
                   f"{section}.{name}")
        raise ConfigError(f"{key}: {reason}" if sep else f"{section}: {e}") from None


def parse_value(key: str, text: str):
    """text as the value of key, parsed as a config file's line would be."""
    try:
        return _KEYS[key][1](text)
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from None


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
        if full not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {full!r}")
        try:
            raw[full] = parse_value(full, value)
        except ConfigError as e:   # "<key>: <reason>"
            raise ConfigError(f"line {lineno}: bad value for {e}") from None
    return with_keys(_DEFAULTS, raw).validate()


def with_keys(cfg: ExperimentConfig, values: dict[str, object]) -> ExperimentConfig:
    """cfg with each key's value, as its parser returns it, set on the key's
    field; a section type's bound error names the key. Not validated."""
    for key, value in values.items():
        path = _KEYS[key][0]
        if len(path) == 2:  # a field of a section's dataclass
            with _keys_of(path[0]):
                value = replace(getattr(cfg, path[0]), **{path[1]: value})
        cfg = replace(cfg, **{path[0]: value})
    return cfg


def parse_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read())


def serialize_config(cfg: ExperimentConfig) -> str:
    """Emit every key grouped by section; reparses to an equal config."""
    sections: dict[str, list[str]] = {}
    for key, val in config_echo(cfg).items():
        section, _, name = key.partition(".")
        sections.setdefault(section, []).append(f"{name} = {val}")
    out = []
    for section, lines in sections.items():
        out.append(f"[{section}]")
        out.extend(lines)
        out.append("")
    return "\n".join(out)


def config_echo(cfg: ExperimentConfig) -> dict[str, object]:
    """Flat key=value view of the full config, for CSV headers."""
    return {key: fmt(reduce(getattr, path, cfg)) for key, (path, _, fmt) in _KEYS.items()}
