"""Synthetic per-client few-shot tasks.

Each client owns one task with a support split (used for local adaptation)
and a query split (used for the meta objective). Two families: sine-wave
regression and Gaussian-blob classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

KIND_SINE = "sine"
KIND_BLOB = "blob"

Batch = tuple[np.ndarray, np.ndarray]  # (inputs (m, dim), targets (m,) )


@dataclass(frozen=True)
class TaskInstance:
    kind: str
    support: Batch
    query: Batch
    latent: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TaskConfig:
    kind: str = KIND_SINE
    shots: int = 10
    query_size: int = 15          # sine: total query points
    ways: int = 5                 # blob only
    query_per_class: int = 15     # blob only
    dim: int = 2                  # blob input dimension
    spread: float = 0.5           # blob within-class noise std

    def __post_init__(self):
        if self.kind not in (KIND_SINE, KIND_BLOB):
            raise ParameterError(f"kind: must be sine or blob, got {self.kind!r}")
        for name, least in (("shots", 1), ("query_size", 1), ("ways", 2),
                            ("query_per_class", 1), ("dim", 2)):
            if (value := getattr(self, name)) < least:
                raise ParameterError(f"{name}: must be >= {least}, got {value!r}")
        if not (0.0 <= self.spread < np.inf):
            raise ParameterError(f"spread: must be finite and >= 0, got {self.spread!r}")


@dataclass(frozen=True)
class ClientAssignment:
    training: dict[int, TaskInstance]
    unseen: dict[int, TaskInstance]

    @property
    def n_training(self) -> int:
        return len(self.training)

    @property
    def n_unseen(self) -> int:
        return len(self.unseen)


def gen_sine_task(rng: np.random.Generator, shots: int, query_size: int) -> TaskInstance:
    """Sine regression task y = A sin(x + phase), A ~ U[0.1, 5], phase ~ U[0, pi]."""
    TaskConfig(KIND_SINE, shots, query_size)  # checks shots and query_size
    amplitude = rng.uniform(0.1, 5.0)
    phase = rng.uniform(0.0, np.pi)

    def draw(m):
        x = rng.uniform(-5.0, 5.0, size=(m, 1))
        y = amplitude * np.sin(x[:, 0] + phase)
        return x, y

    support = draw(shots)
    query = draw(query_size)
    return TaskInstance(KIND_SINE, support, query,
                        latent={"amplitude": amplitude, "phase": phase})


def gen_blob_task(rng: np.random.Generator, ways: int, shots: int,
                  query_per_class: int, dim: int, spread: float) -> TaskInstance:
    """N-way classification of Gaussian blobs around random centroids."""
    TaskConfig(KIND_BLOB, shots, ways=ways, query_per_class=query_per_class,
               dim=dim, spread=spread)  # checks every argument but rng
    centroids = 2.0 * rng.standard_normal((ways, dim))

    def draw(per_class):
        xs, ys = [], []
        for c in range(ways):
            pts = centroids[c] + spread * rng.standard_normal((per_class, dim))
            xs.append(pts)
            ys.append(np.full(per_class, c))
        return np.concatenate(xs), np.concatenate(ys)

    support = draw(shots)
    query = draw(query_per_class)
    return TaskInstance(KIND_BLOB, support, query, latent={"centroids": centroids})


def _gen_task(cfg: TaskConfig, rng: np.random.Generator) -> TaskInstance:
    if cfg.kind == KIND_SINE:
        return gen_sine_task(rng, cfg.shots, cfg.query_size)
    return gen_blob_task(rng, cfg.ways, cfg.shots, cfg.query_per_class, cfg.dim, cfg.spread)


def client_rng(seed: int, client_id: int) -> np.random.Generator:
    """Per-client substream; independent of how many other clients exist."""
    return np.random.default_rng(np.random.SeedSequence([seed, client_id]))


def assign_clients(n_training: int, n_unseen: int, task_config: TaskConfig,
                   seed: int) -> ClientAssignment:
    """One task per client. Training ids are 0..n_training-1, unseen follow.

    Each client's task comes from an RNG substream keyed by (seed, id), so
    growing the network never reshuffles existing clients' tasks.
    """
    if n_training < 1 or n_unseen < 0:
        raise ParameterError("need n_training >= 1 and n_unseen >= 0")
    training = {i: _gen_task(task_config, client_rng(seed, i))
                for i in range(n_training)}
    unseen = {i: _gen_task(task_config, client_rng(seed, i))
              for i in range(n_training, n_training + n_unseen)}
    return ClientAssignment(training, unseen)


def dump_tasks(assignment: ClientAssignment) -> str:
    """Full-precision text dump of every client's task, for cross-checking."""
    lines = []
    all_items = list(assignment.training.items()) + list(assignment.unseen.items())
    for cid, task in sorted(all_items):
        role = "training" if cid in assignment.training else "unseen"
        lines.append(f"client {cid} {role} {task.kind}")
        for key, val in sorted(task.latent.items()):
            flat = np.atleast_1d(np.asarray(val)).ravel()
            lines.append(f"  latent {key} " + " ".join(repr(float(v)) for v in flat))
        for name, (x, y) in (("support", task.support), ("query", task.query)):
            lines.append(f"  {name}_x " + " ".join(repr(float(v)) for v in x.ravel()))
            lines.append(f"  {name}_y " + " ".join(repr(float(v)) for v in y.ravel()))
    return "\n".join(lines) + "\n"
