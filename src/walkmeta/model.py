"""Flat-parameter MLP with analytic gradients and exact Hessian-vector
products.

Parameters live in a single flat vector so the meta-optimizer can treat the
model as a point in R^d. Hidden layers use tanh; the head is either mean
squared error (regression), softmax cross-entropy (classification), or a
pure quadratic bowl used as a diagnostic surrogate (loss = ||p||^2 / 2,
ignoring the batch contents).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NumericalError, ParameterError

HEAD_MSE = "mse"
HEAD_XENT = "xent"
HEAD_QUADRATIC = "quadratic"


@dataclass(frozen=True)
class Arch:
    input_dim: int
    hidden: tuple[int, ...]
    output_dim: int
    head: str = HEAD_MSE
    # (out, inp, weight slice, bias slice) per layer of the flat vector,
    # worked out once here so the array core never recomputes them
    layers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.head not in (HEAD_MSE, HEAD_XENT, HEAD_QUADRATIC):
            raise ParameterError(f"head: unknown head {self.head!r}")
        layers = []
        if self.head != HEAD_QUADRATIC:
            if self.input_dim < 1 or self.output_dim < 1:
                raise ParameterError("input_dim and output_dim must be >= 1")
            if any(w < 1 for w in self.hidden):
                raise ParameterError(f"hidden: widths must be positive, got {self.hidden}")
            pos = 0
            for out, inp in self.layer_dims():
                w_end = pos + out * inp
                layers.append((out, inp, slice(pos, w_end), slice(w_end, w_end + out)))
                pos = w_end + out
        object.__setattr__(self, "layers", tuple(layers))

    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden, self.output_dim]
        return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]

    @property
    def param_count(self) -> int:
        if self.head == HEAD_QUADRATIC:
            return self.output_dim
        return self.layers[-1][3].stop


@dataclass
class ParamVector:
    values: np.ndarray
    arch: Arch

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.arch.param_count,):
            raise ParameterError(
                f"expected {self.arch.param_count} parameters, got {self.values.shape}"
            )

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.arch)

    def with_values(self, values: np.ndarray) -> "ParamVector":
        return ParamVector(values, self.arch)


def init_params(arch: Arch, seed) -> ParamVector:
    """Glorot-uniform weights, zero biases. `seed` may be an int or SeedSequence."""
    rng = np.random.default_rng(seed)
    if arch.head == HEAD_QUADRATIC:
        return ParamVector(rng.uniform(-1.0, 1.0, arch.param_count), arch)
    chunks = []
    for out, inp in arch.layer_dims():
        bound = np.sqrt(6.0 / (inp + out))
        chunks.append(rng.uniform(-bound, bound, out * inp))
        chunks.append(np.zeros(out))
    return ParamVector(np.concatenate(chunks), arch)


# ---------------------------------------------------------------------
# array core
#
# Parameters are raw float arrays of shape (..., d) and batches are
# (x (..., m, input_dim), t) with the same leading axes, one row per client.
# t is the float target (..., m, output_dim) for mse, the integer labels
# (..., m) for xent and None for the quadratic head. Every row is computed
# with the same operations, in the same order, as a lone (d,) vector, so a
# block of clients gives each client's result bit for bit. Reductions that
# numpy would order differently along an axis (means, norms) run per row.

def quiet():
    """Overflow surfaces as NumericalError via the finiteness checks, not
    as warnings; the array core runs inside this context."""
    return np.errstate(over="ignore", invalid="ignore")


def check_batch(arch: Arch, batch) -> tuple[np.ndarray, np.ndarray | None]:
    """One client's batch, validated and converted to the core's (x, t)."""
    x, y = batch
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ParameterError("batch inputs must be a nonempty (m, dim) array")
    if arch.head != HEAD_QUADRATIC and x.shape[1] != arch.input_dim:
        raise ParameterError(
            f"batch input dim {x.shape[1]} does not match arch input_dim "
            f"{arch.input_dim}"
        )
    m = x.shape[0]
    if y.shape[:1] != (m,):
        raise ParameterError("batch inputs and targets disagree in length")
    if arch.head == HEAD_QUADRATIC:
        return x, None
    if arch.head == HEAD_MSE:
        return x, y.reshape(m, arch.output_dim).astype(float)
    labels = y.astype(int)
    # the gradient builds a one-hot mask, which would skip a bad label silently
    if labels.ndim != 1 or labels.min() < 0 or labels.max() >= arch.output_dim:
        raise ParameterError(f"xent labels must be integers in [0, {arch.output_dim})")
    return x, labels


def stack_batches(batches) -> tuple[np.ndarray, np.ndarray | None]:
    """Checked batches of equal shapes as one batch with a leading client axis."""
    xs, ts = zip(*batches)
    return np.stack(xs), None if ts[0] is None else np.stack(ts)


def _layer_views(values: np.ndarray, arch: Arch) -> list:
    """Per-layer (W (..., out, inp), b (..., 1, out)) views of values (..., d)."""
    lead = values.shape[:-1]
    return [(values[..., ws].reshape(lead + (out, inp)), values[..., None, bs])
            for out, inp, ws, bs in arch.layers]


def _forward(values: np.ndarray, arch: Arch, x: np.ndarray):
    """(per-layer (W, b) views, activations entering each layer, final
    pre-activation z of shape (..., m, output_dim))."""
    layers = _layer_views(values, arch)
    hs = [x]
    for W, b in layers[:-1]:
        z = hs[-1] @ W.swapaxes(-1, -2)
        z += b
        hs.append(np.tanh(z, out=z))
    W, b = layers[-1]
    z = hs[-1] @ W.swapaxes(-1, -2)
    z += b
    return layers, hs, z


def _finite_forward(values, arch, x):
    out = _forward(values, arch, x)
    if not np.isfinite(out[2]).all():
        raise NumericalError("non-finite forward values")
    return out


def _per_row_mean(a: np.ndarray, lead: tuple) -> list[float]:
    return [float(np.mean(r)) for r in a.reshape((-1,) + a.shape[len(lead):])]


def losses(values: np.ndarray, arch: Arch, x, t) -> list[float]:
    """Mean batch loss of each row of values (flattened leading axes)."""
    if arch.head == HEAD_QUADRATIC:
        return [0.5 * float(r @ r) for r in values.reshape(-1, values.shape[-1])]
    z = _finite_forward(values, arch, x)[2]
    lead = z.shape[:-2]
    if arch.head == HEAD_MSE:
        return _per_row_mean((z - t) ** 2, lead)
    zs = z - z.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(zs).sum(axis=-1))
    picked = np.take_along_axis(zs, t[..., None], axis=-1)[..., 0]
    return _per_row_mean(logsumexp - picked, lead)


def predictions(values: np.ndarray, arch: Arch, x) -> np.ndarray:
    """Network output z (..., m, output_dim), unchecked."""
    return _forward(values, arch, x)[2]


class Tape(NamedTuple):
    """What one gradient call leaves for Hessian-vector products at the same
    point and batch: the (W, b) views, the activations entering each layer,
    the output delta, the softmax probabilities (xent) and, per hidden layer
    from the top, the backward product delta @ W before tanh'."""
    arch: Arch
    layers: Sequence = ()
    hs: Sequence = ()
    delta: np.ndarray | None = None
    probs: np.ndarray | None = None
    backs: Sequence = ()


def taped_grads(values: np.ndarray, arch: Arch, x, t) -> tuple[np.ndarray, Tape]:
    """Gradient of each row's mean batch loss, shape (..., d), and its tape."""
    if arch.head == HEAD_QUADRATIC:
        return values.copy(), Tape(arch)
    layers, hs, z = _finite_forward(values, arch, x)
    m = z.shape[-2]
    probs = None
    if arch.head == HEAD_MSE:
        resid = z - t
        delta = 2.0 * resid / (m * arch.output_dim)
    else:  # softmax cross-entropy
        zs = z - z.max(axis=-1, keepdims=True)
        logsumexp = np.log(np.exp(zs).sum(axis=-1))
        probs = np.exp(zs - logsumexp[..., None])
        delta = (probs - (t[..., None] == np.arange(arch.output_dim))) / m
    tape = Tape(arch, layers, hs, delta, probs, [])
    lead = z.shape[:-2]
    g = np.empty(lead + values.shape[-1:])
    for li in range(len(layers) - 1, -1, -1):
        out, inp, ws, bs = arch.layers[li]
        # a view of g: the slice's last axis is contiguous, so it splits freely
        np.matmul(delta.swapaxes(-1, -2), hs[li],
                  out=g[..., ws].reshape(lead + (out, inp)))
        g[..., bs] = np.add.reduce(delta, axis=-2)
        if li > 0:
            back = delta @ layers[li][0]
            tape.backs.append(back)
            delta = back * (1.0 - np.square(hs[li]))   # tanh' = 1 - h^2
    return g, tape


def grads(values: np.ndarray, arch: Arch, x, t) -> np.ndarray:
    """Gradient of each row's mean batch loss, shape (..., d)."""
    return taped_grads(values, arch, x, t)[0]


def hvps(tape: Tape, v: np.ndarray) -> np.ndarray:
    """Exact Hessian-vector product of each row (Pearlmutter's R-operator):
    the directional derivative along v (..., d) of the taped forward and
    backward passes, computed from the tape without a new gradient call."""
    arch = tape.arch
    if arch.head == HEAD_QUADRATIC:
        return v.copy()
    lead = v.shape[:-1]
    dirs = _layer_views(v, arch)
    hs, layers = tape.hs, tape.layers
    dtanhs = [None] + [1.0 - np.square(h) for h in hs[1:]]
    # R-forward: rhs[li] = R(h) entering layer li; the input x has none
    rhs = [None]
    for li, ((W, _), (VW, Vb)) in enumerate(zip(layers, dirs)):
        rz = hs[li] @ VW.swapaxes(-1, -2)
        rz += Vb
        if li > 0:
            rz += rhs[li] @ W.swapaxes(-1, -2)
        if li + 1 < len(layers):
            rz *= dtanhs[li + 1]
            rhs.append(rz)
    m = rz.shape[-2]
    if arch.head == HEAD_MSE:
        rdelta = 2.0 * rz / (m * arch.output_dim)
    else:  # R(softmax) = p * (Rz - <p, Rz>)
        p = tape.probs
        rdelta = p * (rz - np.sum(p * rz, axis=-1, keepdims=True)) / m
    # R-backward over the taped deltas
    delta = tape.delta
    hv = np.empty(lead + v.shape[-1:])
    for li in range(len(layers) - 1, -1, -1):
        out, inp, ws, bs = arch.layers[li]
        hw = hv[..., ws].reshape(lead + (out, inp))
        np.matmul(rdelta.swapaxes(-1, -2), hs[li], out=hw)
        hv[..., bs] = np.add.reduce(rdelta, axis=-2)
        if li > 0:
            hw += delta.swapaxes(-1, -2) @ rhs[li]
            back = tape.backs[len(layers) - 1 - li]
            rdelta = rdelta @ layers[li][0]
            rdelta += delta @ dirs[li][0]
            rdelta *= dtanhs[li]
            # R(tanh') = -2 h R(h)
            rdelta -= 2.0 * hs[li] * rhs[li] * back
            delta = back * dtanhs[li]
    return hv


# ---------------------------------------------------------------------
# ParamVector edges: check the batch once, then run the core

def loss(p: ParamVector, batch) -> float:
    """Mean loss over the batch."""
    x, t = check_batch(p.arch, batch)
    with quiet():
        return losses(p.values, p.arch, x, t)[0]


def grad(p: ParamVector, batch) -> ParamVector:
    """Gradient of the mean batch loss with respect to the flat parameters."""
    x, t = check_batch(p.arch, batch)
    with quiet():
        return p.with_values(grads(p.values, p.arch, x, t))


def predict(p: ParamVector, x: np.ndarray) -> np.ndarray:
    """Network output (logits for xent, raw values for mse)."""
    return predictions(p.values, p.arch, np.asarray(x, dtype=float))


def hvp(p: ParamVector, batch, v: ParamVector) -> ParamVector:
    """Exact Hessian-vector product of the mean batch loss at p."""
    x, t = check_batch(p.arch, batch)
    with quiet():
        return p.with_values(hvps(taped_grads(p.values, p.arch, x, t)[1], v.values))


def serialize_params(p: ParamVector) -> str:
    a = p.arch
    hidden = ",".join(map(str, a.hidden)) if a.hidden else "-"
    header = f"arch {a.input_dim} {hidden} {a.output_dim} {a.head}"
    body = "\n".join(repr(float(v)) for v in p.values)
    return header + "\n" + body + "\n"


def deserialize_params(text: str) -> ParamVector:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    parts = lines[0].split()
    if parts[0] != "arch" or len(parts) != 5:
        raise ParameterError("bad parameter header line")
    hidden = () if parts[2] == "-" else tuple(int(w) for w in parts[2].split(","))
    arch = Arch(int(parts[1]), hidden, int(parts[3]), parts[4])
    values = np.array([float(ln) for ln in lines[1:]])
    return ParamVector(values, arch)
