"""Flat-parameter MLP with analytic gradients and exact Hessian-vector
products.

Parameters live in a single flat vector so the meta-optimizer can treat the
model as a point in R^d. Hidden layers use tanh; the head is either mean
squared error (regression), softmax cross-entropy (classification), or a
pure quadratic bowl used as a diagnostic surrogate (loss = ||p||^2 / 2,
ignoring the batch contents).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
# The (..., m, width) arrays of a pass are written through out= into a Tape,
# which a caller can keep and reuse: the same operations as on fresh arrays,
# so the same bits, without allocating.

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


class Tape:
    """The arrays of one gradient pass over m examples with leading axes
    `lead`, which `taped_grads` and `hvps` write through `out=` instead of
    allocating. The tape proper is what an HVP at the same point and batch
    reads: the (W, b) views of the point, the activations `hs` entering each
    layer, the output `delta`, the softmax `probs` (xent) and, per hidden
    layer li, `backs[li]`, the backward product delta @ W before tanh'. The
    rest is scratch. A tape may take arrays from a source tape with the same
    leading axes over at least m examples, each as a prefix of the source's
    array: its scratch from `share`, so tapes never written at the same time
    pay for one scratch, or all of them from `within` (see `rows`). Contents
    hold until the next call that writes this tape or one sharing them."""

    def __init__(self, arch: Arch, lead: tuple = (), m: int = 0,
                 share: Tape | None = None, within: Tape | None = None):
        share = within or share
        self.arch, self.m, self.layers = arch, m, ()
        self._own, self._scratch = [], []

        def taker(store, source):
            """Makes each array new, or as the next array of source cut to
            its shape, and records it in store."""
            def take(*shape, dtype=float):
                shape = lead + shape
                store.append(np.empty(shape, dtype) if source is None else
                             next(source).reshape(-1)[:math.prod(shape)].reshape(shape))
                return store[-1]
            return take

        own = taker(self._own, iter(within._own) if within is not None else None)
        scratch = taker(self._scratch, iter(share._scratch) if share is not None else None)
        outs = [out for out, *_ in arch.layers]
        hidden = outs[:-1]
        xent = arch.head == HEAD_XENT
        self.hs = [None] + [own(m, w) for w in hidden]   # hs[0] is the batch input
        self.backs = [None] + [own(m, w) for w in hidden]
        self.delta = own(m, arch.output_dim)
        self.probs = own(m, arch.output_dim) if xent else None
        self.z = scratch(m, arch.output_dim)
        self.tmp = [scratch(m, w) for w in outs]               # one per layer output
        self.dtanh = [None] + [scratch(m, w) for w in hidden]  # 1 - h^2 of hs[li]
        self.rhs = [None] + [scratch(m, w) for w in outs]      # R(h) entering li; R(z)
        self.rdelta = [None] + [scratch(m, w) for w in hidden]
        self.wtmp = [None] + [scratch(out, inp) for out, inp, *_ in arch.layers[1:]]
        self.mask = scratch(m, arch.output_dim, dtype=bool) if xent else None
        self.outs = self.hs[1:] + [self.z]   # where each layer's pre-activation goes

    @classmethod
    def fresh(cls, arch: Arch, x: np.ndarray) -> Tape:
        """A tape for the batch input x (..., m, input_dim)."""
        return cls(arch, x.shape[:-2], x.shape[-2])

    def rows(self, lead: tuple) -> Tape:
        """A view of this (rows, ...) tape's first lead[0] rows, or of row 0
        when lead is ()."""
        return Tape(self.arch, lead, self.m, within=self)


def _forward(values: np.ndarray, arch: Arch, x: np.ndarray, tape: Tape) -> np.ndarray:
    """Runs the forward pass into the tape: its (W, b) views of values and
    the activations entering each layer; returns the final pre-activation z
    (..., m, output_dim), which is scratch."""
    tape.layers = _layer_views(values, arch)
    tape.hs[0] = x
    for li, ((W, b), z) in enumerate(zip(tape.layers, tape.outs)):
        np.matmul(tape.hs[li], W.swapaxes(-1, -2), out=z)
        z += b
        if li + 1 < len(tape.hs):
            np.tanh(z, out=z)
    return z


def _finite_forward(values, arch, x, tape):
    z = _forward(values, arch, x, tape)
    if not np.isfinite(z).all():
        raise NumericalError("non-finite forward values")
    return z


def _per_row_mean(a: np.ndarray, lead: tuple) -> list[float]:
    return [float(np.mean(r)) for r in a.reshape((-1,) + a.shape[len(lead):])]


def losses(values: np.ndarray, arch: Arch, x, t, tape: Tape | None = None) -> list[float]:
    """Mean batch loss of each row of values (flattened leading axes); the
    forward pass writes `tape` when given."""
    if arch.head == HEAD_QUADRATIC:
        return [0.5 * float(r @ r) for r in values.reshape(-1, values.shape[-1])]
    z = _finite_forward(values, arch, x, tape or Tape.fresh(arch, x))
    lead = z.shape[:-2]
    if arch.head == HEAD_MSE:
        return _per_row_mean((z - t) ** 2, lead)
    zs = z - z.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(zs).sum(axis=-1))
    picked = np.take_along_axis(zs, t[..., None], axis=-1)[..., 0]
    return _per_row_mean(logsumexp - picked, lead)


def predictions(values: np.ndarray, arch: Arch, x, tape: Tape | None = None) -> np.ndarray:
    """Network output z (..., m, output_dim), unchecked; with `tape` given,
    z is its scratch and holds until the tape is next written."""
    if arch.head == HEAD_QUADRATIC:
        raise ParameterError(f"head {HEAD_QUADRATIC!r} has no network output to predict")
    return _forward(values, arch, x, tape or Tape.fresh(arch, x))


def taped_grads(values: np.ndarray, arch: Arch, x, t,
                tape: Tape | None = None) -> tuple[np.ndarray, Tape]:
    """Gradient of each row's mean batch loss, shape (..., d), and the tape,
    written into `tape` when given. The gradient is a new array."""
    if arch.head == HEAD_QUADRATIC:
        return values.copy(), tape or Tape(arch)
    tape = tape or Tape.fresh(arch, x)
    z = _finite_forward(values, arch, x, tape)
    hs, layers = tape.hs, tape.layers
    m = z.shape[-2]
    delta = tape.delta
    if arch.head == HEAD_MSE:
        np.subtract(z, t, out=delta)
        delta *= 2.0
        delta /= m * arch.output_dim
    else:  # softmax cross-entropy
        np.subtract(z, z.max(axis=-1, keepdims=True), out=z)
        logsumexp = np.log(np.exp(z, out=tape.probs).sum(axis=-1))
        probs = np.subtract(z, logsumexp[..., None], out=tape.probs)
        np.exp(probs, out=probs)
        np.subtract(probs, np.equal(t[..., None], np.arange(arch.output_dim),
                                    out=tape.mask), out=delta)
        delta /= m
    lead = z.shape[:-2]
    g = np.empty(lead + values.shape[-1:])
    for li in range(len(layers) - 1, -1, -1):
        out, inp, ws, bs = arch.layers[li]
        # a view of g: the slice's last axis is contiguous, so it splits freely
        np.matmul(delta.swapaxes(-1, -2), hs[li],
                  out=g[..., ws].reshape(lead + (out, inp)))
        g[..., bs] = np.add.reduce(delta, axis=-2)
        if li > 0:
            back = np.matmul(delta, layers[li][0], out=tape.backs[li])
            dtanh = np.square(hs[li], out=tape.dtanh[li])
            np.subtract(1.0, dtanh, out=dtanh)                # tanh' = 1 - h^2
            delta = np.multiply(back, dtanh, out=dtanh)
    return g, tape


def grads(values: np.ndarray, arch: Arch, x, t) -> np.ndarray:
    """Gradient of each row's mean batch loss, shape (..., d)."""
    return taped_grads(values, arch, x, t)[0]


def hvps(tape: Tape, v: np.ndarray) -> np.ndarray:
    """Exact Hessian-vector product of each row (Pearlmutter's R-operator):
    the directional derivative along v (..., d) of the taped forward and
    backward passes, computed from the tape without a new gradient call. The
    product is a new array; the tape's scratch is overwritten."""
    arch = tape.arch
    if arch.head == HEAD_QUADRATIC:
        return v.copy()
    lead = v.shape[:-1]
    dirs = _layer_views(v, arch)
    hs, layers, rhs, tmp = tape.hs, tape.layers, tape.rhs, tape.tmp
    dtanhs = [None] + [np.subtract(1.0, np.square(h, out=d), out=d)
                       for h, d in zip(hs[1:], tape.dtanh[1:])]
    # R-forward: rhs[li] = R(h) entering layer li; the input x has none
    for li, ((W, _), (VW, Vb)) in enumerate(zip(layers, dirs)):
        rz = np.matmul(hs[li], VW.swapaxes(-1, -2), out=rhs[li + 1])
        rz += Vb
        if li > 0:
            rz += np.matmul(rhs[li], W.swapaxes(-1, -2), out=tmp[li])
        if li + 1 < len(layers):
            rz *= dtanhs[li + 1]
    m = rz.shape[-2]
    rdelta = rz
    if arch.head == HEAD_MSE:
        rdelta *= 2.0
        rdelta /= m * arch.output_dim
    else:  # R(softmax) = p * (Rz - <p, Rz>)
        p = tape.probs
        pr = np.sum(np.multiply(p, rz, out=tmp[-1]), axis=-1, keepdims=True)
        rdelta -= pr
        rdelta *= p
        rdelta /= m
    # R-backward over the taped deltas
    delta = tape.delta
    hv = np.empty(lead + v.shape[-1:])
    for li in range(len(layers) - 1, -1, -1):
        out, inp, ws, bs = arch.layers[li]
        hw = hv[..., ws].reshape(lead + (out, inp))
        np.matmul(rdelta.swapaxes(-1, -2), hs[li], out=hw)
        hv[..., bs] = np.add.reduce(rdelta, axis=-2)
        if li > 0:
            hw += np.matmul(delta.swapaxes(-1, -2), rhs[li], out=tape.wtmp[li])
            back = tape.backs[li]
            rdelta = np.matmul(rdelta, layers[li][0], out=tape.rdelta[li])
            rdelta += np.matmul(delta, dirs[li][0], out=tmp[li - 1])
            rdelta *= dtanhs[li]
            # R(tanh') = -2 h R(h)
            r = np.multiply(2.0, hs[li], out=tmp[li - 1])
            r *= rhs[li]
            r *= back
            rdelta -= r
            # tanh' at li is not read again
            delta = np.multiply(back, dtanhs[li], out=dtanhs[li])
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
