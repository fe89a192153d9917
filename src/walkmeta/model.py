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
# The arrays of a pass live in a Tape, which a caller can keep and reuse: a
# call copies its input point in, writes through out and reads through
# views the tape made when it was built. The same operations as on fresh
# arrays, so the same bits, without allocating or building a view; results
# are copied out as new arrays. Per-call dispatch is most of a lone step's
# time, so out is passed positionally (an in-place operator or out= costs
# more), and a lone tape, whose operands are all 2-D, multiplies with np.dot,
# which calls the same BLAS routine as a block's np.matmul for less dispatch;
# tests/test_blocks.py checks that the bits agree.

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
    # checked: a bad label drops out of the one-hot mask. The range comes
    # before the cast, which warns on NaN or a label past int64; integrality
    # after it, since the cast truncates 0.5 to 0.
    if (y.ndim != 1 or y.dtype.kind not in "biuf"
            or not np.all((y >= 0) & (y < arch.output_dim))
            or np.any((labels := y.astype(int)) != y)):
        raise ParameterError(f"xent labels must be integers in [0, {arch.output_dim})")
    return x, labels


def stack_batches(batches) -> tuple[np.ndarray, np.ndarray | None]:
    """Checked batches of equal shapes as one batch with a leading client axis."""
    xs, ts = zip(*batches)
    return np.stack(xs), None if ts[0] is None else np.stack(ts)


def _layer_views(a: np.ndarray, arch: Arch) -> tuple[list, list]:
    """Per-layer weight views (..., out, inp) and bias views (..., 1, out)
    of a (..., d): the core's one view builder, called when a tape is built."""
    lead = a.shape[:-1]
    # the slice's last axis is contiguous, so it splits without a copy
    return ([a[..., ws].reshape(lead + (out, inp)) for out, inp, ws, _ in arch.layers],
            [a[..., None, bs] for *_, bs in arch.layers])


def _transposed(arrays: list) -> list:
    return [None if a is None else a.swapaxes(-1, -2) for a in arrays]


class Tape:
    """The arrays of one gradient pass at one point over m examples with
    leading axes `lead`, and their views, all made when the tape is built.
    The tape proper is what an HVP at the same point and batch reads: the
    `point` with its per-layer views W, Wt (transposed) and b; the
    activations `hs` entering each layer; `deltas[li]`, the loss derivative
    at layer li's pre-activation (the last is the output delta); the
    softmax `probs` (xent); and, per hidden layer input li, `backs[li]`, the
    backward product deltas[li] @ W before tanh', and `dtanh[li]`, tanh' =
    1 - hs[li]^2. The rest is scratch: deltas[0], which no HVP reads; the
    HVP direction `dir` and the vector `res` a gradient or HVP is written to
    before it is copied out, each with its views; and the R-pass arrays. A
    tape may take arrays from a source tape with the same leading axes over
    at least m examples, each as a prefix of the source's array: its scratch
    from `share`, so tapes never written at the same time pay for one
    scratch, or all of them from `within` (see `rows`). Contents hold until
    the next call that writes this tape or one sharing them."""

    def __init__(self, arch: Arch, lead: tuple = (), m: int = 0,
                 share: Tape | None = None, within: Tape | None = None):
        share = within or share
        self.arch, self.m = arch, m
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
        d = arch.param_count
        outs = [out for out, *_ in arch.layers]
        hidden = outs[:-1]
        xent = arch.head == HEAD_XENT
        self.point = own(d)
        self.hs = [None] + [own(m, w) for w in hidden]   # hs[0] is the batch input
        self.backs = [None] + [own(m, w) for w in hidden]
        self.dtanh = [None] + [own(m, w) for w in hidden]
        self.deltas = [scratch(m, w) for w in outs[:1]] + [own(m, w) for w in outs[1:]]
        self.probs = own(m, arch.output_dim) if xent else None
        self.dir, self.res = scratch(d), scratch(d)
        self.z = scratch(m, arch.output_dim)
        self.tmp = [scratch(m, w) for w in outs]               # one per layer output
        self.rhs = [None] + [scratch(m, w) for w in outs]      # R(h) entering li; R(z)
        self.rdeltas = [scratch(m, w) for w in hidden] + self.rhs[-1:]  # R(deltas)
        self.wtmp = [None] + [scratch(out, inp) for out, inp, *_ in arch.layers[1:]]
        self.mask = scratch(m, arch.output_dim, dtype=bool) if xent else None
        self.classes = np.arange(arch.output_dim)
        self.mm = np.dot if lead == () else np.matmul   # see the array core's comment
        self.outs = self.hs[1:] + [self.z]   # where each layer's pre-activation goes
        self.W, self.b = _layer_views(self.point, arch)
        self.VW, self.Vb = _layer_views(self.dir, arch)
        self.resW, self.resb = _layer_views(self.res, arch)
        self.Wt, self.VWt = _transposed(self.W), _transposed(self.VW)
        self.deltasT, self.rdeltasT = _transposed(self.deltas), _transposed(self.rdeltas)

    @classmethod
    def fresh(cls, arch: Arch, x: np.ndarray) -> Tape:
        """A tape for the batch input x (..., m, input_dim)."""
        return cls(arch, x.shape[:-2], x.shape[-2])

    def rows(self, lead: tuple) -> Tape:
        """A view of this (rows, ...) tape's first lead[0] rows, or of row 0
        when lead is ()."""
        return Tape(self.arch, lead, self.m, within=self)


def _forward(values: np.ndarray, x: np.ndarray, tape: Tape) -> np.ndarray:
    """Runs the forward pass at values into the tape: its point and the
    activations entering each layer; returns the final pre-activation z
    (..., m, output_dim), which is scratch."""
    np.copyto(tape.point, values)
    hs, mm = tape.hs, tape.mm
    hs[0] = x
    for li, (Wt, b, z) in enumerate(zip(tape.Wt, tape.b, tape.outs)):
        mm(hs[li], Wt, z)
        np.add(z, b, z)
        if li + 1 < len(hs):
            np.tanh(z, z)
    return z


def _finite_forward(values, x, tape):
    z = _forward(values, x, tape)
    if not np.logical_and.reduce(np.isfinite(z), axis=None):
        raise NumericalError("non-finite forward values")
    return z


def _per_row_mean(a: np.ndarray, lead: tuple) -> list[float]:
    return [float(np.mean(r)) for r in a.reshape((-1,) + a.shape[len(lead):])]


def losses(values: np.ndarray, arch: Arch, x, t, tape: Tape | None = None) -> list[float]:
    """Mean batch loss of each row of values (flattened leading axes); the
    forward pass writes `tape` when given."""
    if arch.head == HEAD_QUADRATIC:
        return [0.5 * float(r @ r) for r in values.reshape(-1, values.shape[-1])]
    z = _finite_forward(values, x, tape or Tape.fresh(arch, x))
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
    return _forward(values, x, tape or Tape.fresh(arch, x))


def taped_grads(values: np.ndarray, arch: Arch, x, t,
                tape: Tape | None = None) -> tuple[np.ndarray, Tape]:
    """Gradient of each row's mean batch loss, shape (..., d), and the tape,
    written into `tape` when given. The gradient is a new array."""
    if arch.head == HEAD_QUADRATIC:
        return values.copy(), tape or Tape(arch)
    tape = tape or Tape.fresh(arch, x)
    z = _finite_forward(values, x, tape)
    hs, deltas, m = tape.hs, tape.deltas, tape.m
    delta = deltas[-1]
    if arch.head == HEAD_MSE:
        np.subtract(z, t, delta)
        np.multiply(delta, 2.0, delta)
        np.divide(delta, m * arch.output_dim, delta)
    else:  # softmax cross-entropy
        np.subtract(z, np.maximum.reduce(z, axis=-1, keepdims=True), z)
        logsumexp = np.log(np.add.reduce(np.exp(z, tape.probs), axis=-1, keepdims=True))
        probs = np.subtract(z, logsumexp, tape.probs)
        np.exp(probs, probs)
        np.subtract(probs, np.equal(t[..., None], tape.classes, tape.mask), delta)
        np.divide(delta, m, delta)
    mm, W, deltasT, resW, resb = tape.mm, tape.W, tape.deltasT, tape.resW, tape.resb
    for li in range(len(deltas) - 1, -1, -1):
        mm(deltasT[li], hs[li], resW[li])
        np.add.reduce(deltas[li], axis=-2, keepdims=True, out=resb[li])
        if li > 0:
            back = mm(deltas[li], W[li], tape.backs[li])
            dtanh = np.square(hs[li], tape.dtanh[li])
            np.subtract(1.0, dtanh, dtanh)                # tanh' = 1 - h^2
            np.multiply(back, dtanh, deltas[li - 1])
    return tape.res.copy(), tape


def hvps(tape: Tape, v: np.ndarray) -> np.ndarray:
    """Exact Hessian-vector product of each row (Pearlmutter's R-operator):
    the directional derivative along v (..., d) of the taped forward and
    backward passes, computed from the tape without a new gradient call. v
    is copied into the tape's direction; the product is a new array, and
    the tape's scratch is overwritten."""
    arch = tape.arch
    if arch.head == HEAD_QUADRATIC:
        return v.copy()
    np.copyto(tape.dir, v)
    hs, dtanh, rhs, tmp, W, mm = tape.hs, tape.dtanh, tape.rhs, tape.tmp, tape.W, tape.mm
    n_layers = len(W)
    # R-forward: rhs[li] = R(h) entering layer li; the input x has none
    for li in range(n_layers):
        rz = mm(hs[li], tape.VWt[li], rhs[li + 1])
        np.add(rz, tape.Vb[li], rz)
        if li > 0:
            np.add(rz, mm(rhs[li], tape.Wt[li], tmp[li]), rz)
        if li + 1 < n_layers:
            np.multiply(rz, dtanh[li + 1], rz)
    # R(z) becomes R(output delta) in place
    if arch.head == HEAD_MSE:
        np.multiply(rz, 2.0, rz)
        np.divide(rz, tape.m * arch.output_dim, rz)
    else:  # R(softmax) = p * (Rz - <p, Rz>)
        p = tape.probs
        prz = np.add.reduce(np.multiply(p, rz, tmp[-1]), axis=-1, keepdims=True)
        np.subtract(rz, prz, rz)
        np.multiply(rz, p, rz)
        np.divide(rz, tape.m, rz)
    # R-backward over the taped deltas
    deltas, rdeltas, VW, backs = tape.deltas, tape.rdeltas, tape.VW, tape.backs
    deltasT, rdeltasT, resW, resb = tape.deltasT, tape.rdeltasT, tape.resW, tape.resb
    for li in range(n_layers - 1, -1, -1):
        hw = mm(rdeltasT[li], hs[li], resW[li])
        np.add.reduce(rdeltas[li], axis=-2, keepdims=True, out=resb[li])
        if li > 0:
            np.add(hw, mm(deltasT[li], rhs[li], tape.wtmp[li]), hw)
            rdelta = mm(rdeltas[li], W[li], rdeltas[li - 1])
            np.add(rdelta, mm(deltas[li], VW[li], tmp[li - 1]), rdelta)
            np.multiply(rdelta, dtanh[li], rdelta)
            # R(tanh') = -2 h R(h)
            r = np.multiply(2.0, hs[li], tmp[li - 1])
            np.multiply(r, rhs[li], r)
            np.multiply(r, backs[li], r)
            np.subtract(rdelta, r, rdelta)
    return tape.res.copy()


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
        return p.with_values(taped_grads(p.values, p.arch, x, t)[0])


def predict(p: ParamVector, x: np.ndarray) -> np.ndarray:
    """Network output (logits for xent, raw values for mse)."""
    return predictions(p.values, p.arch, np.asarray(x, dtype=float))


def hvp(p: ParamVector, batch, v: ParamVector) -> ParamVector:
    """Exact Hessian-vector product of the mean batch loss at p."""
    x, t = check_batch(p.arch, batch)
    with quiet():
        return p.with_values(hvps(taped_grads(p.values, p.arch, x, t)[1], v.values))

