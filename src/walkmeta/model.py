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
# block of clients gives each client's result bit for bit, under one BLAS
# core: OpenBLAS picks its kernels for the CPU (or OPENBLAS_CORETYPE), and
# under some cores a block row and the lone call differ in the last bits at
# tiny shapes. Reductions that numpy would order differently along an axis
# (means, norms) run per row.
# The arrays of a pass live in a Tape, which a caller can keep and reuse. A
# tape binds each of its passes once, when it is built, as a flat list of
# (ufunc or product, operands) over its own buffers and the views it made
# of them. A call copies its point and batch input (or HVP direction) in
# and runs the list; the head's one op that reads the targets runs before
# the backward list. These are the same operations as on fresh arrays, so
# the same bits, without allocating, building a view or deciding anything
# per layer; results are copied out as new arrays. At the sizes a walk
# step runs, dispatch, not arithmetic, is most of its time: a d=25 step
# makes about 270 ufunc and BLAS calls. So out is passed positionally (an
# in-place operator or out= costs more), finiteness is checked with one
# BLAS call (`finite`), and a lone tape, whose operands are all 2-D,
# multiplies with np.dot, which calls the same BLAS routine as a block's
# np.matmul for less dispatch; tests/test_blocks.py checks that the bits
# agree.

def quiet():
    """Overflow surfaces as NumericalError via the finiteness checks, not
    as warnings; the array core runs inside this context."""
    return np.errstate(over="ignore", invalid="ignore")


def check_inputs(arch: Arch, x) -> np.ndarray:
    """One client's batch inputs, validated and converted to the core's x."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ParameterError("batch inputs must be a nonempty (m, dim) array")
    if arch.head != HEAD_QUADRATIC and x.shape[1] != arch.input_dim:
        raise ParameterError(
            f"batch input dim {x.shape[1]} does not match arch input_dim "
            f"{arch.input_dim}"
        )
    return x


def check_batch(arch: Arch, batch) -> tuple[np.ndarray, np.ndarray | None]:
    """One client's batch, validated and converted to the core's (x, t)."""
    x, y = batch
    x = check_inputs(arch, x)
    y = np.asarray(y)
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
    leading axes `lead`, their views, and the passes bound over them, all
    made when the tape is built. The tape proper is what an HVP at the same
    point and batch reads: the `point` with its per-layer views W, Wt
    (transposed) and b; the activations hs entering each layer, hs[0] being
    the batch input `x`; deltas[li], the loss derivative at layer li's
    pre-activation (the last is the output `delta`); the softmax probs
    (xent); and, per hidden layer input li, backs[li], the backward product
    deltas[li] @ W before tanh', and dtanh[li], tanh' = 1 - hs[li]^2. The
    rest is scratch: deltas[0], which no HVP reads; the HVP direction `dir`
    and the vector `res` a gradient or HVP is written to before it is
    copied out, each with its views; the output `z`; and the head and R-pass
    temporaries. A tape may take arrays from a source tape with the same
    leading axes over at least m examples, each as a prefix of the source's
    array: its scratch from `share`, so tapes never written at the same time
    pay for one scratch, or all of them from `within` (see `rows`). Contents
    hold until the next call that writes this tape or one sharing them.

    Each pass is bound once, as a list of (function, operands) over these
    arrays: `forward` (layer products, biases and tanh), `backward` (the
    loss head after its one op that reads the targets, then the layers) and
    `rop` (the R-forward and R-backward passes of an HVP). `zero_point` and
    `zero_z` are zeros as many as the point and z have entries, for
    `finite`."""

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
        d, k = arch.param_count, arch.output_dim
        outs = [out for out, *_ in arch.layers]
        hidden = outs[:-1]
        xent = arch.head == HEAD_XENT
        self.point = point = own(d)
        hs = [own(m, arch.input_dim)] + [own(m, w) for w in hidden]
        backs = [None] + [own(m, w) for w in hidden]
        dtanh = [None] + [own(m, w) for w in hidden]
        deltas = [scratch(m, w) for w in outs[:1]] + [own(m, w) for w in outs[1:]]
        probs = own(m, k) if xent else None
        self.dir, self.res = scratch(d), scratch(d)
        self.z = z = scratch(m, k)
        tmp = [scratch(m, w) for w in outs]               # one per layer output
        rhs = [None] + [scratch(m, w) for w in outs]      # R(h) entering li; R(z)
        rdeltas = [scratch(m, w) for w in hidden] + rhs[-1:]  # R(deltas)
        wtmp = [None] + [scratch(out, inp) for out, inp, *_ in arch.layers[1:]]
        self.mask = scratch(m, k, dtype=bool) if xent else None
        col = scratch(m, 1) if xent else None   # per-example max, log-sum-exp, <p, R(z)>
        self.classes = np.arange(k)
        self.x = hs[0]
        self.delta = delta = deltas[-1] if deltas else None
        # read only: a source's zeros serve every tape cut from it
        self._zeros = (np.zeros(math.prod(lead) * max(d, m * k)) if share is None
                       else share._zeros)
        self.zero_point, self.zero_z = self._zeros[:point.size], self._zeros[:z.size]

        mm = np.dot if lead == () else np.matmul   # see the array core's comment
        W, b = _layer_views(point, arch)
        VW, Vb = _layer_views(self.dir, arch)
        resW, resb = _layer_views(self.res, arch)
        Wt, VWt = _transposed(W), _transposed(VW)
        deltasT, rdeltasT = _transposed(deltas), _transposed(rdeltas)
        n = len(arch.layers)
        self.forward = fwd = []
        for li, zl in zip(range(n), hs[1:] + [z]):   # zl: layer li's pre-activation
            fwd += [(mm, (hs[li], Wt[li], zl)), (np.add, (zl, b[li], zl))]
            if li + 1 < n:
                fwd.append((np.tanh, (zl, zl)))
        self.backward = bwd = []
        if arch.head == HEAD_MSE:   # after delta = z - t
            bwd += [(np.multiply, (delta, 2.0, delta)),
                    (np.divide, (delta, m * k, delta))]
        elif xent:   # softmax cross-entropy, after the one-hot mask of t
            bwd += [(np.maximum.reduce, (z, -1, None, col, True)),
                    (np.subtract, (z, col, z)),
                    (np.exp, (z, probs)),
                    (np.add.reduce, (probs, -1, None, col, True)),
                    (np.log, (col, col)),
                    (np.subtract, (z, col, probs)),
                    (np.exp, (probs, probs)),
                    (np.subtract, (probs, self.mask, delta)),
                    (np.divide, (delta, m, delta))]
        for li in range(n - 1, -1, -1):
            bwd += [(mm, (deltasT[li], hs[li], resW[li])),
                    (np.add.reduce, (deltas[li], -2, None, resb[li], True))]
            if li > 0:
                bwd += [(mm, (deltas[li], W[li], backs[li])),
                        (np.square, (hs[li], dtanh[li])),
                        (np.subtract, (1.0, dtanh[li], dtanh[li])),   # tanh' = 1 - h^2
                        (np.multiply, (backs[li], dtanh[li], deltas[li - 1]))]
        self.rop = rop = []
        # R-forward: rhs[li] = R(h) entering layer li; the input x has none
        for li in range(n):
            rz = rhs[li + 1]
            rop += [(mm, (hs[li], VWt[li], rz)), (np.add, (rz, Vb[li], rz))]
            if li > 0:
                rop += [(mm, (rhs[li], Wt[li], tmp[li])), (np.add, (rz, tmp[li], rz))]
            if li + 1 < n:
                rop.append((np.multiply, (rz, dtanh[li + 1], rz)))
        # R(z) becomes R(output delta) in place
        if arch.head == HEAD_MSE:
            rop += [(np.multiply, (rz, 2.0, rz)), (np.divide, (rz, m * k, rz))]
        elif xent:   # R(softmax) = p * (Rz - <p, Rz>)
            rop += [(np.multiply, (probs, rz, tmp[-1])),
                    (np.add.reduce, (tmp[-1], -1, None, col, True)),
                    (np.subtract, (rz, col, rz)),
                    (np.multiply, (rz, probs, rz)),
                    (np.divide, (rz, m, rz))]
        # R-backward over the taped deltas
        for li in range(n - 1, -1, -1):
            rop += [(mm, (rdeltasT[li], hs[li], resW[li])),
                    (np.add.reduce, (rdeltas[li], -2, None, resb[li], True))]
            if li > 0:
                rd, r = rdeltas[li - 1], tmp[li - 1]
                rop += [(mm, (deltasT[li], rhs[li], wtmp[li])),
                        (np.add, (resW[li], wtmp[li], resW[li])),
                        (mm, (rdeltas[li], W[li], rd)),
                        (mm, (deltas[li], VW[li], r)),
                        (np.add, (rd, r, rd)),
                        (np.multiply, (rd, dtanh[li], rd)),
                        # R(tanh') = -2 h R(h)
                        (np.multiply, (2.0, hs[li], r)),
                        (np.multiply, (r, rhs[li], r)),
                        (np.multiply, (r, backs[li], r)),
                        (np.subtract, (rd, r, rd))]

    @classmethod
    def fresh(cls, arch: Arch, x: np.ndarray) -> Tape:
        """A tape for the batch input x (..., m, input_dim)."""
        return cls(arch, x.shape[:-2], x.shape[-2])

    def rows(self, lead: tuple) -> Tape:
        """A view of this (rows, ...) tape's first lead[0] rows, or of row 0
        when lead is ()."""
        return Tape(self.arch, lead, self.m, within=self)


def finite(a: np.ndarray, zeros: np.ndarray) -> bool:
    """Whether every entry of a is finite, in one BLAS call: a's dot product
    with `zeros`, as many as a has entries, is NaN exactly when an entry is
    ±inf or NaN. Inside quiet() only; elsewhere numpy warns on the NaN."""
    return not math.isnan(np.vdot(a, zeros))


def _forward(values: np.ndarray, x: np.ndarray, tape: Tape) -> np.ndarray:
    """Runs the forward pass at values on the batch input x into the tape:
    its point, input and the activations entering each layer; returns the
    final pre-activation z (..., m, output_dim), which is scratch."""
    if x.shape != tape.x.shape:   # copyto would broadcast a wrong batch
        raise ParameterError(f"batch input shape {x.shape} does not match the "
                             f"tape's {tape.x.shape}")
    np.copyto(tape.point, values)
    np.copyto(tape.x, x)
    for f, a in tape.forward:
        f(*a)
    return tape.z


def _finite_forward(values, x, tape):
    z = _forward(values, x, tape)
    if not finite(z, tape.zero_z):
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
        return values.copy(), tape or Tape(arch, values.shape[:-1])
    tape = tape or Tape.fresh(arch, x)
    z = _finite_forward(values, x, tape)
    if arch.head == HEAD_MSE:   # the head's one op that reads t
        np.subtract(z, t, tape.delta)
    else:
        np.equal(t[..., None], tape.classes, tape.mask)
    for f, a in tape.backward:
        f(*a)
    return tape.res.copy(), tape


def hvps(tape: Tape, v: np.ndarray) -> np.ndarray:
    """Exact Hessian-vector product of each row (Pearlmutter's R-operator):
    the directional derivative along v (..., d) of the taped forward and
    backward passes, computed from the tape without a new gradient call. v
    is copied into the tape's direction; the product is a new array, and
    the tape's scratch is overwritten."""
    if tape.arch.head == HEAD_QUADRATIC:
        return v.copy()
    np.copyto(tape.dir, v)
    for f, a in tape.rop:
        f(*a)
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
    return predictions(p.values, p.arch, check_inputs(p.arch, x))


def hvp(p: ParamVector, batch, v: ParamVector) -> ParamVector:
    """Exact Hessian-vector product of the mean batch loss at p."""
    x, t = check_batch(p.arch, batch)
    with quiet():
        return p.with_values(hvps(taped_grads(p.values, p.arch, x, t)[1], v.values))

