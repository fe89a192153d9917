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
from functools import cached_property

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
    # worked out once here so the array core never recomputes them. The
    # weight slice holds W transposed, (inp, out) row-major, and the bias
    # follows it, so a layer is one (inp + 1, out) block [W^T; b]
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
    """Glorot-uniform weights, zero biases. `seed` may be an int or
    SeedSequence. Each W (out, inp) is drawn row-major and stored
    transposed, the layout of Arch.layers."""
    rng = np.random.default_rng(seed)
    if arch.head == HEAD_QUADRATIC:
        return ParamVector(rng.uniform(-1.0, 1.0, arch.param_count), arch)
    chunks = []
    for out, inp in arch.layer_dims():
        bound = np.sqrt(6.0 / (inp + out))
        chunks.append(rng.uniform(-bound, bound, out * inp).reshape(out, inp).T.ravel())
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
# (means, norms) run per row. A layer's weights and bias are one block
# [W^T; b] of the point (see Arch.layers), and every layer input carries a
# ones column, so each product of a pass carries its bias: the forward
# product adds b, the backward product's last row is the bias gradient
# (the sum of deltas over the examples), and likewise for the R-passes.
# No pass adds a bias by broadcasting or sums over the examples itself.
# The arrays of a pass live in a Tape, which binds each pass once as a flat
# list of (function, operands) over its buffers and their views: forward
# when it is built, backward and the HVP pass on first use. These are the
# operations on fresh arrays, so the same bits, with nothing allocated,
# viewed or decided per layer. The per-pass functions here (`losses`,
# `taped_grads`, then `hvps` over its tape) build a fresh tape per call,
# copy the inputs in, run one pass at a time and copy results out as new
# arrays: the reference. A metalearn.Workspace keeps a run's tapes, and only
# its Programs run them: a cut's whole meta-gradient (K inner steps, query
# pass, K HVPs) is one list, its finiteness checks read once after it,
# tested against the reference bit for bit. At a walk step's sizes
# dispatch, not arithmetic, is most of the time: a d=25 step runs 195 ufunc
# and BLAS calls, under 1 µs each. So out is positional (an in-place
# operator or out= costs more), scalars are read-only 0-d arrays (`const`),
# a copy is its destination's bound __setitem__, finiteness is one BLAS call
# (`finite`), a lone tape (its operands all 2-D) multiplies with its left
# operand's bound ndarray.dot, the routine of np.dot and of a block's
# np.matmul (tests/test_blocks.py checks the bits agree), and the mse head's
# 2 (z - t) / (m k) is (z - t) / (m k / 2): doubling is exact, so both are
# one rounding of the same quotient, the same bits unless 2 (z - t) overflows.
# A support tape's head divisor carries the inner step size alpha (count /
# alpha, inf at 0), so its gradient and HVP come out times alpha. The xent
# head's max runs over a class-major copy of z (a reduce along the short last
# axis is slower), its class sums are products with a ones column, p = e / sum(e).


def const(x: float) -> np.ndarray:
    """x as a read-only 0-d array: an op list's scalar operand."""
    a = np.array(float(x))
    a.flags.writeable = False
    return a


_ONE, _TWO = const(1.0), const(2.0)


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


def _layer_views(a: np.ndarray, arch: Arch) -> tuple[list, list]:
    """Per-layer blocks [W^T; b] (..., inp + 1, out) of a (..., d) and
    their W^T prefixes (..., inp, out): the core's one view builder, called
    when a tape is built."""
    lead = a.shape[:-1]
    # the slice's last axis is contiguous, so it splits without a copy
    blocks = [a[..., ws.start:bs.stop].reshape(lead + (inp + 1, out))
              for out, inp, ws, bs in arch.layers]
    return blocks, [blk[..., :-1, :] for blk in blocks]


def _transposed(arrays: list) -> list:
    return [None if a is None else a.swapaxes(-1, -2) for a in arrays]


class Tape:
    """The arrays of one gradient pass at one point over m examples with
    leading axes `lead`, their views, and the passes bound over them. The
    tape proper is what an HVP at the same point and batch reads: the
    `point` with its per-layer blocks A = [W^T; b], their prefixes Wt = W^T
    and W (transposed); the activations hs entering each layer, hs[0] being
    the batch input `x`, and ins[li], hs[li] with a ones column, the operand
    of layer li's products (x is a view of ins[0]; a hidden activation is
    computed in hs, which elementwise ops read contiguous, and copied into
    ins); deltas[li], the loss derivative at layer li's pre-activation (the
    last is the output `delta`); the softmax probs (xent); and, per hidden
    layer input li, backs[li], the backward product deltas[li] @ W before
    tanh', and dtanh[li], tanh' = 1 - hs[li]^2. The batch targets `t` sit
    beside x, and for xent their one-hot `mask`, which the writer of t
    rewrites with `onehot`. The rest is scratch: deltas[0], which no HVP
    reads; the HVP direction `dir` and the vector `res` a gradient or HVP is
    written to, each with its views; the output `z`; the head and R-pass
    temporaries; and for xent z's class-major copy `zc`. A tape may take
    arrays from a source tape with the same leading axes over at least m
    examples, each as a prefix of the source's array: its scratch from
    `share`, so tapes never written at the same time pay for one scratch,
    its x, t and mask from `inputs`, so tapes over one batch write them
    once, or all of them from `within` (see `rows`); a metalearn.Workspace
    builds its tapes so. A fresh tape (`fresh`) serves one per-pass call and
    the HVPs over it. Contents hold until the next pass that writes this
    tape or one sharing them.

    Each pass is a list of (function, operands) over these arrays, bound
    once: `forward` (layer products and tanh) when the tape is built,
    `backward` (the loss head, which reads t or its mask, then the layers)
    and `rop` (the R-forward and R-backward passes of an HVP) on first use,
    so a tape that only runs forward binds neither. For the quadratic head,
    whose gradient is the point and whose Hessian is I, forward is empty
    and backward and rop are one copy each (a multiply, with alpha). A tape
    built with `alpha` is an inner step's support tape: its gradient and HVP
    come out times alpha. `zero_point` and `zero_z` are zeros as many as the
    point and z have entries, for `finite`."""

    def __init__(self, arch: Arch, lead: tuple = (), m: int = 0,
                 share: Tape | None = None, within: Tape | None = None,
                 inputs: Tape | None = None, alpha: float | None = None):
        share, inputs = within or share, within or inputs
        self.arch, self.m, self.alpha = arch, m, alpha
        self._own, self._scratch, self._inputs = [], [], []

        def taker(store, source):
            """Makes each array new, or as the next array of source cut to
            its shape, and records it in store."""
            source = None if source is None else iter(source)

            def take(*shape, dtype=float):
                shape = lead + shape
                store.append(np.empty(shape, dtype) if source is None else
                             next(source).reshape(-1)[:math.prod(shape)].reshape(shape))
                return store[-1]
            return take

        own = taker(self._own, within and within._own)
        scratch = taker(self._scratch, share and share._scratch)
        given = taker(self._inputs, inputs and inputs._inputs)
        d, k = arch.param_count, arch.output_dim
        outs = [out for out, *_ in arch.layers]
        hidden = outs[:-1]
        xent = arch.head == HEAD_XENT
        self.point = own(d)
        self.ins = [given(m, arch.input_dim + 1)] + [own(m, w + 1) for w in hidden]
        for a in self.ins:   # set once: every later write goes to the prefix
            a[..., -1] = 1.0
        self.x = self.ins[0][..., :-1]
        self.t = (given(m, k) if arch.head == HEAD_MSE else given(m, dtype=int) if xent
                  else None)
        self.mask = given(m, k, dtype=bool) if xent else None
        self.hs = hs = [self.x] + [own(m, w) for w in hidden]
        self.backs = [None] + [own(m, w) for w in hidden]
        self.dtanh = [None] + [own(m, w) for w in hidden]
        self.deltas = [scratch(m, w) for w in outs[:1]] + [own(m, w) for w in outs[1:]]
        self.probs = own(m, k) if xent else None
        self.dir, self.res = scratch(d), scratch(d)
        self.z = z = scratch(m, k)
        self.tmp = [scratch(m, w) for w in outs]               # one per layer output
        self.rhs = [None] + [scratch(m, w) for w in outs]      # R(h) entering li; R(z)
        self.rdeltas = [scratch(m, w) for w in hidden] + self.rhs[-1:]  # R(deltas)
        self.wtmp = [None] + [scratch(inp, out) for out, inp, *_ in arch.layers[1:]]
        self.col = scratch(m, 1) if xent else None   # per-example max, sum of e^z, <p, R(z)>
        self.zc = scratch(k, m) if xent else None     # z class-major, for the max
        self.ones = np.ones((k, 1)) if xent else None  # class sums as products
        self.classes = np.arange(k)
        self.onehot = [(np.equal, (self.t[..., None], self.classes, self.mask))] if xent else []
        count = m * k / 2 if arch.head == HEAD_MSE else m   # the head's divisor, over alpha
        self._count = const(count if alpha is None else count / alpha if alpha else math.inf)
        self.insT = _transposed(self.ins)
        self.delta = self.deltas[-1] if self.deltas else None
        # read only: a source's zeros serve every tape cut from it
        self._zeros = (np.zeros(math.prod(lead) * max(d, m * k)) if share is None
                       else share._zeros)
        self.zero_point, self.zero_z = self._zeros[:self.point.size], self._zeros[:z.size]

        lone = lead == ()   # a product op of a lone tape calls a's bound dot; see above
        self.mm = mm = lambda a, b, out: (a.dot, (b, out)) if lone else (np.matmul, (a, b, out))
        self.A, self.Wt = _layer_views(self.point, arch)
        self.W = _transposed(self.Wt)
        self.forward = fwd = []
        n = len(arch.layers)
        for li, zl in zip(range(n), hs[1:] + [z]):   # zl: layer li's pre-activation
            fwd.append(mm(self.ins[li], self.A[li], zl))
            if li + 1 < n:
                fwd += [(np.tanh, (zl, zl)), (self.ins[li + 1][..., :-1].__setitem__, (..., zl))]

    @cached_property
    def _res_views(self) -> tuple[list, list]:
        return _layer_views(self.res, self.arch)

    def _quadratic(self, a: np.ndarray) -> list:   # a into res, times alpha if given
        return [(self.res.__setitem__, (..., a)) if self.alpha is None else
                (np.multiply, (a, const(self.alpha), self.res))]

    @cached_property
    def backward(self) -> list:
        arch, mm = self.arch, self.mm
        if arch.head == HEAD_QUADRATIC:
            return self._quadratic(self.point)
        hs, deltas, delta, probs, col = self.hs, self.deltas, self.delta, self.probs, self.col
        resA, _ = self._res_views
        if arch.head == HEAD_MSE:
            bwd = [(np.subtract, (self.z, self.t, delta)),
                   (np.divide, (delta, self._count, delta))]
        else:   # softmax cross-entropy
            z = self.z
            bwd = [(self.zc.__setitem__, (..., z.swapaxes(-1, -2))),
                   (np.maximum.reduce, (self.zc, -2, None, col.swapaxes(-1, -2), True)),
                   (np.subtract, (z, col, z)),
                   (np.exp, (z, probs)),
                   mm(probs, self.ones, col),
                   (np.divide, (probs, col, probs)),   # p = e / sum(e)
                   (np.subtract, (probs, self.mask, delta)),
                   (np.divide, (delta, self._count, delta))]
        for li in range(len(arch.layers) - 1, -1, -1):
            # [h, 1]^T delta: the W^T gradient and, in its last row, b's
            bwd.append(mm(self.insT[li], deltas[li], resA[li]))
            if li > 0:
                backs, dtanh = self.backs[li], self.dtanh[li]
                bwd += [mm(deltas[li], self.W[li], backs),
                        (np.square, (hs[li], dtanh)),
                        (np.subtract, (_ONE, dtanh, dtanh)),   # tanh' = 1 - h^2
                        (np.multiply, (backs, dtanh, deltas[li - 1]))]
        return bwd

    @cached_property
    def rop(self) -> list:
        arch, mm = self.arch, self.mm
        if arch.head == HEAD_QUADRATIC:
            return self._quadratic(self.dir)
        hs, ins, insT, deltas, dtanh = self.hs, self.ins, self.insT, self.deltas, self.dtanh
        tmp, rhs, rdeltas, probs, col = self.tmp, self.rhs, self.rdeltas, self.probs, self.col
        VA, VWt = _layer_views(self.dir, arch)
        VW = _transposed(VWt)
        resA, resWt = self._res_views
        rhsT = _transposed(rhs)
        n = len(arch.layers)
        rop = []
        # R-forward: rhs[li] = R(h) entering layer li; the input x has none.
        # [h, 1] V carries Vb
        for li in range(n):
            rz = rhs[li + 1]
            rop.append(mm(ins[li], VA[li], rz))
            if li > 0:
                rop += [mm(rhs[li], self.Wt[li], tmp[li]), (np.add, (rz, tmp[li], rz))]
            if li + 1 < n:
                rop.append((np.multiply, (rz, dtanh[li + 1], rz)))
        # R(z) becomes R(output delta) in place
        if arch.head == HEAD_MSE:
            rop.append((np.divide, (rz, self._count, rz)))
        else:   # R(softmax) = p * (Rz - <p, Rz>)
            rop += [(np.multiply, (probs, rz, tmp[-1])),
                    mm(tmp[-1], self.ones, col),
                    (np.subtract, (rz, col, rz)),
                    (np.multiply, (rz, probs, rz)),
                    (np.divide, (rz, self._count, rz))]
        # R-backward over the taped deltas: [h, 1]^T R(delta), plus R(h)^T
        # delta into the W^T rows
        for li in range(n - 1, -1, -1):
            rop.append(mm(insT[li], rdeltas[li], resA[li]))
            if li > 0:
                rd, r = rdeltas[li - 1], tmp[li - 1]
                rop += [mm(rhsT[li], deltas[li], self.wtmp[li]),
                        (np.add, (resWt[li], self.wtmp[li], resWt[li])),
                        mm(rdeltas[li], self.W[li], rd),
                        mm(deltas[li], VW[li], r),
                        (np.add, (rd, r, rd)),
                        (np.multiply, (rd, dtanh[li], rd)),
                        # R(tanh') = -2 h R(h)
                        (np.multiply, (_TWO, hs[li], r)),
                        (np.multiply, (r, rhs[li], r)),
                        (np.multiply, (r, self.backs[li], r)),
                        (np.subtract, (rd, r, rd))]
        return rop

    @classmethod
    def fresh(cls, arch: Arch, x: np.ndarray, alpha: float | None = None) -> Tape:
        """A tape for the batch input x (..., m, input_dim)."""
        return cls(arch, x.shape[:-2], x.shape[-2], alpha=alpha)

    def rows(self, lead: tuple) -> Tape:
        """A view of this (rows, ...) tape's first lead[0] rows, or of row 0
        when lead is ()."""
        return Tape(self.arch, lead, self.m, within=self, alpha=self.alpha)


def finite(a: np.ndarray, zeros: np.ndarray) -> bool:
    """Whether every entry of a is finite, in one BLAS call: a's dot product
    with `zeros`, as many as a has entries, is NaN exactly when an entry is
    ±inf or NaN. Inside quiet() only; elsewhere numpy warns on the NaN."""
    return not math.isnan(np.vdot(a, zeros))


def _forward(values: np.ndarray, x: np.ndarray, tape: Tape) -> np.ndarray:
    """Runs the forward pass at values on the batch input x into the tape:
    its point, input and the activations entering each layer; returns the
    final pre-activation z (..., m, output_dim), which is scratch."""
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


def head_losses(arch: Arch, values: np.ndarray, z: np.ndarray | None, t) -> list[float]:
    """Mean batch loss of each row of values (flattened leading axes), from
    the network output z at values and the targets t; the quadratic head
    reads values alone."""
    if arch.head == HEAD_QUADRATIC:
        return [0.5 * float(r @ r) for r in values.reshape(-1, values.shape[-1])]
    lead = z.shape[:-2]
    if arch.head == HEAD_MSE:
        return _per_row_mean((z - t) ** 2, lead)
    zs = z - z.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(zs).sum(axis=-1))
    picked = np.take_along_axis(zs, t[..., None], axis=-1)[..., 0]
    return _per_row_mean(logsumexp - picked, lead)


def losses(values: np.ndarray, arch: Arch, x, t) -> list[float]:
    """Mean batch loss of each row of values (flattened leading axes)."""
    if arch.head == HEAD_QUADRATIC:
        return head_losses(arch, values, None, t)
    return head_losses(arch, values, _finite_forward(values, x, Tape.fresh(arch, x)), t)


def taped_grads(values: np.ndarray, arch: Arch, x, t,
                alpha: float | None = None) -> tuple[np.ndarray, Tape]:
    """Gradient of each row's mean batch loss, shape (..., d), and its fresh
    tape; with alpha (an inner step's support tape), the gradient and the
    tape's HVPs come out times alpha. The gradient is a new array."""
    if arch.head == HEAD_QUADRATIC:
        tape = Tape(arch, values.shape[:-1], alpha=alpha)
        np.copyto(tape.point, values)
    else:
        tape = Tape.fresh(arch, x, alpha)
        _finite_forward(values, x, tape)
        np.copyto(tape.t, t)
    for f, a in tape.onehot + tape.backward:
        f(*a)
    return tape.res.copy(), tape


def hvps(tape: Tape, v: np.ndarray) -> np.ndarray:
    """Exact Hessian-vector product of each row (Pearlmutter's R-operator):
    the directional derivative along v (..., d) of the taped forward and
    backward passes, computed from the tape without a new gradient call. v
    is copied into the tape's direction; the product is a new array, and
    the tape's scratch is overwritten."""
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
    """Network output (logits for xent, raw values for mse), unchecked."""
    x = check_inputs(p.arch, x)
    if p.arch.head == HEAD_QUADRATIC:
        raise ParameterError(f"head {HEAD_QUADRATIC!r} has no network output to predict")
    return _forward(p.values, x, Tape.fresh(p.arch, x))


def hvp(p: ParamVector, batch, v: ParamVector) -> ParamVector:
    """Exact Hessian-vector product of the mean batch loss at p."""
    x, t = check_batch(p.arch, batch)
    with quiet():
        return p.with_values(hvps(taped_grads(p.values, p.arch, x, t)[1], v.values))

