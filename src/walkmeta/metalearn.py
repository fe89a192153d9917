"""Bi-level meta-learning: inner adaptation loop and meta-gradients.

The meta-gradient of the adapted query loss is the product of
(I - alpha * Hessian) factors along the inner trajectory applied to the
query gradient. Each inner step's gradient call leaves a tape (the
activations and backward products of its forward and backward passes), and
the query gradient is pulled back through the trajectory right-to-left as K
exact Hessian-vector products, one R-operator pass over each tape
(Pearlmutter 1994). No Hessian is materialized, and the pull-back makes no
new forward pass.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from . import model
from .errors import NumericalError, ParameterError
from .model import ParamVector
from .optimizer import HyperParams
from .tasks import TaskInstance


class Workspace:
    """The tapes of a meta-gradient for one arch, support size, query size,
    K and step size alpha, with `rows` leading rows: K support tapes, which
    read one support input, and one query tape. Their scratch is used by
    one pass at a time, so all share the scratch of the tape over the most
    examples. A block of n <= rows clients uses the cut of the first n
    rows, and a lone (d,) vector the cut () of row 0; on a cut's first use
    `programs` makes its tapes (views of the full ones) and binds its
    `Programs`, the one way a workspace is run, into whose rows `load`
    copies each client's own batches. The owner keeps it for as long as
    its batches keep their sizes."""

    def __init__(self, arch: model.Arch, m_support: int, m_query: int, K: int,
                 alpha: float, rows: int):
        sizes = [m_support] * K + [m_query]
        big = sizes.index(max(sizes))
        owner = model.Tape(arch, (rows,), sizes[big])
        self._tapes = []
        for i, m in enumerate(sizes):
            first = self._tapes[0] if 0 < i < K else None
            self._tapes.append(owner if i == big else
                               model.Tape(arch, (rows,), m, share=owner, inputs=first))
        self._lead, self._alpha = (rows,), model.const(alpha)
        self._programs = {}

    def programs(self, lead: tuple) -> Programs:
        """The programs of the cut for leading axes `lead`."""
        programs = self._programs.get(lead)
        if programs is None:
            tapes = (self._tapes if lead == self._lead else
                     [t.rows(lead) for t in self._tapes])
            programs = self._programs[lead] = Programs(tapes[:-1], tapes[-1], self._alpha)
        return programs


class Programs:
    """The inner steps, query pass and pull-back of one workspace cut, bound
    once as flat op lists over its tapes: `adapt` runs each support tape's
    forward and backward passes and writes u_{k+1} = u_k - alpha * grad
    straight into the next tape's point, then runs the forward pass at u_K
    into the query tape, whose output z (or point, for the quadratic head)
    then holds the adapted query loss; `exact` runs the query tape's loss
    head and backward pass, then pulls the query gradient back through each
    support tape's HVP pass, last to first, in the query tape's `dir`;
    `step` is both. Their ops, operands and order are those of the per-pass
    reference (`trajectory`, `exact_from_trajectory`), so the bits are too.
    `load` is the one way clients reach the tapes: one per row of the cut,
    each copied into its row through views bound here, then the label masks.

    The checks of the reference (each forward output, each inner state and
    the meta-gradient) write one slot each of `flags` with one BLAS
    product, as `model.finite` does; one sum after a run reads them, and a
    failure raises the message of the first failing slot, the one the
    reference would have raised. Ops that run on past a non-finite value
    stay inside model.quiet()."""

    def __init__(self, support: list[model.Tape], query: model.Tape, alpha: np.ndarray):
        self.support, self.query = support, query
        quadratic = query.arch.head == model.HEAD_QUADRATIC
        lead = query.point.shape[:-1]
        # per row: views of its support x, t and query x, t; none for the quadratic head
        self._rows = [()] * math.prod(lead) if quadratic else list(zip(*(
            a.reshape((-1,) + a.shape[len(lead):])
            for a in (support[0].x, support[0].t, query.x, query.t))))
        flags, messages = np.empty(2 * len(support) + 2), []

        def check(ops, a, zeros, message):
            slot = flags[len(messages):len(messages) + 1].reshape(1, 1)
            ops.append((a.reshape(1, -1).dot, (zeros[:, None], slot)))
            messages.append(message)

        def forward(ops, tape):
            ops += tape.forward
            if not quadratic:   # the quadratic head has no network output
                check(ops, tape.z, tape.zero_z, "non-finite forward values")

        adapt = []
        for k, (tape, nxt) in enumerate(zip(support, support[1:] + [query])):
            forward(adapt, tape)
            adapt += tape.backward + [(np.multiply, (tape.res, alpha, tape.res)),
                                      (np.subtract, (tape.point, tape.res, nxt.point))]
            check(adapt, nxt.point, tape.zero_point, f"non-finite inner state at step {k + 1}")
        forward(adapt, query)
        split = len(messages)
        exact = query.backward + [(np.copyto, (query.dir, query.res))]
        for tape in reversed(support):
            exact += tape.rop + [(np.multiply, (tape.res, alpha, tape.res)),
                                 (np.subtract, (tape.dir, tape.res, tape.dir))]
        check(exact, query.dir, query.zero_point, "non-finite meta-gradient")
        end = len(messages)
        self.adapt = _Program(adapt, flags[:split], messages[:split])
        self.exact = _Program(exact, flags[split:end], messages[split:])
        self.step = _Program(adapt + exact, flags[:end], messages)

    def load(self, w: np.ndarray, clients):
        """Copies w into the first support tape's point (K >= 1), and client
        i's checked (support, query) batches into row i of the support and
        query inputs, after checking the client count and every shape."""
        if len(clients) != len(self._rows):
            raise ParameterError(f"{len(clients)} clients do not match the workspace "
                                 f"cut's {len(self._rows)} rows")
        pairs = [(self.support[0].point, w)]
        for bufs, (support, query, *_) in zip(self._rows, clients):
            pairs += zip(bufs, (*support, *query))
        for buf, a in pairs:
            if a.shape != buf.shape:
                raise ParameterError(f"shape {a.shape} does not match the workspace's "
                                     f"{buf.shape}")
        for buf, a in pairs:
            np.copyto(buf, a)
        for f, a in self.support[0].onehot + self.query.onehot:
            f(*a)


class _Program:
    """An op list and the check slots it writes, with their messages."""

    def __init__(self, ops: list, flags: np.ndarray, messages: list[str]):
        self.ops, self.flags, self.messages = ops, flags, messages

    def __call__(self):
        for f, a in self.ops:
            f(*a)
        if math.isnan(self.flags.sum()):
            raise NumericalError(self.messages[int(np.isnan(self.flags).argmax())])


def trajectory(w: np.ndarray, arch: model.Arch, support, alpha: float,
               K: int) -> tuple[list[np.ndarray], list[model.Tape]]:
    """u_0 .. u_K as raw arrays: K full-batch gradient steps on the checked
    support batch, starting from w (..., d), one row per client; and the
    gradient tapes at u_0 .. u_{K-1}, fresh. The states after u_0 are new
    arrays. alpha and K are the caller's to check."""
    states, tapes = [w], []
    for k in range(K):
        u, tape = model.taped_grads(states[-1], arch, *support)
        tapes.append(tape)
        np.multiply(u, alpha, u)
        np.subtract(states[-1], u, u)
        if not model.finite(u, tape.zero_point):
            raise NumericalError(f"non-finite inner state at step {k + 1}")
        states.append(u)
    return states, tapes


def exact_from_trajectory(states: list[np.ndarray], tapes: list, arch: model.Arch,
                          query, alpha: float) -> np.ndarray:
    """Exact meta-gradient rows: the query gradient at u_K pulled back
    through the (I - alpha * Hessian) factors of the trajectory, one exact
    HVP over each of its tapes. The result is a new array."""
    g, qtape = model.taped_grads(states[-1], arch, *query)
    for tape in reversed(tapes):
        hv = model.hvps(tape, g)
        np.multiply(hv, alpha, hv)
        np.subtract(g, hv, g)
    if not model.finite(g, qtape.zero_point):
        raise NumericalError("non-finite meta-gradient")
    return g


@contextmanager
def _adapting(w: ParamVector, support, alpha: float, K: int):
    """Checks alpha, K and the support batch and yields `trajectory` from w,
    (states, tapes); the array core stays quiet until the block ends."""
    HyperParams(alpha=alpha, K=K)
    support = model.check_batch(w.arch, support)
    with model.quiet():
        yield trajectory(w.values, w.arch, support, alpha, K)


def inner_loop(w: ParamVector, support, alpha: float, K: int) -> list[ParamVector]:
    """u_0 .. u_K: K full-batch gradient steps on the support set from w."""
    with _adapting(w, support, alpha, K) as (states, _):
        return [w.with_values(w.values.copy())] + [w.with_values(u) for u in states[1:]]


def meta_gradient_exact(w: ParamVector, task: TaskInstance, alpha: float,
                        K: int) -> ParamVector:
    """Exact derivative of the adapted query loss with respect to w."""
    query = model.check_batch(w.arch, task.query)
    with _adapting(w, task.support, alpha, K) as (states, tapes):
        return w.with_values(exact_from_trajectory(states, tapes, w.arch, query, alpha))


def meta_loss(w: ParamVector, task: TaskInstance, alpha: float, K: int) -> float:
    """Query loss after inner adaptation on the support set."""
    query = model.check_batch(w.arch, task.query)
    with _adapting(w, task.support, alpha, K) as (states, _):
        return model.losses(states[-1], w.arch, *query)[0]


def adapt_unseen(w_final: ParamVector, support, alpha: float, K: int) -> ParamVector:
    """Local adaptation for a client that never took part in meta-training."""
    with _adapting(w_final, support, alpha, K) as (states, _):
        return w_final.with_values(states[-1])
