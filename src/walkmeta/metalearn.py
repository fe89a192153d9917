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
    """The tapes of a meta-gradient for one arch, support size, query size
    and K, with `rows` leading rows: K support tapes, which read one support
    input, and one query tape. Their scratch is used by one pass at a time,
    so all share the scratch of the tape over the most examples. A call
    with n <= rows clients uses the first n rows, and a lone (d,) vector
    uses row 0. The tapes of such a cut, with their views, are made on the
    cut's first use, and its `Programs` on their first use with a given
    alpha; they are the one way a workspace is run (`trajectory` and
    `exact_from_trajectory` given one call them). The owner keeps it for as
    long as its batches keep their sizes; a tape from it holds until the
    next call with this workspace. Without a workspace, `trajectory` and
    `exact_from_trajectory` run pass by pass over fresh tapes: the
    reference the programs must equal bit for bit."""

    def __init__(self, arch: model.Arch, m_support: int, m_query: int, K: int,
                 rows: int):
        sizes = [m_support] * K + [m_query]
        big = sizes.index(max(sizes))
        owner = model.Tape(arch, (rows,), sizes[big])
        self._tapes = []
        for i, m in enumerate(sizes):
            first = self._tapes[0] if 0 < i < K else None
            self._tapes.append(owner if i == big else
                               model.Tape(arch, (rows,), m, share=owner, inputs=first))
        self._cuts = {(rows,): (self._tapes[:K], self._tapes[K])}
        self._programs = {}

    def cut(self, lead: tuple) -> tuple[list[model.Tape], model.Tape]:
        """(support tapes, query tape) for leading axes `lead`."""
        cut = self._cuts.get(lead)
        if cut is None:
            *support, query = [t.rows(lead) for t in self._tapes]
            cut = self._cuts[lead] = support, query
        return cut

    def programs(self, lead: tuple, alpha: float) -> Programs:
        """The programs of the cut for leading axes `lead`, with step size alpha."""
        programs = self._programs.get((lead, alpha))
        if programs is None:
            programs = self._programs[lead, alpha] = Programs(*self.cut(lead), alpha)
        return programs


class Programs:
    """The inner steps, query pass and pull-back of one workspace cut, bound
    once as flat op lists over its tapes: `adapt` runs each support tape's
    forward and backward passes and writes u_{k+1} = u_k - alpha * grad
    straight into the next tape's point (u_K into the query tape's); `exact`
    runs the query tape's forward and backward passes, then pulls the query
    gradient back through each support tape's HVP pass, last to first, in
    the query tape's `dir`; `step` is both. Their ops, operands and order
    are those of the per-pass code, so the bits are too.

    The checks of the per-pass code (each forward output, each inner state
    and the meta-gradient) write one slot each of `flags` with one BLAS
    product, as `model.finite` does; one sum after a run reads them, and a
    failure raises the message of the first failing slot, the one the
    per-pass code would have raised. Ops that run on past a non-finite
    value stay inside model.quiet()."""

    def __init__(self, support: list[model.Tape], query: model.Tape, alpha: float):
        self.support, self.query = support, query
        quadratic = query.arch.head == model.HEAD_QUADRATIC
        self._inputs = [] if quadratic else [support[0], query]
        flags, messages = np.empty(2 * len(support) + 2), []

        def check(ops, a, zeros, message):
            slot = flags[len(messages):len(messages) + 1].reshape(1, 1)
            ops.append((np.dot, (a.reshape(1, -1), zeros[:, None], slot)))
            messages.append(message)

        def forward(ops, tape):
            ops += tape.forward
            if not quadratic:   # the quadratic head has no network output
                check(ops, tape.z, tape.zero_z, "non-finite forward values")

        adapt, exact = [], []
        for k, (tape, nxt) in enumerate(zip(support, support[1:] + [query])):
            forward(adapt, tape)
            adapt += tape.backward + [(np.multiply, (tape.res, alpha, tape.res)),
                                      (np.subtract, (tape.point, tape.res, nxt.point))]
            check(adapt, nxt.point, tape.zero_point, f"non-finite inner state at step {k + 1}")
        split = len(messages)
        forward(exact, query)
        exact += query.backward + [(np.copyto, (query.dir, query.res))]
        for tape in reversed(support):
            exact += tape.rop + [(np.multiply, (tape.res, alpha, tape.res)),
                                 (np.subtract, (tape.dir, tape.res, tape.dir))]
        check(exact, query.dir, query.zero_point, "non-finite meta-gradient")
        end = len(messages)
        self.adapt = _Program(adapt, flags[:split], messages[:split])
        self.exact = _Program(exact, flags[split:end], messages[split:])
        self.step = _Program(adapt + exact, flags[:end], messages)

    def load(self, w: np.ndarray, support=None, query=None, point: np.ndarray | None = None):
        """Copies w into `point`, by default the first support tape's (K >= 1),
        and the given checked batches into the support and query inputs,
        after checking every shape."""
        pairs = [(self.support[0].point if point is None else point, w)]
        for tape, batch in zip(self._inputs, [support, query]):
            if batch is not None:
                pairs += zip((tape.x, tape.t), batch)
        for buf, a in pairs:
            if a.shape != buf.shape:
                raise ParameterError(f"shape {a.shape} does not match the workspace's "
                                     f"{buf.shape}")
        for buf, a in pairs:
            np.copyto(buf, a)


class _Program:
    """An op list and the check slots it writes, with their messages."""

    def __init__(self, ops: list, flags: np.ndarray, messages: list[str]):
        self.ops, self.flags, self.messages = ops, flags, messages

    def __call__(self):
        for f, a in self.ops:
            f(*a)
        if math.isnan(self.flags.sum()):
            raise NumericalError(self.messages[int(np.isnan(self.flags).argmax())])


def trajectory(w: np.ndarray, arch: model.Arch, support, alpha: float, K: int,
               ws: Workspace | None = None) -> tuple[list[np.ndarray], list[model.Tape]]:
    """u_0 .. u_K as raw arrays: K full-batch gradient steps on the checked
    support batch, starting from w (..., d), one row per client; and the
    gradient tapes at u_0 .. u_{K-1}, from `ws`'s `adapt` program when
    given. The states are new arrays. alpha and K are the caller's to
    check."""
    if ws is not None:
        programs = ws.programs(w.shape[:-1], alpha)
        programs.load(w, support)
        programs.adapt()
        tapes = programs.support
        return [w] + [t.point.copy() for t in tapes[1:] + [programs.query]], list(tapes)
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
                          query, alpha: float, ws: Workspace | None = None) -> np.ndarray:
    """Exact meta-gradient rows: the query gradient at u_K pulled back
    through the (I - alpha * Hessian) factors of the trajectory, one exact
    HVP over each of its tapes. With `ws` this is its `exact` program, and
    the tapes must be those `trajectory` returned from it. The result is a
    new array."""
    if ws is not None:
        programs = ws.programs(states[-1].shape[:-1], alpha)
        programs.load(states[-1], query=query, point=programs.query.point)
        programs.exact()
        return programs.query.dir.copy()
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
