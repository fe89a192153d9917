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

from contextlib import contextmanager

import numpy as np

from . import model
from .errors import NumericalError
from .model import ParamVector
from .optimizer import HyperParams
from .tasks import TaskInstance


class Workspace:
    """The tapes of `trajectory` and `exact_from_trajectory` for one arch,
    support size, query size and K, with `rows` leading rows: K support
    tapes and one query tape. Their scratch is used by one pass at a time,
    so all share the scratch of the tape over the most examples. A call with
    n <= rows clients uses the first n rows, and a lone (d,) vector uses row
    0; the tapes of such a cut, with their views and passes, are made on its
    first use. The owner keeps it for as long as its batches keep their
    sizes; a tape from it holds until the next call with this workspace."""

    def __init__(self, arch: model.Arch, m_support: int, m_query: int, K: int,
                 rows: int):
        sizes = [m_support] * K + [m_query]
        big = sizes.index(max(sizes))
        owner = model.Tape(arch, (rows,), sizes[big])
        self._tapes = [owner if i == big else model.Tape(arch, (rows,), m, share=owner)
                       for i, m in enumerate(sizes)]
        self._cuts = {(rows,): (self._tapes[:K], self._tapes[K])}

    def cut(self, lead: tuple) -> tuple[list[model.Tape], model.Tape]:
        """(support tapes, query tape) for leading axes `lead`."""
        cut = self._cuts.get(lead)
        if cut is None:
            *support, query = [t.rows(lead) for t in self._tapes]
            cut = self._cuts[lead] = support, query
        return cut


def trajectory(w: np.ndarray, arch: model.Arch, support, alpha: float, K: int,
               ws: Workspace | None = None) -> tuple[list[np.ndarray], list[model.Tape]]:
    """u_0 .. u_K as raw arrays: K full-batch gradient steps on the checked
    support batch, starting from w (..., d), one row per client; and the
    gradient tapes at u_0 .. u_{K-1}, from `ws` when given. The states are
    new arrays. alpha and K are the caller's to check."""
    given = ws.cut(w.shape[:-1])[0] if ws is not None else [None] * K
    states, tapes = [w], []
    for k in range(K):
        u, tape = model.taped_grads(states[-1], arch, *support, given[k])
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
    HVP over each of its tapes. The query pass writes the query tape of
    `ws` when given; the result is a new array."""
    qtape = ws.cut(states[-1].shape[:-1])[1] if ws is not None else None
    g, qtape = model.taped_grads(states[-1], arch, *query, qtape)
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
