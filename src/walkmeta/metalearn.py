"""Bi-level meta-learning: inner adaptation loop and meta-gradients.

The meta-gradient of the adapted query loss is the product of
(I - alpha * Hessian) factors along the inner trajectory applied to the
query gradient. It is accumulated right-to-left as K Hessian-vector
products, so no Hessian is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .errors import NumericalError, ParameterError
from .model import ParamVector
from .tasks import TaskInstance


@dataclass(frozen=True)
class InnerTrajectory:
    states: list[ParamVector]  # u_0 .. u_K
    alpha: float
    K: int


def trajectory(w: np.ndarray, arch: model.Arch, support, alpha: float,
               K: int) -> list[np.ndarray]:
    """u_0 .. u_K as raw arrays: K full-batch gradient steps on the checked
    support batch, starting from w (..., d), one row per client."""
    if K < 1:
        raise ParameterError(f"K must be >= 1, got {K}")
    if alpha < 0:
        raise ParameterError(f"alpha must be >= 0, got {alpha}")
    states = [w]
    for k in range(K):
        u = model.grads(states[-1], arch, *support)
        u *= alpha
        np.subtract(states[-1], u, out=u)
        if not np.isfinite(u).all():
            raise NumericalError(f"non-finite inner state at step {k + 1}")
        states.append(u)
    return states


def exact_from_trajectory(states: list[np.ndarray], arch: model.Arch, support,
                          query, alpha: float) -> np.ndarray:
    """Exact meta-gradient rows: the query gradient at u_K pulled back
    through the (I - alpha * Hessian) factors of the trajectory."""
    g = model.grads(states[-1], arch, *query)
    for u in reversed(states[:-1]):
        g -= alpha * model.hvps(u, arch, *support, g)
    return g


def inner_loop(w: ParamVector, support, alpha: float, K: int) -> InnerTrajectory:
    """K full-batch gradient steps on the support set, starting from w."""
    support = model.check_batch(w.arch, support)
    with model.quiet():
        states = trajectory(w.values, w.arch, support, alpha, K)
    return InnerTrajectory(states=[w.copy()] + [w.with_values(u) for u in states[1:]],
                           alpha=alpha, K=K)


def meta_gradient_exact(w: ParamVector, task: TaskInstance, alpha: float,
                        K: int) -> ParamVector:
    """Exact derivative of the adapted query loss with respect to w."""
    support = model.check_batch(w.arch, task.support)
    query = model.check_batch(w.arch, task.query)
    with model.quiet():
        states = trajectory(w.values, w.arch, support, alpha, K)
        return w.with_values(exact_from_trajectory(states, w.arch, support, query,
                                                   alpha))


def meta_gradient_fo(w: ParamVector, task: TaskInstance, alpha: float,
                     K: int) -> ParamVector:
    """First-order approximation: query gradient at the adapted parameters."""
    support = model.check_batch(w.arch, task.support)
    query = model.check_batch(w.arch, task.query)
    with model.quiet():
        states = trajectory(w.values, w.arch, support, alpha, K)
        return w.with_values(model.grads(states[-1], w.arch, *query))


def meta_loss(w: ParamVector, task: TaskInstance, alpha: float, K: int) -> float:
    """Query loss after inner adaptation on the support set."""
    support = model.check_batch(w.arch, task.support)
    query = model.check_batch(w.arch, task.query)
    with model.quiet():
        states = trajectory(w.values, w.arch, support, alpha, K)
        return model.losses(states[-1], w.arch, *query)[0]


def adapt_unseen(w_final: ParamVector, support, alpha: float, K: int) -> ParamVector:
    """Local adaptation for a client that never took part in meta-training."""
    return inner_loop(w_final, support, alpha, K).states[K]
