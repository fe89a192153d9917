"""Adaptive outer update with explicit auxiliary state, plus plain SGD.

The auxiliary state (momentum m, squared-gradient preconditioner v) is a
value owned by whoever performs the update: one copy per client in the
local variant, a single travelling copy in the basic variant. There is no
bias correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError


@dataclass(frozen=True)
class HyperParams:
    eta: float = 0.001     # outer learning rate
    theta: float = 0.0     # first-moment weight
    beta: float = 0.99     # second-moment weight
    lam: float = 1e-8      # denominator offset
    alpha: float = 0.01    # inner learning rate
    K: int = 5             # inner steps

    def __post_init__(self):
        for name in ("eta", "lam", "alpha"):   # theta's and beta's bounds reject NaN
            if not math.isfinite(value := getattr(self, name)):
                raise ParameterError(f"{name}: must be finite, got {value}")
        if self.eta < 0:
            raise ParameterError(f"eta: must be >= 0, got {self.eta}")
        if not (0.0 <= self.theta < 1.0):
            raise ParameterError(f"theta: must be in [0, 1), got {self.theta}")
        if not (0.0 <= self.beta < 1.0):
            raise ParameterError(f"beta: must be in [0, 1), got {self.beta}")
        if self.lam <= 0:
            raise ParameterError(f"lam: must be > 0, got {self.lam}")
        if self.alpha < 0:
            raise ParameterError(f"alpha: must be >= 0, got {self.alpha}")
        if self.K < 1:
            raise ParameterError(f"K: must be >= 1, got {self.K}")


@dataclass(frozen=True)
class AuxState:
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0

    @staticmethod
    def zeros(dim: int) -> "AuxState":
        return AuxState(np.zeros(dim), np.zeros(dim), 0)


def adam_step(state: AuxState, g: np.ndarray, noise: np.ndarray | float,
              h: HyperParams) -> tuple[AuxState, np.ndarray]:
    """One adaptive update. Noise perturbs the numerator only; the
    preconditioner is built from the unperturbed gradient. A scalar 0.0
    stands for no noise."""
    if not np.logical_and.reduce(np.isfinite(g), axis=None):
        raise NumericalError("non-finite gradient passed to adam_step")
    m = h.theta * state.m + (1.0 - h.theta) * g
    v = h.beta * state.v + (1.0 - h.beta) * g * g
    delta = -h.eta * (m + noise) / np.sqrt(v + h.lam)
    return AuxState(m, v, state.step_count + 1), delta


def sgd_step(g: np.ndarray, eta: float) -> np.ndarray:
    return -eta * g


def clip(g: np.ndarray, bound: float) -> np.ndarray:
    """Scale g down to L2 norm `bound` if it exceeds it; direction preserved."""
    if bound <= 0:
        raise ParameterError("clip bound must be positive")
    norm = math.sqrt(g @ g)   # the bits of np.linalg.norm, without its wrapper
    if norm <= bound:
        return g
    return g * (bound / norm)
