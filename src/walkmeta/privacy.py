"""Gaussian perturbation calibration and network-DP accounting.

The per-iteration perturbation has elementwise variance
8 * m_meta^2 * ln(1.25/delta) / epsilon^2, where m_meta is the enforced
clipping bound on the meta-gradient. The accountant converts the
per-message (epsilon, delta) into the network-level guarantee
(epsilon_prime, delta + delta_hat) accumulated over T iterations among
n clients; it reports, it never gates execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class PrivacyParams:
    epsilon: float = 0.5
    delta: float = 0.3
    m_meta: float = 10.0
    enabled: bool = False

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ParameterError(f"epsilon: must be in (0, 1), got {self.epsilon}")
        if not (0.0 < self.delta < 0.5):
            raise ParameterError(f"delta: must be in (0, 1/2), got {self.delta}")
        if not (0.0 < self.m_meta < math.inf):
            raise ParameterError(f"m_meta: must be finite and positive, got {self.m_meta}")


@dataclass(frozen=True)
class DpReport:
    epsilon_prime: float
    delta_total: float
    n_u: float
    q: float
    t: int
    n: int
    delta_hat: float

    def as_dict(self) -> dict:
        """The report's fields as `dp.<field>` CSV header keys, in order."""
        return {f"dp.{f.name}": getattr(self, f.name) for f in fields(self)}


def noise_sigma(pp: PrivacyParams) -> float:
    """Elementwise perturbation variance sigma^2."""
    return 8.0 * pp.m_meta ** 2 * math.log(1.25 / pp.delta) / pp.epsilon ** 2


def sample_perturbation(sigma2: float, dim: int,
                        rng: np.random.Generator) -> np.ndarray:
    """I.i.d. zero-mean Gaussian vector with elementwise variance sigma2."""
    if sigma2 < 0:
        raise ParameterError(f"sigma2 must be >= 0, got {sigma2}")
    if sigma2 == 0.0:
        return np.zeros(dim)
    return rng.normal(0.0, math.sqrt(sigma2), size=dim)


def account_network_dp(epsilon: float, delta: float, delta_hat: float,
                       t: int, n: int) -> DpReport:
    """Network-level (epsilon_prime, delta + delta_hat) guarantee after t
    iterations of the walk among n clients."""
    PrivacyParams(epsilon, delta)  # checks epsilon and delta
    if not (0.0 < delta_hat < 1.0):
        raise ParameterError(f"delta_hat must be in (0, 1), got {delta_hat}")
    if t < 1:
        raise ParameterError(f"t must be >= 1, got {t}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    n_u = t / n + math.sqrt((3.0 / n) * t * math.log(1.0 / delta_hat))
    q = max(2.0 * n_u, 2.0 * math.log(1.0 / delta))
    epsilon_prime = (math.sqrt(2.0 * q * math.log(1.0 / delta)) * epsilon
                     / math.sqrt(math.log(1.25 / delta)))
    return DpReport(epsilon_prime=epsilon_prime, delta_total=delta + delta_hat,
                    n_u=n_u, q=q, t=t, n=n, delta_hat=delta_hat)
