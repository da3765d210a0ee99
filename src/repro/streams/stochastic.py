"""Value processes: what the join attribute of each stream looks like.

The central one is :class:`LinearDriftProcess`, the paper's synthetic
workload model (Section 6.2):

    ``X_i(t) = (D / eta) * (t + tau_i) + kappa_i * N(0, 1)  mod D``

a linearly increasing value with wrap-around period ``eta``, per-stream lag
``tau_i`` and a Gaussian deviation ``kappa_i``.  Small ``kappa`` makes the
streams near-identical up to a lag (strong time correlations); large
``kappa`` makes them essentially random (no time correlations).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np


class ValueProcess(ABC):
    """Generates the join-attribute value for a tuple arriving at time t."""

    @abstractmethod
    def sample(self, timestamp: float) -> Any:
        """Return the payload for a tuple with the given timestamp."""


class LinearDriftProcess(ValueProcess):
    """The paper's stochastic process (Section 6.2).

    Args:
        domain: ``D``, the value domain is ``[0, D)``.  Paper default 1000.
        period: ``eta``, the wrap-around period in seconds.  Paper default 50.
        lag: ``tau_i``, the per-stream time lag in seconds.  ``0`` for
            aligned streams; the paper's nonaligned 3-way setup uses
            ``(0, 5, 15)``.
        deviation: ``kappa_i``, the standard deviation of the Gaussian
            component.  ``0`` means the streams are deterministic functions
            of time (maximal time correlation); the paper sweeps this up to
            100 to destroy the correlations.
        rng: numpy random generator (or seed) for the Gaussian component.
    """

    def __init__(
        self,
        domain: float = 1000.0,
        period: float = 50.0,
        lag: float = 0.0,
        deviation: float = 0.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if domain <= 0:
            raise ValueError("domain must be positive")
        if period <= 0:
            raise ValueError("period must be positive")
        if deviation < 0:
            raise ValueError("deviation must be non-negative")
        self.domain = float(domain)
        self.period = float(period)
        self.lag = float(lag)
        self.deviation = float(deviation)
        self._rng = np.random.default_rng(rng)

    def mean_value(self, timestamp: float) -> float:
        """The deterministic component ``(D/eta)*(t+tau) mod D``."""
        drift = (self.domain / self.period) * (timestamp + self.lag)
        return drift % self.domain

    def sample(self, timestamp: float) -> float:
        noise = self.deviation * self._rng.standard_normal()
        return (self.mean_value(timestamp) + noise) % self.domain


class UniformProcess(ValueProcess):
    """Values drawn i.i.d. uniform over ``[low, high)`` — a stream with no
    time correlation to anything, useful as a control in tests."""

    def __init__(
        self,
        low: float = 0.0,
        high: float = 1000.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if high <= low:
            raise ValueError("high must exceed low")
        self.low = float(low)
        self.high = float(high)
        self._rng = np.random.default_rng(rng)

    def sample(self, timestamp: float) -> float:
        return float(self._rng.uniform(self.low, self.high))


class ConstantProcess(ValueProcess):
    """Always the same value — handy for deterministic unit tests."""

    def __init__(self, value: Any = 0.0) -> None:
        self.value = value

    def sample(self, timestamp: float) -> Any:
        return self.value


class ZipfKeyProcess(ValueProcess):
    """Integer-valued keys drawn i.i.d. from a zipf distribution.

    ``P(k) ∝ 1 / (k + 1)^alpha`` over ``{0, .., n - 1}``: a handful of
    hot keys carry most of the traffic while a long tail stays rare —
    the skewed-key regime partition indexes are built for, and the one
    that overloads the shards owning the hot keys.  Sampling inverts a precomputed CDF, so the process
    is deterministic given its seed and costs one uniform draw plus a
    binary search per tuple.  Values are returned as floats so the
    scalar window storage and the equi predicate apply unchanged.
    """

    def __init__(
        self,
        n_keys: int,
        alpha: float = 1.1,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if n_keys <= 0:
            raise ValueError("n_keys must be positive")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.n_keys = int(n_keys)
        self.alpha = float(alpha)
        weights = np.arange(1, self.n_keys + 1, dtype=np.float64) ** -alpha
        self._cdf = np.cumsum(weights / weights.sum())
        self._rng = np.random.default_rng(rng)

    def sample(self, timestamp: float) -> float:
        return float(
            np.searchsorted(self._cdf, self._rng.random(), side="right")
        )


class DiscreteUniformProcess(ValueProcess):
    """Integer-valued keys drawn i.i.d. uniform from ``{0, .., n - 1}``.

    The natural workload for partitioned (sharded) equi-joins: tuples with
    equal keys always hash to the same shard, so a hash-partitioned join
    over these streams loses no results.  Values are returned as floats so
    the scalar window storage and the epsilon/equi predicates apply
    unchanged.
    """

    def __init__(
        self,
        n_values: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if n_values <= 0:
            raise ValueError("n_values must be positive")
        self.n_values = int(n_values)
        self._rng = np.random.default_rng(rng)

    def sample(self, timestamp: float) -> float:
        return float(self._rng.integers(self.n_values))
