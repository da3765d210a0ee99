"""Arrival processes: when tuples show up on each stream.

The paper's experiments use fixed per-stream rates (``lambda_i`` in
tuples/sec) plus one scenario with a stepped rate profile (Section 6.2.4:
100 -> 150 -> 50 tuples/sec every 8 seconds).  We provide deterministic
constant-rate arrivals, Poisson arrivals and piecewise profiles.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from collections.abc import Iterator

import numpy as np


class ArrivalProcess(ABC):
    """Generates an increasing sequence of arrival timestamps."""

    @abstractmethod
    def iter_arrivals(self, until: float) -> Iterator[float]:
        """Yield arrival times in ``[0, until)`` in increasing order."""

    @abstractmethod
    def rate_at(self, timestamp: float) -> float:
        """Instantaneous expected rate (tuples/sec) at ``timestamp``."""


class ConstantRate(ArrivalProcess):
    """Deterministic arrivals: one tuple every ``1/rate`` seconds.

    Args:
        rate: tuples per second; must be positive.
        phase: offset of the first arrival in seconds, useful to de-phase
            multiple streams so their arrivals interleave.
    """

    def __init__(self, rate: float, phase: float = 0.0) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if phase < 0:
            raise ValueError("phase must be non-negative")
        self.rate = float(rate)
        self.phase = float(phase)

    def iter_arrivals(self, until: float) -> Iterator[float]:
        step = 1.0 / self.rate
        k = 0
        while True:
            t = self.phase + k * step  # index-based: no float accumulation
            if t >= until:
                return
            yield t
            k += 1

    def rate_at(self, timestamp: float) -> float:
        return self.rate


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals with the given mean rate."""

    def __init__(
        self, rate: float, rng: np.random.Generator | int | None = None
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self._rng = np.random.default_rng(rng)

    def iter_arrivals(self, until: float) -> Iterator[float]:
        t = 0.0
        while True:
            t += self._rng.exponential(1.0 / self.rate)
            if t >= until:
                return
            yield t

    def rate_at(self, timestamp: float) -> float:
        return self.rate


class PiecewiseRate(ArrivalProcess):
    """A step-function rate profile.

    Args:
        breakpoints: ``[(start_time, rate), ...]`` sorted by start time; the
            first start time must be ``0``.  The rate of the last segment
            holds forever.
        poisson: if True, arrivals within each segment are Poisson with the
            segment rate; otherwise they are evenly spaced.
        rng: random generator for the Poisson variant.

    Example (the Fig. 10 scenario)::

        PiecewiseRate([(0, 100), (8, 150), (16, 50)])
    """

    def __init__(
        self,
        breakpoints: list[tuple[float, float]],
        poisson: bool = False,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if not breakpoints:
            raise ValueError("breakpoints must be non-empty")
        if breakpoints[0][0] != 0:
            raise ValueError("first breakpoint must start at time 0")
        starts = [s for s, _ in breakpoints]
        if starts != sorted(starts):
            raise ValueError("breakpoints must be sorted by start time")
        if any(r <= 0 for _, r in breakpoints):
            raise ValueError("all rates must be positive")
        self.breakpoints = [(float(s), float(r)) for s, r in breakpoints]
        self.poisson = poisson
        self._rng = np.random.default_rng(rng)

    def rate_at(self, timestamp: float) -> float:
        starts = [s for s, _ in self.breakpoints]
        idx = bisect_right(starts, timestamp) - 1
        idx = max(idx, 0)
        return self.breakpoints[idx][1]

    def iter_arrivals(self, until: float) -> Iterator[float]:
        for seg_start, seg_end, rate in self._segments(until):
            if self.poisson:
                t = seg_start
                while True:
                    t += self._rng.exponential(1.0 / rate)
                    if t >= seg_end:
                        break
                    yield t
            else:
                step = 1.0 / rate
                k = 0
                while True:
                    t = seg_start + k * step
                    if t >= seg_end:
                        break
                    yield t
                    k += 1

    def _segments(self, until: float) -> Iterator[tuple[float, float, float]]:
        """Yield (start, end, rate) segments clipped to [0, until)."""
        for k, (start, rate) in enumerate(self.breakpoints):
            end = (
                self.breakpoints[k + 1][0]
                if k + 1 < len(self.breakpoints)
                else until
            )
            start = min(start, until)
            end = min(end, until)
            if start < end:
                yield start, end, rate
