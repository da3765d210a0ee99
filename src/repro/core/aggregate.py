"""Operator throttling beyond joins: a windowed aggregate with subset-
based load shedding.

Section 3 presents operator throttling as a framework for *general*
stream operators, citing subset-based shedding for aggregation (Tatbul &
Zdonik, VLDB'06) as another instance.  This module demonstrates the
claim: a sliding-window aggregate whose in-operator shedding technique is
**input subsampling** — at throttle fraction ``z`` it admits each tuple
into its window with probability ``z`` and compensates count/sum style
aggregates by ``1/z``, trading CPU for approximation error instead of a
subset result.

The operator reuses the same building blocks as GrubJoin: basic-window
partitioning for batch expiration and the :class:`ThrottleController`
feedback loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.engine.buffers import BufferStats
from repro.engine.operator import ProcessReceipt, StreamOperator
from repro.streams.tuples import StreamTuple

from .basic_windows import PartitionedWindow
from .throttle import ThrottleController

#: supported aggregate functions and whether subsampling requires 1/z
#: compensation (True for extensive quantities, False for intensive ones)
_AGGREGATES: dict[str, tuple[Callable[[np.ndarray], float], bool]] = {
    "count": (lambda values: float(len(values)), True),
    "sum": (lambda values: float(values.sum()), True),
    "mean": (lambda values: float(values.mean()) if len(values) else 0.0,
             False),
    "max": (lambda values: float(values.max()) if len(values) else 0.0,
            False),
    "min": (lambda values: float(values.min()) if len(values) else 0.0,
            False),
}


def aggregate_errors(
    function: str, window_size: float, slide: float
) -> dict[str, str]:
    """Why :class:`ThrottledAggregateOperator` refuses these arguments,
    keyed by rule code: ``P108`` an unknown function, ``P104`` a
    non-positive window or slide, or a slide past the window.

    The constructor raises on any of them, so the plan analyzer
    (:mod:`repro.lint.plan`) never sees such an aggregate.
    """
    errors = {}
    if function not in _AGGREGATES:
        errors["P108"] = (
            f"unknown aggregate function {function!r}; choose from "
            f"{sorted(_AGGREGATES)}"
        )
    if slide <= 0 or window_size <= 0:
        errors["P104"] = (
            f"aggregate window/slide must be positive "
            f"(window={window_size:g}, slide={slide:g})"
        )
    elif slide > window_size:
        errors["P104"] = (
            f"aggregate slide={slide:g}s exceeds its window="
            f"{window_size:g}s; every emission would drop tuples unseen"
        )
    return errors


@dataclass(slots=True)
class AggregateResult:
    """One emitted window aggregate."""

    value: float
    window_end: float
    sampled_fraction: float
    timestamp: float = 0.0


class ThrottledAggregateOperator(StreamOperator):
    """Sliding-window aggregate with subset-based CPU load shedding.

    Args:
        function: one of ``count``, ``sum``, ``mean``, ``max``, ``min``.
        window_size: aggregation window in seconds.
        slide: seconds between emitted aggregates.
        basic_window_size: expiration batch size; defaults to ``slide``.
        gamma / z_min: throttle controller parameters.
        tuple_cost: work units charged per admitted tuple (insertion and
            incremental maintenance); skipped tuples cost a fixed 10 % of
            this (the shedder still has to look at them).
        rng: generator or seed for the admission sampler.
    """

    num_streams = 1
    #: emits AggregateResult records; a downstream edge needs a transform
    output_kind = "aggregate"

    def __init__(
        self,
        function: str = "mean",
        window_size: float = 10.0,
        slide: float = 1.0,
        basic_window_size: float | None = None,
        gamma: float = 1.2,
        z_min: float = 0.01,
        tuple_cost: float = 10.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        errors = aggregate_errors(function, window_size, slide)
        if errors:
            raise ValueError("; ".join(errors.values()))
        if tuple_cost <= 0:
            raise ValueError("tuple_cost must be positive")
        self.function = function
        self._fn, self._extensive = _AGGREGATES[function]
        self.window_size = float(window_size)
        self.slide = float(slide)
        self.window = PartitionedWindow(
            window_size,
            basic_window_size if basic_window_size is not None else slide,
        )
        self.throttle = ThrottleController(gamma=gamma, z_min=z_min)
        self.tuple_cost = float(tuple_cost)
        self._rng = np.random.default_rng(rng)
        self._next_emit = self.slide
        self._admitted = 0
        self._seen = 0

    @property
    def throttle_fraction(self) -> float:
        """Current throttle fraction ``z``."""
        return self.throttle.z

    def process(self, tup: StreamTuple, now: float) -> ProcessReceipt:
        """Admit the tuple with probability ``z``; emit due aggregates."""
        self._seen += 1
        z = self.throttle.z
        if z >= 1.0 or self._rng.random() < z:
            self.window.insert(tup, now)
            self._admitted += 1
            work = self.tuple_cost
        else:
            work = 0.1 * self.tuple_cost
        outputs = []
        while now >= self._next_emit:
            outputs.append(self._emit(self._next_emit, now))
            self._next_emit += self.slide
        return ProcessReceipt(comparisons=int(round(work)), outputs=outputs)

    def _emit(self, window_end: float, now: float) -> AggregateResult:
        values = np.array(
            [t.value for t in self.window.iter_unexpired(now)], dtype=float
        )
        sampled = self._admitted / self._seen if self._seen else 1.0
        raw = self._fn(values)
        if self._extensive and sampled > 0:
            raw /= sampled  # compensate the subsample
        return AggregateResult(
            value=raw, window_end=window_end, sampled_fraction=sampled
        )

    def on_adapt(
        self, now: float, stats: list[BufferStats], interval: float
    ) -> None:
        """Standard operator-throttling feedback step."""
        self.throttle.update_from_stats(stats)

    def describe(self) -> str:
        return f"ThrottledAggregate({self.function})"
