"""Adaptive two-way windowed join with selective processing (CIKM'05).

The paper's own predecessor (Gedik et al., "Adaptive load shedding for
windowed stream joins", CIKM 2005) introduced selective processing for
**two-way** joins: maintain match statistics per window segment and, when
CPU is short, probe only the most profitable segments.  GrubJoin
generalizes it to m-way joins (where the per-direction join orders create
the combinatorial challenges this paper solves).

This implementation serves as the historical baseline at ``m = 2``:

* windows are partitioned into basic windows exactly as in GrubJoin;
* per (direction, logical window) match statistics are learned from a
  sampled fraction of tuples processed over the *full* window (the
  CIKM'05 analogue of window shredding);
* the throttle fraction comes from the same Section 3 feedback loop;
* segment selection is a greedy density knapsack: globally pick the
  (direction, segment) pairs with the best observed match rate until the
  budget ``z * C(1)`` is spent — no m-way cost model needed because each
  direction has exactly one hop.

It is an :class:`~repro.joins.mjoin.MJoinOperator` with its own probe:
windows, kernel choice, per-hop obs counters and receipt are inherited.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.basic_windows import WindowSlice
from repro.core.throttle import ThrottleController
from repro.engine.buffers import BufferStats
from repro.streams.tuples import JoinResult, StreamTuple

from .mjoin import MJoinOperator
from .pipeline import HopStats, PipelineResult, merge_slices
from .predicates import JoinPredicate


class AdaptiveTwoWayJoin(MJoinOperator):
    """Two-way windowed join with time-correlation-aware shedding.

    Args:
        predicate: the join condition.
        window_sizes: the two window sizes in seconds.
        basic_window_size: segment granularity in seconds.
        sampling: fraction of tuples processed over the full window to
            keep the per-segment statistics unbiased.
        gamma / z_min: throttle controller parameters.
        stat_decay: per-adaptation aging of the per-segment statistics.
        output_cost: work units charged per result tuple.
        rng: generator or seed for the sampling decisions.
    """

    def __init__(
        self,
        predicate: JoinPredicate,
        window_sizes: Sequence[float],
        basic_window_size: float,
        sampling: float = 0.1,
        gamma: float = 1.2,
        z_min: float = 0.01,
        stat_decay: float = 0.9,
        output_cost: float = 2.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if len(window_sizes) != 2:
            raise ValueError("the two-way join takes exactly two windows")
        if not 0 < sampling <= 1:
            raise ValueError("sampling must be in (0, 1]")
        if not 0 < stat_decay <= 1:
            raise ValueError("stat_decay must be in (0, 1]")
        # at m = 2 each direction has exactly one hop: nothing to reorder
        super().__init__(
            predicate, window_sizes, basic_window_size,
            adapt_orders=False, output_cost=output_cost,
        )
        self.segments = [w.n for w in self.windows]
        self.sampling = float(sampling)
        self.stat_decay = float(stat_decay)
        self.throttle = ThrottleController(gamma=gamma, z_min=z_min)
        # per direction i: scans[i][k], matches[i][k] for logical window k
        # of the opposite window
        self._scans = [np.zeros(self.segments[1 - i]) for i in range(2)]
        self._matches = [np.zeros(self.segments[1 - i]) for i in range(2)]
        #: selected logical windows (0-based) per direction
        self.selected: list[np.ndarray] = [
            np.arange(self.segments[1 - i]) for i in range(2)
        ]
        self._rng = np.random.default_rng(rng)
        self.tuples_sampled = 0

    @property
    def throttle_fraction(self) -> float:
        """Current throttle fraction ``z``."""
        return self.throttle.z

    # ------------------------------------------------------------------
    # processing
    # ------------------------------------------------------------------

    def _probe(
        self, tup: StreamTuple, order: Sequence[int], now: float
    ) -> PipelineResult:
        """Probe the opposite window, fully (sampled) or over the
        selected segments."""
        window = self.windows[order[0]]
        if self._rng.random() < self.sampling:
            self.tuples_sampled += 1
            return self._full_probe(tup, window, now)
        slices: list[WindowSlice] = []
        for k in self.selected[tup.stream]:
            slices.extend(
                window.logical_window_slices(
                    int(k) + 1, now, reference=tup.timestamp
                )
            )
        merged = merge_slices(slices)
        return self._kernel(
            tup, order, lambda hop, l: merged, self.predicate
        )

    def _full_probe(self, tup, window, now) -> PipelineResult:
        """Whole-window statistics probe, stride-sampled by the throttle.

        Scanning the entire window for every sampled tuple would blow the
        budget under deep overload, so — like GrubJoin's window shredding
        — the probe covers every logical window but only a ``z`` fraction
        of each, spread evenly via a stride of ``max(1, round(1 / z))``
        that restarts at every physical basic window.  Per-segment match
        *rates* stay unbiased.
        """
        i = tup.stream
        stride = max(1, round(1.0 / max(self.throttle.z, 1e-6)))
        comparisons = 0
        outputs = []
        context = self.predicate.probe_context([tup.value])
        for k in range(window.n):
            for sampled in window.strided(
                window.logical_window_slices(
                    k + 1, now, reference=tup.timestamp
                ),
                stride,
            ):
                self._scans[i][k] += len(sampled)
                comparisons += len(sampled)
                hits = self.predicate.probe_block(context, sampled.values)
                self._matches[i][k] += len(hits)
                for idx in hits:
                    pair = sorted(
                        (tup, sampled.tuple_at(int(idx))),
                        key=lambda t: t.stream,
                    )
                    outputs.append(JoinResult(tuple(pair)))
        # one hop; every hit is one result
        stats = HopStats(scanned=comparisons, matched=len(outputs))
        return PipelineResult(comparisons, outputs, [stats])

    # ------------------------------------------------------------------
    # adaptation
    # ------------------------------------------------------------------

    def on_adapt(
        self, now: float, stats: list[BufferStats], interval: float
    ) -> None:
        """Feedback step plus the density-knapsack segment selection."""
        z = self.throttle.update_from_stats(stats)
        for i in range(2):
            self._scans[i] *= self.stat_decay
            self._matches[i] *= self.stat_decay
        super().on_adapt(now, stats, interval)
        self._select_segments(now, z)

    def _select_segments(self, now: float, z: float) -> None:
        """Pick the best (direction, segment) pairs within the budget.

        Each candidate's cost is the segment's current tuple count and its
        value the observed per-tuple match rate; candidates are taken in
        decreasing value density until ``z`` times the total scan cost of
        the full join is spent.
        """
        costs, values, keys = [], [], []
        for i in range(2):
            window = self.windows[1 - i]
            for k in range(window.n):
                seg_cost = sum(
                    len(s) for s in window.logical_window_slices(k + 1, now)
                )
                scans = self._scans[i][k]
                rate = (
                    self._matches[i][k] / scans if scans > 0 else 0.0
                )
                costs.append(max(seg_cost, 1))
                values.append(rate)
                keys.append((i, k))
        total = float(np.sum(costs))
        budget = z * total
        order = np.argsort(-np.asarray(values), kind="stable")
        chosen: list[list[int]] = [[], []]
        spent = 0.0
        for idx in order:
            if values[idx] <= 0.0:
                break  # never spend budget on segments with no matches
            if spent + costs[idx] > budget:
                continue
            spent += costs[idx]
            i, k = keys[idx]
            chosen[i].append(k)
        for i in range(2):
            if not chosen[i] and z > 0:
                # always keep at least the best segment per direction
                best = max(
                    (k for j, k in keys if j == i),
                    key=lambda k: values[keys.index((i, k))],
                )
                chosen[i] = [best]
            self.selected[i] = np.asarray(sorted(chosen[i]), dtype=int)

    def describe(self) -> str:
        return "AdaptiveTwoWayJoin"
