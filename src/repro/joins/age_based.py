"""Memory-limited joins with age-based tuple replacement.

The paper's related work (Section 7) credits the *age-based* framework of
Srivastava & Widom (VLDB'04) as the first to exploit the time-correlation
effect — for **memory** load shedding in two-way joins: when the windows
do not fit in memory, keep each tuple through the ages at which it is
most likely to produce output and evict it afterwards, instead of FIFO.

This module provides that baseline generalized to m-way joins on top of
the same basic-window substrate:

* :class:`MemoryLimitedMJoin` is an
  :class:`~repro.joins.mjoin.MJoinOperator` — same probe, obs counters,
  oracle profile and end-of-run flush — that bounds the total number of
  stored tuples after every ``process``;
* eviction works at basic-window granularity guided by learned
  per-segment match rates — a segment's *remaining utility* is the match
  mass a tuple still ahead of it will encounter as it ages;
* an ``oldest`` (FIFO) policy serves as the naive comparison: with
  nonaligned streams the productive ages sit deep inside the window, and
  FIFO throws exactly those tuples away.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from repro.engine.buffers import BufferStats
from repro.engine.operator import ProcessReceipt
from repro.streams.tuples import StreamTuple

from .mjoin import MJoinOperator
from .predicates import JoinPredicate


class EvictionPolicy(str, Enum):
    """How a memory-limited join picks victims."""

    OLDEST = "oldest"      # FIFO: evict the globally oldest basic window
    UTILITY = "utility"    # age-based: evict the least future-productive


class MemoryLimitedMJoin(MJoinOperator):
    """Full m-way join under a tuple-count memory budget.

    Args:
        predicate: join condition.
        window_sizes: per-stream window sizes (seconds).
        basic_window_size: segment granularity (seconds).
        memory_budget: maximum total tuples stored across all windows.
        policy: eviction policy.
        sampling: fraction of probes executed segment-by-segment to feed
            the per-segment match statistics (utility policy only).
        stat_decay: per-adaptation aging of those statistics.
        output_cost: work units charged per result tuple.
        rng: generator or seed.
    """

    def __init__(
        self,
        predicate: JoinPredicate,
        window_sizes: Sequence[float],
        basic_window_size: float,
        memory_budget: int,
        policy: EvictionPolicy = EvictionPolicy.UTILITY,
        sampling: float = 0.1,
        stat_decay: float = 0.9,
        output_cost: float = 2.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if memory_budget <= 0:
            raise ValueError("memory_budget must be positive")
        if not 0 < sampling <= 1:
            raise ValueError("sampling must be in (0, 1]")
        super().__init__(
            predicate, window_sizes, basic_window_size,
            output_cost=output_cost,
        )
        self.memory_budget = int(memory_budget)
        self.policy = EvictionPolicy(policy)
        self.sampling = float(sampling)
        self.stat_decay = float(stat_decay)
        # per window l, per logical segment k: scans / matches
        self._scans = [np.zeros(w.n) for w in self.windows]
        self._matches = [np.zeros(w.n) for w in self.windows]
        self._rng = np.random.default_rng(rng)
        self.tuples_evicted = 0

    def stored_tuples(self) -> int:
        """Total tuples currently held across all windows."""
        return sum(len(w) for w in self.windows)

    # ------------------------------------------------------------------
    # processing
    # ------------------------------------------------------------------

    def process(self, tup: StreamTuple, now: float) -> ProcessReceipt:
        """Probe as the full MJoin, then enforce the memory budget."""
        if (
            self.policy is EvictionPolicy.UTILITY
            and self._rng.random() < self.sampling
        ):
            self._sample_segments(tup, now)
        receipt = super().process(tup, now)
        self._enforce_budget(now)
        return receipt

    def _sample_segments(self, tup: StreamTuple, now: float) -> None:
        """First-hop probe executed per logical segment so the match
        statistics attribute to segments; deeper hops on the matched
        partials would complicate accounting, so sampled probes only
        gather first-hop statistics — the normal pipeline then produces
        the actual output."""
        first = self.orders[tup.stream][0]
        window = self.windows[first]
        window.rotate_to(now)
        context = self.predicate.probe_context([tup.value])
        for k in range(window.n):
            for s in window.logical_window_slices(
                k + 1, now, reference=tup.timestamp
            ):
                self._scans[first][k] += len(s)
                hits = self.predicate.probe_block(context, s.values)
                self._matches[first][k] += len(hits)

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------

    def _enforce_budget(self, now: float) -> None:
        while self.stored_tuples() > self.memory_budget:
            victim = self._pick_victim(now)
            if victim is None:
                return
            window, ring_index = victim
            self.tuples_evicted += window.evict_basic_window(ring_index)

    def _candidates(self, now: float):
        """Non-empty, non-filling basic windows as (stream, ring index)."""
        for l, window in enumerate(self.windows):
            window.rotate_to(now)
            for k, size in enumerate(window.basic_window_sizes()):
                if k and size:
                    yield l, k

    def _pick_victim(self, now: float):
        candidates = list(self._candidates(now))
        if not candidates:
            return None
        if self.policy is EvictionPolicy.OLDEST:
            l, k = max(candidates, key=lambda lk: lk[1])
            return self.windows[l], k
        l, k = min(
            candidates, key=lambda lk: self._remaining_utility(*lk)
        )
        return self.windows[l], k

    def _remaining_utility(self, l: int, ring_index: int) -> float:
        """Match mass a tuple currently in ring slot ``ring_index`` of
        window ``l`` will still encounter as it ages toward expiration.

        Ring slot k holds tuples of logical age ~ k-1..k segments, so the
        remaining utility is the sum of per-segment match rates from
        segment ``ring_index - 1`` onward (clamped into range).
        """
        scans = self._scans[l]
        matches = self._matches[l]
        n = len(scans)
        start = min(max(ring_index - 1, 0), n - 1)
        rates = np.divide(
            matches[start:], np.maximum(scans[start:], 1.0)
        )
        return float(rates.sum())

    # ------------------------------------------------------------------
    # adaptation
    # ------------------------------------------------------------------

    def on_adapt(
        self, now: float, stats: list[BufferStats], interval: float
    ) -> None:
        """Age statistics, then the substrate's own adaptation step."""
        for l in range(self.num_streams):
            self._scans[l] *= self.stat_decay
            self._matches[l] *= self.stat_decay
        super().on_adapt(now, stats, interval)

    def describe(self) -> str:
        return f"MemoryLimitedMJoin({self.policy.value})"
