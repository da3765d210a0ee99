"""MJoin: the full m-way windowed stream join (no load shedding).

This is the reference operator GrubJoin descends from (Section 2): one
join direction per stream, NLJ processing along per-direction join orders,
windows organized into basic windows for batch expiration.  It always scans
the entire unexpired window at every hop.  Under overload it simply falls
behind — which is exactly the regime the RandomDrop baseline fixes by
dropping input tuples, and GrubJoin by window harvesting.

It is also the one join *substrate*: the only class that builds windows,
orders, kernel, index states and obs counters and charges a receipt.
GrubJoin, ``IndexedMJoin``, ``AdaptiveTwoWayJoin`` and
``MemoryLimitedMJoin`` subclass it and override only the probe.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.basic_windows import PartitionedWindow
from repro.core.windex import (
    WindexTelemetry,
    check_index_compat,
    make_index_states,
)
from repro.engine.buffers import BufferStats
from repro.engine.operator import ProcessReceipt, StreamOperator
from repro.streams.tuples import JoinResult, StreamTuple
from repro.streams.windows import WindowPolicy, resolve_policy

from .columnar import select_kernel, supports_columnar
from .join_order import default_orders, low_selectivity_first, validate_order
from .pipeline import PipelineResult
from .predicates import JoinPredicate
from .selectivity import SelectivityEstimator
from .variants import JoinMode, ModeState


class MJoinOperator(StreamOperator):
    """Full m-way windowed join over basic-window partitioned windows.

    Args:
        predicate: the join condition.
        window_sizes: per-stream window sizes ``w_i`` in seconds.
        basic_window_size: ``b`` in seconds.
        orders: optional fixed join orders; default ascending-index,
            re-derived with low-selectivity-first at each adaptation step
            when ``adapt_orders`` is True.
        adapt_orders: re-run the order heuristic from live selectivity
            estimates at every adaptation tick.
        output_cost: extra comparisons charged per produced result tuple
            (result construction is not free on a real system; without it
            an overloaded high-selectivity join could nominally emit more
            results per second than its CPU could even enumerate).
        mode: emission semantics (:class:`repro.joins.variants.JoinMode`
            or its string value).  Non-inner modes run the same inner
            pipeline and post-process its outputs; anti/outer emission is
            deferred to window-expiry and the end-of-run flush.
        window_policy: membership policy for every stream's window
            (:class:`repro.streams.windows.WindowPolicy`, spec string, or
            ``None`` for the bit-identical sliding default).
        index: partition-index spec for the columnar kernel
            (:func:`repro.core.windex.check_index_compat`).

    Probes run on :func:`repro.joins.columnar.select_kernel`'s choice
    for the predicate — the columnar kernel for interval predicates,
    the reference nested-loop pipeline otherwise — in every mode and
    window policy.
    """

    def __init__(
        self,
        predicate: JoinPredicate,
        window_sizes: Sequence[float],
        basic_window_size: float,
        orders: Sequence[Sequence[int]] | None = None,
        adapt_orders: bool = True,
        output_cost: float = 2.0,
        mode: "JoinMode | str" = JoinMode.INNER,
        window_policy: "WindowPolicy | str | None" = None,
        index: str | None = None,
    ) -> None:
        m = len(window_sizes)
        if m < 2:
            raise ValueError("an m-way join needs at least 2 streams")
        if output_cost < 0:
            raise ValueError("output_cost must be non-negative")
        self.num_streams = m
        self.output_kind = "join-result"
        self.predicate = predicate
        self.window_sizes = [float(w) for w in window_sizes]
        self.basic_window_size = float(basic_window_size)
        self.mode = JoinMode(mode)
        self.window_policy = resolve_policy(window_policy)
        radius = getattr(predicate, "interval_radius", None)
        self.index_spec = check_index_compat(
            index,
            columnar_ok=supports_columnar(predicate),
            radius=radius,
        )
        self.windex_states = make_index_states(self.index_spec, m, radius)
        self.windows = [
            PartitionedWindow(
                w,
                basic_window_size,
                mode=predicate.storage_mode,
                dim=predicate.dim,
                policy=self.window_policy,
                index=state,
            )
            for w, state in zip(
                self.window_sizes, self.windex_states or [None] * m
            )
        ]
        self._modes = (
            None
            if self.mode is JoinMode.INNER
            else ModeState(
                self.mode,
                [pw.n * pw.basic_window_size for pw in self.windows],
            )
        )
        if orders is None:
            self.orders = default_orders(m)
        else:
            self.orders = [list(o) for o in orders]
            for i, order in enumerate(self.orders):
                validate_order(order, i, m)
        self.adapt_orders = adapt_orders and orders is None
        self.output_cost = float(output_cost)
        self._kernel = select_kernel(predicate)
        self.selectivity = SelectivityEstimator(m)
        self.tuples_processed = 0
        self.comparisons_total = 0
        # cached obs instrument handles (populated by _obs_setup)
        self._obs_comparisons = None
        self._obs_windex = None

    def _obs_setup(self, obs, labels) -> None:
        """Cache per-(direction, hop) comparison counters."""
        m = self.num_streams
        labels = {
            "mode": self.mode.value,
            "window_policy": self.window_policy.name,
            **labels,
        }
        self._obs_comparisons = [
            [
                obs.counter(
                    "direction_comparisons_total",
                    direction=i, hop=j, **labels,
                )
                for j in range(m - 1)
            ]
            for i in range(m)
        ]
        self._obs_windex = WindexTelemetry(obs, labels, m)

    def _probe(
        self, tup: StreamTuple, order: Sequence[int], now: float
    ) -> PipelineResult:
        """The probe seam: how ``tup`` (already inserted) walks ``order``
        — by default the selected kernel over every unexpired slice.
        Overriders inherit the accounting and the receipt."""
        return self._kernel(
            tup, order, lambda hop, l: self.windows[l].full_slices(now),
            self.predicate,
        )

    def process(self, tup: StreamTuple, now: float) -> ProcessReceipt:
        """Insert ``tup`` into its window and probe the others fully."""
        self.windows[tup.stream].insert(tup, now)
        order = self.orders[tup.stream]
        result = self._probe(tup, order, now)
        per_hop = (
            self._obs_comparisons[tup.stream]
            if self._obs_comparisons is not None
            else None
        )
        for hop, stats in enumerate(result.hop_stats):
            self.selectivity.observe(
                tup.stream, order[hop], stats.scanned, stats.matched
            )
            if per_hop is not None:
                per_hop[hop].inc(stats.scanned)
        self.tuples_processed += 1
        self.comparisons_total += result.comparisons
        outputs = result.outputs
        if self._modes is not None:
            outputs = self._modes.observe(tup, outputs, now)
        work = result.comparisons + round(
            self.output_cost * len(outputs)
        )
        return ProcessReceipt(comparisons=work, outputs=outputs)

    def on_adapt(
        self, now: float, stats: list[BufferStats], interval: float
    ) -> None:
        """Age selectivity estimates and optionally re-derive join orders."""
        self.selectivity.age()
        if self.adapt_orders:
            self.orders = low_selectivity_first(self.selectivity.matrix())
        if self.windex_states is not None:
            for state in self.windex_states:
                state.tick()
        if self._obs_windex is not None:
            self._obs_windex.record(self.windex_states)

    def on_finish(self, now: float) -> list[JoinResult]:
        """Release deferred anti/outer survivors at end-of-run."""
        if self._obs_windex is not None:
            self._obs_windex.record(self.windex_states)
        if self._modes is None:
            return []
        return self._modes.flush(now)

    def testkit_profile(self) -> dict:
        """Join semantics for the correctness oracle: the predicate and
        window geometry this operator actually joins over (consumed by
        :mod:`repro.testkit.differential`)."""
        return {
            "predicate": self.predicate,
            "window_sizes": list(self.window_sizes),
            "basic_window_size": self.basic_window_size,
            "mode": self.mode.value,
            "window_policy": self.window_policy.name,
        }

    def describe(self) -> str:
        if self.index_spec is not None:
            return f"MJoin(m={self.num_streams}, index={self.index_spec})"
        return f"MJoin(m={self.num_streams})"
