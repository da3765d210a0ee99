"""Index-accelerated m-way join for range-shaped predicates.

An alternative to the NLJ processing the paper (and GrubJoin) uses: when
the join condition reduces a partial match to a value interval — the
epsilon-join and equi-join do — each basic window can carry a sorted
index and answer a probe in ``O(log n + matches)`` work instead of
``O(n)``.

The operator is a drop-in replacement for :class:`MJoinOperator` in the
simulation; its CPU receipts charge the indexed probe cost, so comparing
the two quantifies how much of the overload regime is an artifact of
NLJ — and, conversely, how much CPU pressure remains even with indexes
(matches still must be enumerated, and the knee merely moves).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.basic_windows import SCALAR, PartitionedWindow
from repro.core.indexing import SortedWindowIndex
from repro.engine.operator import ProcessReceipt, StreamOperator
from repro.streams.tuples import JoinResult, StreamTuple
from repro.streams.windows import WindowPolicy, resolve_policy

from .columnar import supports_columnar
from .join_order import default_orders, validate_order
from .predicates import JoinPredicate
from .variants import JoinMode, ModeState


class IndexedMJoin(StreamOperator):
    """Full m-way windowed join probing sorted per-basic-window indexes.

    Args:
        predicate: a predicate whose ``probe_context`` is an inclusive
            value interval ``(low, high)`` over scalar storage — the
            :func:`repro.joins.columnar.supports_columnar` contract;
            :class:`EpsilonJoin` and :class:`EquiJoin` qualify.
        window_sizes: per-stream window sizes (seconds).
        basic_window_size: segment granularity (seconds).
        orders: optional fixed join orders (default ascending).
        output_cost: work units charged per result tuple.
        mode: emission semantics (same contract as
            :class:`repro.joins.mjoin.MJoinOperator`).
        window_policy: membership policy for every stream's window
            (``None`` keeps the bit-identical sliding default).
    """

    def __init__(
        self,
        predicate: JoinPredicate,
        window_sizes: Sequence[float],
        basic_window_size: float,
        orders: Sequence[Sequence[int]] | None = None,
        output_cost: float = 2.0,
        mode: "JoinMode | str" = JoinMode.INNER,
        window_policy: "WindowPolicy | str | None" = None,
    ) -> None:
        if not supports_columnar(predicate):
            raise ValueError(
                "IndexedMJoin requires an interval-context scalar "
                f"predicate; {type(predicate).__name__} is not one"
            )
        m = len(window_sizes)
        if m < 2:
            raise ValueError("an m-way join needs at least 2 streams")
        self.num_streams = m
        self.output_kind = "join-result"
        self.predicate = predicate
        self.mode = JoinMode(mode)
        self.window_policy = resolve_policy(window_policy)
        self.windows = [
            PartitionedWindow(
                w, basic_window_size, mode=SCALAR,
                policy=self.window_policy,
            )
            for w in window_sizes
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
        self.output_cost = float(output_cost)
        self.index = SortedWindowIndex()
        self.tuples_processed = 0
        self.work_total = 0
        # cached obs instrument handles (populated by _obs_setup)
        self._obs_work = None

    def _obs_setup(self, obs, labels) -> None:
        """Cache per-(direction, hop) indexed-probe work counters."""
        m = self.num_streams
        labels = {
            "mode": self.mode.value,
            "window_policy": self.window_policy.name,
            **labels,
        }
        self._obs_work = [
            [
                obs.counter(
                    "direction_comparisons_total",
                    direction=i, hop=j, **labels,
                )
                for j in range(m - 1)
            ]
            for i in range(m)
        ]

    def process(self, tup: StreamTuple, now: float) -> ProcessReceipt:
        """Insert and probe via the indexes."""
        self.windows[tup.stream].insert(tup, now)
        work = 0
        per_hop = (
            self._obs_work[tup.stream]
            if self._obs_work is not None
            else None
        )
        partials: list[list[StreamTuple]] = [[tup]]
        for hop, window_stream in enumerate(self.orders[tup.stream]):
            slices = self.windows[window_stream].full_slices(now)
            next_partials: list[list[StreamTuple]] = []
            hop_work = 0
            for partial in partials:
                low, high = self.predicate.probe_context(
                    # probe_context takes the partial's values as a list;
                    # partials are short (one element per completed hop)
                    [t.value for t in partial]  # lint: disable=R007
                )
                for s in slices:
                    hits, cost = self.index.range_probe(s, low, high)
                    hop_work += cost
                    for idx in hits:
                        next_partials.append(
                            partial + [s.tuple_at(int(idx))]
                        )
            work += hop_work
            if per_hop is not None:
                per_hop[hop].inc(hop_work)
            partials = next_partials
            if not partials:
                break
        outputs = (
            # results are handed to the caller, so each tuple's output
            # list must be a fresh allocation by contract
            [  # lint: disable=R007
                JoinResult(tuple(sorted(p, key=lambda t: t.stream)))
                for p in partials
            ]
            if partials and len(partials[0]) == self.num_streams
            else []
        )
        if self._modes is not None:
            outputs = self._modes.observe(tup, outputs, now)
        self.tuples_processed += 1
        self.work_total += work
        total = work + int(self.output_cost * len(outputs))
        return ProcessReceipt(comparisons=total, outputs=outputs)

    def on_finish(self, now: float) -> list[JoinResult]:
        """Release deferred anti/outer survivors at end-of-run."""
        if self._modes is None:
            return []
        return self._modes.flush(now)

    def testkit_profile(self) -> dict:
        """Join semantics for the correctness oracle (see
        :meth:`repro.joins.mjoin.MJoinOperator.testkit_profile`)."""
        return {
            "predicate": self.predicate,
            "window_sizes": [w.window_size for w in self.windows],
            "basic_window_size": self.windows[0].basic_window_size,
            "mode": self.mode.value,
            "window_policy": self.window_policy.name,
        }

    def describe(self) -> str:
        return f"IndexedMJoin(m={self.num_streams})"
