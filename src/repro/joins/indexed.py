"""Index-accelerated m-way join for range-shaped predicates.

An alternative to the NLJ processing the paper (and GrubJoin) uses: when
the join condition reduces a partial match to a value interval — the
epsilon-join and equi-join do — each basic window can carry a sorted
index and answer a probe in ``O(log n + matches)`` work instead of
``O(n)``.

The operator is an :class:`MJoinOperator` whose nested loop probes each
slice through the sorted index instead of the flat scan
(:func:`repro.joins.pipeline.run_pipeline`'s ``probe`` strategy); its CPU
receipts charge the indexed probe cost, so comparing the two quantifies
how much of the overload regime is an artifact of NLJ — and, conversely,
how much CPU pressure remains even with indexes (matches still must be
enumerated, and the knee merely moves).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.indexing import SortedWindowIndex
from repro.streams.tuples import StreamTuple
from repro.streams.windows import WindowPolicy

from .columnar import supports_columnar
from .mjoin import MJoinOperator
from .pipeline import PipelineResult, run_pipeline
from .predicates import JoinPredicate
from .variants import JoinMode


class IndexedMJoin(MJoinOperator):
    """Full m-way windowed join probing sorted per-basic-window indexes.

    Args:
        predicate: a predicate whose ``probe_context`` is an inclusive
            value interval ``(low, high)`` over scalar storage — the
            :func:`repro.joins.columnar.supports_columnar` contract;
            :class:`EpsilonJoin` and :class:`EquiJoin` qualify.
        window_sizes: per-stream window sizes (seconds).
        basic_window_size: segment granularity (seconds).
        orders: optional fixed join orders (default ascending; receipts
            are index costs, not the scan selectivities re-ordering reads).
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
        super().__init__(
            predicate, window_sizes, basic_window_size, orders=orders,
            adapt_orders=False, output_cost=output_cost, mode=mode,
            window_policy=window_policy,
        )
        self.index = SortedWindowIndex()

    @property
    def work_total(self) -> int:
        """Indexed-probe work units charged so far (output cost aside)."""
        return self.comparisons_total

    def _probe(
        self, tup: StreamTuple, order: Sequence[int], now: float
    ) -> PipelineResult:
        """The nested loop with the sorted index as its block probe."""
        return run_pipeline(
            tup, order, lambda hop, l: self.windows[l].full_slices(now),
            self.predicate,
            probe=lambda context, s: self.index.range_probe(s, *context),
        )

    def describe(self) -> str:
        return f"IndexedMJoin(m={self.num_streams})"
