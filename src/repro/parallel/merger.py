"""The Merger operator: combines shard outputs into one result stream.

Each shard's join results travel a ``shard -> merger`` edge whose
transform (:func:`shard_result_transform`) wraps the
:class:`~repro.streams.tuples.JoinResult` in a :class:`StreamTuple` whose
``stream`` field records the originating shard.  The merger passes results
through (charging a small fixed merge cost) and keeps per-shard counts, so
the merger node's ``output_rate`` in the :class:`GraphResult` *is* the
combined join output rate of the sharded plan — measured with the same
warm-up accounting as every other node, and never double-counted (shard
nodes report their own local rates separately).
"""

from __future__ import annotations

from typing import Callable

from repro.engine.operator import ProcessReceipt, StreamOperator
from repro.streams.tuples import JoinResult, StreamTuple


def shard_result_transform(
    shard: int,
) -> Callable[[JoinResult], StreamTuple]:
    """Edge transform for ``shard -> merger``: pack a join result into a
    stream tuple stamped with the shard index and the result's logical
    emission time — its youngest constituent's timestamp, which (unlike
    the virtual completion time) the wall-clock procs runtime reproduces,
    so ``Procs(K)`` and ``Sharded(K)`` order merged results identically.
    """

    def _pack(result: JoinResult) -> StreamTuple:
        ts = max(t.timestamp for t in result.constituents)
        return StreamTuple(
            value=result, timestamp=ts, stream=shard, seq=0
        )

    return _pack


class MergerOperator(StreamOperator):
    """Funnels the ``K`` shards' results into one output stream.

    Args:
        num_shards: shards feeding this merger (for per-shard accounting).
    """

    num_streams = 1
    output_kind = "tuple"

    #: merging is commutative: results carry their own identity (the
    #: JoinResult key) and logical timestamps, so shard arrival order
    #: never changes what downstream sees — P121 requires this declaration
    order_insensitive = True

    #: comparisons charged per merged result (serialization and hand-off
    #: are cheap but not free)
    merge_cost = 1

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.num_shards = int(num_shards)
        self.merged = 0
        self.merged_per_shard = [0] * self.num_shards
        # cached obs instrument handles (populated by _obs_setup)
        self._obs_merged = None

    def _obs_setup(self, obs, labels) -> None:
        """Cache per-shard merged-result counters."""
        self._obs_merged = [
            obs.counter("merger_merged_total", shard=k, **labels)
            for k in range(self.num_shards)
        ]

    def absorb(self, shard: int, count: int = 1) -> None:
        """Account ``count`` results from ``shard`` without passing
        anything through — all the process runtime's merge is, since its
        results arrive as identity columns, a batch per ack."""
        if 0 <= shard < self.num_shards:
            self.merged_per_shard[shard] += count
            if self._obs_merged is not None:
                self._obs_merged[shard].inc(count)
        self.merged += count

    def process(self, tup: StreamTuple, now: float) -> ProcessReceipt:
        """Count one shard result and pass it through."""
        self.absorb(tup.stream)
        return ProcessReceipt(comparisons=self.merge_cost, outputs=[tup])

    def describe(self) -> str:
        return f"Merger(shards={self.num_shards})"
