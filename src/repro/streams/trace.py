"""Recorded tuple traces: deterministic replay of pre-generated streams.

A trace decouples workload generation from simulation so that (a) the same
workload can be fed to GrubJoin and to the RandomDrop baseline for an
apples-to-apples comparison, and (b) correlated worlds
(:mod:`repro.streams.correlated`) that must generate all streams jointly can
still be consumed stream-by-stream.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Sequence
from itertools import islice
from operator import attrgetter

from .arrivals import ArrivalProcess
from .tuples import StreamTuple

_delivery_time = attrgetter("delivery_time")


class TraceSource:
    """Replays a fixed list of tuples, in *delivery* order, as a stream
    source.

    Implements the same ``iter_tuples`` / ``rate_at`` surface as
    :class:`repro.streams.source.StreamSource`, so the runtime does not care
    whether a stream is generated live or replayed.  On-time tuples are
    delivered at their timestamps; a delayed delivery schedule (the
    testkit's chaos faults) replays as recorded, and ``.tuples`` still
    holds the logical stream for the oracle.
    """

    def __init__(self, stream: int, tuples: Sequence[StreamTuple]) -> None:
        deliveries = [t.delivery_time for t in tuples]
        if deliveries != sorted(deliveries):
            raise ValueError("trace tuples must be sorted by delivery time")
        self.stream = stream
        self.tuples = list(tuples)
        self.name = f"S{stream + 1}"

    def iter_tuples(self, until: float) -> Iterator[StreamTuple]:
        """The tuples *delivered* before ``until``, in delivery order."""
        stop = bisect_left(self.tuples, until, key=_delivery_time)
        return islice(self.tuples, stop)

    def generate(self, until: float) -> list[StreamTuple]:
        return list(self.iter_tuples(until))

    def rate_at(self, timestamp: float) -> float:
        """Empirical rate: tuples within +/- 1 s of ``timestamp``."""
        lo, hi = timestamp - 1.0, timestamp + 1.0
        count = sum(1 for t in self.tuples if lo <= t.timestamp <= hi)
        return count / 2.0

    @property
    def mean_rate(self) -> float:
        """Average rate over the trace's full span."""
        if len(self.tuples) < 2:
            return float(len(self.tuples))
        span = self.tuples[-1].timestamp - self.tuples[0].timestamp
        return len(self.tuples) / span if span > 0 else float(len(self.tuples))


def record_trace(
    stream: int, arrivals: ArrivalProcess, values, until: float
) -> TraceSource:
    """Materialize a (arrivals, values) pair into a replayable trace."""
    from .source import StreamSource

    source = StreamSource(stream, arrivals, values)
    return TraceSource(stream, source.generate(until))
