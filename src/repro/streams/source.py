"""Stream sources: an arrival process plus a value process per stream.

A :class:`StreamSource` materializes the timestamped tuples for one input
stream.
"""

from __future__ import annotations

from collections.abc import Iterator

from .arrivals import ArrivalProcess
from .stochastic import ValueProcess
from .tuples import StreamTuple


class StreamSource:
    """Generates the tuples of one input stream.

    Args:
        stream: 0-based stream index (position in the join).
        arrivals: when tuples arrive.
        values: what each tuple's join attribute is.
        name: human-readable label, defaults to ``S<stream+1>`` matching the
            paper's notation.
    """

    def __init__(
        self,
        stream: int,
        arrivals: ArrivalProcess,
        values: ValueProcess,
        name: str | None = None,
    ) -> None:
        if stream < 0:
            raise ValueError("stream index must be non-negative")
        self.stream = stream
        self.arrivals = arrivals
        self.values = values
        self.name = name if name is not None else f"S{stream + 1}"

    def iter_tuples(self, until: float) -> Iterator[StreamTuple]:
        """Yield this stream's tuples with timestamps in ``[0, until)``."""
        for seq, ts in enumerate(self.arrivals.iter_arrivals(until)):
            payload = self.values.sample(ts)
            yield StreamTuple(
                value=payload, timestamp=ts, stream=self.stream, seq=seq
            )

    def generate(self, until: float) -> list[StreamTuple]:
        """Materialize :meth:`iter_tuples` as a list."""
        return list(self.iter_tuples(until))

    def rate_at(self, timestamp: float) -> float:
        """Instantaneous arrival rate of this stream."""
        return self.arrivals.rate_at(timestamp)

    def to_testkit_trace(self, until: float):
        """Freeze this source into a replayable recorded trace.

        Generation consumes the underlying RNG state, so freeze *once*
        and feed the same trace to every system under comparison — the
        contract the testkit's differential harness depends on.
        """
        from .trace import TraceSource

        return TraceSource(self.stream, self.generate(until))
