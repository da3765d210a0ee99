"""Delivery disorder: tuples arriving later than their timestamps.

Real stream sources reach the DSMS through networks that delay and
reorder; the paper's timestamps are assigned at DSMS entry, but when an
upstream assigns them (sensor time), the join must tolerate tuples whose
*delivery* lags their timestamp by a bounded amount.  The
:class:`DisorderedSource` wrapper injects exactly that failure mode:
each tuple keeps its original timestamp but is delivered up to
``max_delay`` seconds late, so consecutive deliveries can be out of
timestamp order (bounded by ``max_delay``).

The window substrate handles the consequence — a tuple landing behind
already-inserted younger tuples — by shifting it into its timestamp
position (``PartitionedWindow.insert``).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .tuples import StreamTuple


class DisorderedSource:
    """Wraps any stream source, delaying deliveries by U(0, max_delay).

    Args:
        source: the wrapped source (anything with ``iter_tuples`` and a
            ``stream`` attribute).
        max_delay: upper bound on the per-tuple delivery delay (seconds);
            also the bound on the resulting timestamp disorder.
        rng: generator or seed for the delays.
    """

    def __init__(
        self,
        source,
        max_delay: float,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        self.source = source
        self.max_delay = float(max_delay)
        self.stream = source.stream
        self.name = getattr(source, "name", f"S{source.stream + 1}")
        self._rng = np.random.default_rng(rng)

    def iter_tuples(self, until: float) -> Iterator[StreamTuple]:
        """Yield delayed tuples in *delivery* order.

        Tuples whose delivery would fall beyond ``until`` are dropped at
        the horizon, matching how a finite run simply never sees them.
        """
        delayed = []
        for tup in self.source.iter_tuples(until):
            delivery = tup.timestamp + float(
                self._rng.uniform(0.0, self.max_delay)
            )
            if delivery >= until:
                continue
            delayed.append(
                StreamTuple(
                    value=tup.value,
                    timestamp=tup.timestamp,
                    stream=tup.stream,
                    seq=tup.seq,
                    delivery=delivery,
                )
            )
        delayed.sort(key=lambda t: (t.delivery_time, t.seq))
        yield from delayed

    def generate(self, until: float) -> list[StreamTuple]:
        """Materialized :meth:`iter_tuples`."""
        return list(self.iter_tuples(until))

    def rate_at(self, timestamp: float) -> float:
        """Delegates to the wrapped source (delay does not change rate)."""
        return self.source.rate_at(timestamp)
