"""Stream tuples: the unit of data flowing through the mini-DSMS.

The paper's model (Section 2) puts only two requirements on tuples: they
carry a timestamp assigned on entrance to the DSMS, and they expose the
attributes referenced by the join condition.  Everything else about the
schema is free-form, so :class:`StreamTuple` stores an arbitrary payload
``value`` next to its timestamp and provenance fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True, slots=True)
class StreamTuple:
    """A single timestamped stream element.

    Attributes:
        value: The join-attribute payload.  For the paper's synthetic
            workload this is a ``float``; the news-similarity example uses
            a keyword-weight mapping and the object-tracking example a
            numeric vector.
        timestamp: Arrival timestamp ``T(t)`` in (virtual) seconds,
            assigned when the tuple enters the DSMS.
        stream: Index of the originating stream, ``0``-based (the paper
            writes streams ``S_1..S_m``; we index ``0..m-1`` in code).
        seq: Per-stream sequence number, increasing with ``timestamp``.
        delivery: Optional time the tuple physically reaches the system —
            later than ``timestamp`` under network delay/reordering.
            ``None`` (the common case) means on-time delivery.
    """

    value: Any
    timestamp: float
    stream: int = 0
    seq: int = 0
    delivery: float | None = None

    def __reduce__(self):
        # a frozen slots dataclass otherwise pickles through python-level
        # per-field get/setstate helpers; the constructor call is several
        # times cheaper for a pickled operator's window columns
        return StreamTuple, (
            self.value, self.timestamp, self.stream, self.seq, self.delivery
        )

    @property
    def delivery_time(self) -> float:
        """When the tuple shows up at the DSMS input."""
        return self.delivery if self.delivery is not None else self.timestamp

    def age(self, now: float) -> float:
        """Return the tuple's age relative to the current time ``now``."""
        return now - self.timestamp

    def expired(self, now: float, window_size: float) -> bool:
        """Return True if the tuple falls outside a window of ``window_size``
        seconds ending at ``now`` (i.e. ``T(t) < now - window_size``)."""
        return self.timestamp < now - window_size


@dataclass(slots=True)
class JoinResult:
    """An output tuple of an m-way join.

    Attributes:
        constituents: The ``m`` input tuples joined together, ordered by
            stream index.
        timestamp: Emission time of the result (the virtual time at which
            the probing tuple completed its pipeline).
    """

    constituents: tuple[StreamTuple, ...]
    timestamp: float = field(default=0.0)

    @property
    def arity(self) -> int:
        """Number of constituent tuples (the ``m`` of the m-way join)."""
        return len(self.constituents)

    def lag(self, i: int, j: int) -> float:
        """Return ``T(t_i) - T(t_j)`` between constituents ``i`` and ``j``.

        This is the random variable ``A_{i,j}`` of Section 4.2.1, whose
        distribution the per-stream histograms approximate.
        """
        return self.constituents[i].timestamp - self.constituents[j].timestamp

    def key(self) -> tuple[tuple[int, int], ...]:
        """A hashable identity for deduplication in tests: the
        ``(stream, seq)`` pairs of all constituents."""
        return tuple((t.stream, t.seq) for t in self.constituents)
