"""Event queue for the discrete-event simulator.

Events are plain tuples ordered ``(time, kind, seq)``: ties in time are
broken by an explicit priority class, then by insertion order.  The
priority classes make the semantics of simultaneous events well-defined —
e.g. an adaptation tick scheduled at the same instant as a tuple arrival
observes the buffer state *before* that arrival.  ``seq`` is unique per
queue, so the tuple comparison (``tuple.__lt__``, entirely in C) never
reaches the payload.

The queue keeps two stores.  Events known before the run starts — every
arrival of a frozen trace, the adaptation and measurement ticks, the stop
— are handed over once through :meth:`EventQueue.schedule`, sorted once,
and consumed from the end of that list; they are never heap entries,
because a heap holding all ``N`` arrivals makes each of the run's
pushes and pops sift through ``log2 N`` levels for events whose order was
known up front.  :meth:`pop` returns the smaller of the two heads.

The heap holds only completions that something else can precede.  A
service completion is the one kind of event created while the run is
under way; when :meth:`precedes` says it sorts strictly before both
heads, the scheduler runs it next without queueing it, so on an idle CPU
the heap stays empty.  A completion run that way takes no ``seq``, so
later pushes take lower ``seq`` numbers than an always-push loop would
give them.  That cannot reorder anything: ``seq`` only breaks ties on
``(time, kind)``, pushed events keep their relative order, and every
pushed event is a ``COMPLETION``, a kind no scheduled event has.
"""

from __future__ import annotations

import heapq
import math
from enum import IntEnum
from typing import Any, Iterable, NamedTuple


class EventKind(IntEnum):
    """Dispatch classes, in tie-break order (lower runs first)."""

    ADAPT = 0          # throttle / harvesting reconfiguration tick
    ARRIVAL = 1        # a tuple arrives at an input buffer
    COMPLETION = 2     # the operator finishes servicing a tuple
    MEASURE = 3        # statistics sampling tick
    STOP = 4           # end of simulation


class Event(NamedTuple):
    """One scheduled simulation event."""

    time: float
    kind: EventKind
    seq: int
    payload: Any = None


#: a ``seq`` above every real one: ``(time, kind, _AFTER_ALL)`` sorts
#: before an event only if ``(time, kind)`` alone does
_AFTER_ALL = math.inf


class EventQueue:
    """A min-priority queue of :class:`Event` tuples."""

    __slots__ = ("_scheduled", "_heap", "_seq")

    def __init__(self) -> None:
        #: bulk-loaded events, sorted descending: the earliest is last, so
        #: consuming it is ``list.pop()`` and releases the entry
        self._scheduled: list[Event] = []
        #: events pushed one at a time
        self._heap: list[Event] = []
        self._seq = 0

    def schedule(self, entries: Iterable[tuple[float, EventKind, Any]]) -> None:
        """Bulk-load ``(time, kind, payload)`` entries known in advance.

        Entries take consecutive ``seq`` numbers in iteration order, exactly
        as if each had been :meth:`push`\\ ed in turn, and are sorted once.
        May be called again later; the new entries merge with whatever is
        still scheduled.
        """
        scheduled = self._scheduled
        before = len(scheduled)
        # tuple.__new__ builds an Event in C (NamedTuple's __new__ is Python)
        scheduled += [
            tuple.__new__(Event, (time, kind, seq, payload))
            for seq, (time, kind, payload) in enumerate(entries, self._seq)
        ]
        self._seq += len(scheduled) - before
        scheduled.sort(reverse=True)

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event; returns it (useful for inspection in tests)."""
        event = Event(time, kind, self._seq, payload)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event.

        Raises:
            IndexError: if the queue is empty.
        """
        scheduled, heap = self._scheduled, self._heap
        if scheduled and (not heap or scheduled[-1] < heap[0]):
            return scheduled.pop()
        return heapq.heappop(heap)

    def precedes(self, time: float, kind: EventKind) -> bool:
        """True iff an event ``(time, kind)`` sorts strictly before every
        queued event, scheduled and pushed alike.

        Only ``(time, kind)`` is compared: a tie with a queued event goes
        to the queued one, whatever its ``seq``.  An empty queue is
        preceded by anything.
        """
        probe = (time, kind, _AFTER_ALL)
        scheduled, heap = self._scheduled, self._heap
        return ((not scheduled or probe < scheduled[-1])
                and (not heap or probe < heap[0]))

    def peek_time(self) -> float | None:
        """Time of the earliest event, or None if empty."""
        scheduled, heap = self._scheduled, self._heap
        if scheduled and (not heap or scheduled[-1] < heap[0]):
            return scheduled[-1].time
        return heap[0].time if heap else None

    def __len__(self) -> int:
        return len(self._scheduled) + len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._scheduled or self._heap)
