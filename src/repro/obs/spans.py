"""Virtual-time spans: nested, clock-keyed work records.

A span is a named interval of *virtual* time with optional labels and
attributes, recorded against whatever clock the owning :class:`Obs` is
bound to (the simulation's :class:`~repro.engine.clock.VirtualClock` in
practice).  Spans nest: a span opened while another is active becomes its
child, so ``adapt`` ticks naturally contain their ``solver.greedy`` run
and a replay can attribute time hierarchically.

Two recording styles:

* context manager — ``with obs.span("solver.greedy") as sp:`` reads the
  bound clock on entry/exit and supports ``sp.annotate(steps=12)``;
* direct — ``recorder.record("service", start, end, ...)`` when the
  caller already knows both endpoints (the runtime knows a service's
  completion time the moment it schedules it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One finished span.

    Attributes:
        span_id: unique id within the recorder (1-based, creation order).
        parent_id: enclosing span's id, or ``None`` for root spans.
        name: span name (``"service"``, ``"adapt"``, ``"solver.greedy"``).
        start: virtual start time.
        end: virtual end time (``>= start``).
        labels: identity labels (stream, node, shard...).
        attrs: measurements attached to the span (comparisons, steps...).
    """

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    labels: dict = field(default_factory=dict)
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class ActiveSpan:
    """A span opened by the context-manager API, still in flight."""

    __slots__ = ("_recorder", "span_id", "parent_id", "name", "labels",
                 "attrs", "start")

    def __init__(self, recorder: "SpanRecorder", span_id: int,
                 parent_id: int | None, name: str, labels: dict,
                 start: float) -> None:
        self._recorder = recorder
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.labels = labels
        self.attrs: dict = {}
        self.start = start

    def annotate(self, **attrs) -> "ActiveSpan":
        """Attach measurement attributes to the span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "ActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._recorder._finish(self)


class SpanRecorder:
    """Collects spans against an injectable virtual clock.

    Args:
        clock: zero-argument callable returning the current virtual time;
            rebindable via :meth:`bind_clock` (the runtime binds its own
            clock at run start).
        max_spans: optional cap on retained spans; once reached, further
            spans are counted in :attr:`dropped` instead of stored
            (bounded memory on very long runs).
    """

    def __init__(self, clock: Callable[[], float] | None = None,
                 max_spans: int | None = None) -> None:
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.max_spans = max_spans
        self.records: list[SpanRecord] = []
        self.dropped = 0
        self._next_id = 1
        self._stack: list[int] = []

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def now(self) -> float:
        return self._clock()

    # -- context-manager API -------------------------------------------

    def span(self, name: str, **labels) -> ActiveSpan:
        """Open a nested span; close it by exiting the ``with`` block."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return ActiveSpan(self, span_id, parent, name, labels,
                          self._clock())

    def _finish(self, span: ActiveSpan) -> None:
        if self._stack and self._stack[-1] == span.span_id:
            self._stack.pop()
        elif span.span_id in self._stack:  # tolerate out-of-order exits
            self._stack.remove(span.span_id)
        self._append(SpanRecord(
            span_id=span.span_id,
            parent_id=span.parent_id,
            name=span.name,
            start=span.start,
            end=max(self._clock(), span.start),
            labels=span.labels,
            attrs=span.attrs,
        ))

    # -- direct API -----------------------------------------------------

    def record(
        self,
        name: str,
        start: float,
        end: float,
        labels: dict | None = None,
        attrs: dict | None = None,
    ) -> None:
        """Record a finished span with known endpoints.

        The span parents under the currently open context-manager span,
        if any (a directly recorded service span during an ``adapt``
        block nests under it).
        """
        if end < start:
            raise ValueError("span must not end before it starts")
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._append(SpanRecord(
            span_id=span_id,
            parent_id=parent,
            name=name,
            start=float(start),
            end=float(end),
            labels=dict(labels) if labels else {},
            attrs=dict(attrs) if attrs else {},
        ))

    def _append(self, record: SpanRecord) -> None:
        if self.max_spans is not None and len(self.records) >= self.max_spans:
            self.dropped += 1
            return
        self.records.append(record)

    def extend_remapped(
        self,
        records: "Sequence[SpanRecord]",
        extra_labels: dict | None = None,
    ) -> None:
        """Adopt spans recorded by *another* recorder (a worker's).

        Ids are reassigned from this recorder's counter while the
        parent/child structure is preserved: the incoming batch is
        scanned once to allocate a fresh id per record (spans finish
        child-before-parent, so parent ids are forward references within
        the batch), then appended with parents remapped.  A parent that
        never finished (still open when the source was snapshotted)
        maps to ``None`` — its children become roots here.

        ``extra_labels`` (e.g. ``{"worker": "1"}``) are stamped onto
        every adopted span without overwriting existing keys.
        """
        id_map: dict[int, int] = {}
        for record in records:
            id_map[record.span_id] = self._next_id
            self._next_id += 1
        for record in records:
            labels = dict(record.labels)
            if extra_labels:
                for key, value in extra_labels.items():
                    labels.setdefault(key, value)
            self._append(SpanRecord(
                span_id=id_map[record.span_id],
                parent_id=(
                    id_map.get(record.parent_id)
                    if record.parent_id is not None
                    else None
                ),
                name=record.name,
                start=record.start,
                end=record.end,
                labels=labels,
                attrs=dict(record.attrs),
            ))

    # -- queries --------------------------------------------------------

    def named(self, name: str) -> list[SpanRecord]:
        """All recorded spans with the given name, in record order."""
        return [r for r in self.records if r.name == name]

    def top_by_attr(self, name: str, attr: str,
                    k: int = 10) -> list[SpanRecord]:
        """The ``k`` spans named ``name`` with the largest ``attr``.

        Ties break on earliest start then lowest id, so the selection is
        deterministic across reruns.
        """
        candidates = [r for r in self.records if r.name == name]
        candidates.sort(
            key=lambda r: (-float(r.attrs.get(attr, 0)), r.start, r.span_id)
        )
        return candidates[:k]

    def __len__(self) -> int:
        return len(self.records)
