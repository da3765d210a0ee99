"""Cross-process telemetry plane: delta shipping and exact aggregation.

The process-parallel runtime (:mod:`repro.parallel.procs`) forks its
shard workers, and lint rule P126 forbids carrying a bound obs sink
across the fork — so each worker builds its *own* :class:`Obs` inside
the child and this module moves that telemetry back to the supervisor:

* :class:`DeltaShipper` (worker side) — cursor-based incremental
  snapshots of a worker's ``Obs``.  Each :meth:`DeltaShipper.collect`
  emits only what changed since the previous collect, as a picklable
  plain-data :class:`TelemetryDelta` that rides the existing duplex-pipe
  ack messages.
* :class:`TelemetryAggregator` (supervisor side) — merges deltas into
  the run's ``Obs`` under a ``worker=<id>`` label.  Counters add,
  histograms merge bucket-wise (edges are fixed powers of two, so the
  merge is **exact**: the aggregate equals what a single process
  observing every worker's values would have recorded), series and
  gauges stay per-worker (distinct label sets, so each keeps its own
  time-order invariant).  Spans and shedding decisions are buffered per
  worker and installed by :meth:`TelemetryAggregator.finalize` in sorted
  worker order — ack arrival order is racy, the finalized export is not.

Workers replay tuples on the virtual delivery-time clock, which both
sides share, so shipped timestamps are merged as they are.

Everything here is virtual-time native (R001: no wall clocks) and
stdlib-only, like the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .hub import Obs
from .registry import Counter, Gauge, Histogram, Series


@dataclass(frozen=True, slots=True)
class TelemetryDelta:
    """One incremental, picklable snapshot of a worker's telemetry.

    Plain data only (tuples, dicts of str, floats) so it pickles cheaply
    over the procs pipe and never drags operator state across the
    process boundary.

    Attributes:
        worker: originating worker id.
        now: the worker clock's time when the delta was collected.
        meta: the worker ``Obs.meta`` (first delta only, else ``None``).
        counters: ``(name, labels, increment)`` per counter that grew.
        gauges: ``(name, labels, value)`` per gauge that changed.
        histograms: ``(name, labels, bucket_deltas, count, sum, min,
            max)`` per histogram that grew, with sparse
            ``(bucket_index, fill)`` pairs — the exact-merge wire form.
        series: ``(name, labels, samples)`` with the new ``(t, v)``
            samples per series that grew.
        spans: newly finished :class:`SpanRecord` s (worker-local ids).
        spans_dropped: increase of the worker recorder's drop count.
        decisions: new :class:`AdaptationExplanation` s.
    """

    worker: int
    now: float
    meta: dict | None = None
    counters: tuple = ()
    gauges: tuple = ()
    histograms: tuple = ()
    series: tuple = ()
    spans: tuple = ()
    spans_dropped: int = 0
    decisions: tuple = ()


class DeltaShipper:
    """Worker-side incremental snapshotter for one ``Obs``.

    Keeps a cursor per instrument (last shipped counter value, histogram
    fills, series length, span index...) so each :meth:`collect` emits
    only the growth since the previous one.  The union of all deltas a
    shipper ever emits reconstructs the source registry exactly.
    """

    __slots__ = ("obs", "worker", "_meta_sent", "_counters", "_gauges",
                 "_histograms", "_series_len", "_span_index",
                 "_spans_dropped", "_decision_index")

    def __init__(self, obs: Obs, worker: int) -> None:
        self.obs = obs
        self.worker = worker
        self._meta_sent = False
        self._counters: dict = {}     # key -> last shipped value
        self._gauges: dict = {}       # key -> last shipped value
        self._histograms: dict = {}   # key -> (counts copy, count, sum)
        self._series_len: dict = {}   # key -> samples shipped
        self._span_index = 0
        self._spans_dropped = 0
        self._decision_index = 0

    def collect(self) -> TelemetryDelta:
        """Snapshot everything that changed since the last collect."""
        counters: list = []
        gauges: list = []
        histograms: list = []
        series: list = []
        for instrument in self.obs.registry.collect():
            key = (instrument.name, instrument.labels)
            labels = instrument.label_dict()
            if isinstance(instrument, Counter):
                shipped = self._counters.get(key, 0)
                if instrument.value != shipped:
                    counters.append(
                        (instrument.name, labels,
                         instrument.value - shipped)
                    )
                    self._counters[key] = instrument.value
            elif isinstance(instrument, Gauge):
                shipped = self._gauges.get(key)
                if instrument.value != shipped:
                    gauges.append(
                        (instrument.name, labels, instrument.value)
                    )
                    self._gauges[key] = instrument.value
            elif isinstance(instrument, Histogram):
                prev_counts, prev_count, prev_sum = self._histograms.get(
                    key, (None, 0, 0.0)
                )
                if instrument.count != prev_count:
                    bucket_deltas = tuple(
                        (i, fill - (prev_counts[i] if prev_counts else 0))
                        for i, fill in enumerate(instrument.counts)
                        if fill != (prev_counts[i] if prev_counts else 0)
                    )
                    histograms.append((
                        instrument.name,
                        labels,
                        bucket_deltas,
                        instrument.count - prev_count,
                        instrument.sum - prev_sum,
                        instrument.min,
                        instrument.max,
                    ))
                    self._histograms[key] = (
                        list(instrument.counts),
                        instrument.count,
                        instrument.sum,
                    )
            elif isinstance(instrument, Series):
                shipped = self._series_len.get(key, 0)
                if len(instrument.times) > shipped:
                    series.append((
                        instrument.name,
                        labels,
                        tuple(zip(instrument.times[shipped:],
                                  instrument.values[shipped:])),
                    ))
                    self._series_len[key] = len(instrument.times)
        spans = tuple(self.obs.spans.records[self._span_index:])
        self._span_index = len(self.obs.spans.records)
        dropped = self.obs.spans.dropped - self._spans_dropped
        self._spans_dropped = self.obs.spans.dropped
        decisions = tuple(self.obs.decisions[self._decision_index:])
        self._decision_index = len(self.obs.decisions)
        meta = None
        if not self._meta_sent:
            meta = dict(self.obs.meta)
            self._meta_sent = True
        return TelemetryDelta(
            worker=self.worker,
            now=self.obs.now(),
            meta=meta,
            counters=tuple(counters),
            gauges=tuple(gauges),
            histograms=tuple(histograms),
            series=tuple(series),
            spans=spans,
            spans_dropped=dropped,
            decisions=decisions,
        )


@dataclass(slots=True)
class _WorkerBuffer:
    """Per-worker order-sensitive telemetry held back until finalize."""

    meta: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    spans_dropped: int = 0
    decisions: list = field(default_factory=list)


class TelemetryAggregator:
    """Supervisor-side merge of worker deltas into one ``Obs``.

    Metrics are absorbed immediately (counter adds and histogram merges
    are commutative; gauges and series live under per-worker labels, so
    concurrent workers never interleave within one instrument).  Spans
    and decisions are *order-sensitive* — ack arrival order depends on
    scheduling — so they are buffered per worker and installed by
    :meth:`finalize` in sorted worker order, making the finalized export
    deterministic.

    Every absorbed record gains ``worker=<id>`` provenance: a label on
    instruments and spans, the ``worker`` field on decisions.
    """

    __slots__ = ("obs", "_workers", "_finalized")

    def __init__(self, obs: Obs) -> None:
        self.obs = obs
        self._workers: dict[int, _WorkerBuffer] = {}
        self._finalized = False

    def register_worker(self, worker: int) -> None:
        """Announce a worker (idempotent)."""
        self._workers.setdefault(worker, _WorkerBuffer())

    def absorb(self, delta: TelemetryDelta) -> None:
        """Merge one delta: metrics now, spans/decisions at finalize."""
        if self._finalized:
            raise RuntimeError("aggregator already finalized")
        self.register_worker(delta.worker)
        buffer = self._workers[delta.worker]
        wid = str(delta.worker)
        registry = self.obs.registry
        if delta.meta:
            buffer.meta.update(delta.meta)
        for name, labels, increment in delta.counters:
            registry.counter(name, worker=wid, **labels).inc(increment)
        for name, labels, value in delta.gauges:
            registry.gauge(name, worker=wid, **labels).set(value)
        for (name, labels, bucket_deltas, count, total,
             lo, hi) in delta.histograms:
            registry.histogram(name, worker=wid, **labels).merge(
                bucket_deltas, count, total, lo, hi
            )
        for name, labels, samples in delta.series:
            instrument = registry.series(name, worker=wid, **labels)
            for time, value in samples:
                instrument.observe(time, value)
        buffer.spans.extend(delta.spans)
        buffer.spans_dropped += delta.spans_dropped
        buffer.decisions.extend(delta.decisions)

    def finalize(self) -> None:
        """Install buffered spans/decisions in sorted worker order.

        Idempotent; call once after the last delta (the procs runtime
        calls it when the fleet has drained).
        """
        if self._finalized:
            return
        self._finalized = True
        for worker in sorted(self._workers):
            buffer = self._workers[worker]
            wid = str(worker)
            self.obs.spans.extend_remapped(buffer.spans, {"worker": wid})
            self.obs.spans.dropped += buffer.spans_dropped
            for decision in buffer.decisions:
                self.obs.decisions.append(replace(decision, worker=worker))
            if buffer.meta:
                self.obs.meta.setdefault("worker_meta", {})[wid] = (
                    buffer.meta
                )

    @property
    def workers(self) -> list[int]:
        """Worker ids seen so far, sorted."""
        return sorted(self._workers)


def reference_aggregate(
    worker_obs: dict[int, Obs], meta: dict | None = None
) -> Obs:
    """Aggregate fully populated per-worker ``Obs`` objects in-process.

    Ships each worker's telemetry through a fresh
    :class:`DeltaShipper` → :class:`TelemetryAggregator` pair in one
    delta — the single-process reference the delta-merge exactness tests
    compare the incrementally shipped procs run against.
    """
    merged = Obs()
    if meta:
        merged.meta.update(meta)
    aggregator = TelemetryAggregator(merged)
    for worker in sorted(worker_obs):
        aggregator.absorb(DeltaShipper(worker_obs[worker], worker).collect())
    aggregator.finalize()
    return merged
