"""Label-keyed metrics registry: counters, gauges, histograms, series.

Zero-dependency (stdlib only) so anything in the repo — including the
deterministic simulator packages — can record into it without pulling in
an exporter stack.  All instruments are *virtual-time native*: nothing in
this module reads the wall clock (lint rule R001 applies to ``obs/``);
time-stamped samples carry whatever virtual time the caller passes.

Design notes:

* Instruments are keyed by ``(name, labels)`` where labels are sorted
  ``(key, value)`` string pairs — the same identity Prometheus uses.
* ``registry.counter(...)`` is get-or-create: instrument handles are
  cheap to cache at bind time (see ``StreamOperator.bind_obs``), making
  the hot-path cost of an enabled metric one method call and one add.
* Histograms use **fixed log2 buckets** (upper bounds ``2**e``): bucket
  edges never depend on the data, so two runs of the same workload fill
  identical buckets and exports are byte-comparable.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Sequence

#: fixed log2 bucket exponents: upper bounds 2**-20 .. 2**40 cover
#: sub-microsecond latencies up to ~1e12 work units
LOG2_LO = -20
LOG2_HI = 40

#: the shared upper-bound table (immutable; one copy for every histogram)
LOG2_BOUNDS: tuple[float, ...] = tuple(
    2.0**e for e in range(LOG2_LO, LOG2_HI + 1)
)

LabelKey = tuple[tuple[str, str], ...]


def label_key(labels: dict) -> LabelKey:
    """Canonical identity of a label set: sorted ``(key, str(value))``."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Instrument:
    """Base: a named instrument with a frozen label set."""

    __slots__ = ("name", "labels")

    kind = "instrument"

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels

    def label_dict(self) -> dict[str, str]:
        """Labels as a plain dict (export convenience)."""
        return dict(self.labels)


class Counter(Instrument):
    """Monotonically increasing count (drops, comparisons, outputs...)."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey) -> None:
        super().__init__(name, labels)
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge(Instrument):
    """Last-value instrument (throttle ``z``, harvest fraction, depth)."""

    __slots__ = ("value",)

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram(Instrument):
    """Fixed log2-bucket histogram (value distribution, not time series).

    Bucket ``k`` counts observations ``v`` with
    ``LOG2_BOUNDS[k-1] < v <= LOG2_BOUNDS[k]``; values at or below zero
    land in bucket 0, values beyond the largest bound in the overflow
    bucket.  Because the edges are fixed powers of two, bucket fills are
    reproducible across runs and platforms.
    """

    __slots__ = ("counts", "count", "sum", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        super().__init__(name, labels)
        # one slot per bound plus one overflow slot
        self.counts = [0] * (len(LOG2_BOUNDS) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    @staticmethod
    def bucket_index(value: float) -> int:
        """Index of the bucket that ``value`` falls into."""
        if value <= 0.0:
            return 0
        return bisect_left(LOG2_BOUNDS, value)

    @staticmethod
    def bucket_bound(index: int) -> float:
        """Inclusive upper bound of bucket ``index`` (inf for overflow)."""
        if index >= len(LOG2_BOUNDS):
            return float("inf")
        return LOG2_BOUNDS[index]

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        # bucket_index(), inline: the runtime observes once per tuple
        self.counts[0 if value <= 0.0 else bisect_left(LOG2_BOUNDS, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(
        self,
        bucket_deltas: "Sequence[tuple[int, int]]",
        count: int,
        total: float,
        lo: float,
        hi: float,
    ) -> None:
        """Fold another histogram's (partial) fills into this one.

        Exact-merge primitive for the distributed telemetry plane: the
        bucket edges are fixed powers of two shared by every histogram,
        so bucket-wise addition loses nothing — merging K per-worker
        histograms reproduces the histogram a single process observing
        all K streams of values would have built.

        Args:
            bucket_deltas: sparse ``(bucket_index, fill)`` pairs to add.
            count: observation count to add.
            total: value sum to add.
            lo / hi: the source's min/max (folded via min/max; pass
                ``+inf``/``-inf`` for an empty source).
        """
        for index, fill in bucket_deltas:
            self.counts[index] += fill
        self.count += count
        self.sum += total
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile from the bucket fills.

        Returns the upper bound of the bucket holding the target rank
        (clamped to the observed max), so the estimate is conservative
        and — edges being fixed — deterministic.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, fill in enumerate(self.counts):
            cumulative += fill
            if cumulative >= target:
                return min(self.bucket_bound(index), self.max)
        return self.max

    def nonzero_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, count)`` for every non-empty bucket."""
        return [
            (self.bucket_bound(i), c)
            for i, c in enumerate(self.counts)
            if c > 0
        ]


class Series(Instrument):
    """Virtual-time-stamped samples (throttle trajectory, queue depth).

    Unlike a gauge, a series keeps its history: every ``observe`` appends
    a ``(time, value)`` sample.  Same-tick appends are legal (several
    samples can share one virtual instant); time must never go backwards.
    """

    __slots__ = ("times", "values")

    kind = "series"

    def __init__(self, name: str, labels: LabelKey) -> None:
        super().__init__(name, labels)
        self.times: list[float] = []
        self.values: list[float] = []

    def observe(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("series samples must be appended in time order")
        self.times.append(float(time))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.times)

    def mean(self) -> float:
        """Arithmetic mean of the values (0.0 if empty)."""
        return sum(self.values) / len(self.values) if self.values else 0.0


class MetricsRegistry:
    """Get-or-create store of instruments, keyed by ``(name, labels)``.

    Registering the same name with two different instrument kinds is an
    error — one name means one kind across the whole run.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelKey], Instrument] = {}
        self._kinds: dict[str, type] = {}

    def _get(self, cls: type, name: str, labels: dict) -> Instrument:
        if not name:
            raise ValueError("instrument name must be non-empty")
        known = self._kinds.get(name)
        if known is not None and known is not cls:
            raise ValueError(
                f"metric {name!r} already registered as {known.__name__}, "
                f"cannot re-register as {cls.__name__}"
            )
        key = (name, label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1])
            self._instruments[key] = instrument
            self._kinds[name] = cls
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)  # type: ignore[return-value]

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)  # type: ignore[return-value]

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)  # type: ignore[return-value]

    def series(self, name: str, **labels) -> Series:
        return self._get(Series, name, labels)  # type: ignore[return-value]

    def register(self, instrument: Instrument) -> Instrument:
        """Adopt an externally created instrument (e.g. the runtime's
        always-on latency histogram) so exporters see it."""
        known = self._kinds.get(instrument.name)
        if known is not None and known is not type(instrument):
            raise ValueError(
                f"metric {instrument.name!r} already registered as "
                f"{known.__name__}"
            )
        key = (instrument.name, instrument.labels)
        if key in self._instruments and self._instruments[key] is not instrument:
            raise ValueError(
                f"metric {instrument.name!r} with these labels already exists"
            )
        self._instruments[key] = instrument
        self._kinds[instrument.name] = type(instrument)
        return instrument

    def collect(self) -> Iterator[Instrument]:
        """All instruments in deterministic ``(name, labels)`` order."""
        for key in sorted(self._instruments):
            yield self._instruments[key]

    def get(self, name: str, **labels) -> Instrument | None:
        """Look up an instrument without creating it."""
        return self._instruments.get((name, label_key(labels)))

    def __len__(self) -> int:
        return len(self._instruments)
