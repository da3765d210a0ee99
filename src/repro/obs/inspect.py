"""Run inspector: load a recorded JSONL event log back into structure.

The inverse of :mod:`repro.obs.export`: parses the JSONL lines into a
:class:`RunRecording` whose accessors the report renderer (and tests)
query — spans, adaptation explanations, series, and final metric values.
Works purely on the recorded file; no simulator state is needed, so a
run recorded anywhere can be inspected anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterable

from .explainer import AdaptationExplanation
from .spans import SpanRecord


@dataclass(slots=True)
class RecordedSeries:
    """One exported series: name, labels, and its (time, value) samples."""

    name: str
    labels: dict[str, str]
    times: list[float]
    values: list[float]


@dataclass(slots=True)
class RecordedHistogram:
    """One exported histogram: totals plus non-empty bucket fills."""

    name: str
    labels: dict[str, str]
    count: int
    sum: float
    min: float | None
    max: float | None
    buckets: list[tuple[float, int]]


def _key(name: str, labels: dict) -> tuple:
    return (name, tuple(sorted((str(k), str(v))
                               for k, v in labels.items())))


@dataclass
class RunRecording:
    """A parsed JSONL run recording."""

    meta: dict = field(default_factory=dict)
    spans: list[SpanRecord] = field(default_factory=list)
    adaptations: list[AdaptationExplanation] = field(default_factory=list)
    series: dict[tuple, RecordedSeries] = field(default_factory=dict)
    counters: dict[tuple, float] = field(default_factory=dict)
    gauges: dict[tuple, float] = field(default_factory=dict)
    histograms: dict[tuple, RecordedHistogram] = field(default_factory=dict)
    spans_dropped: int = 0

    # -- lookups --------------------------------------------------------

    def get_series(self, name: str, **labels) -> RecordedSeries | None:
        return self.series.get(_key(name, labels))

    def counter(self, name: str, **labels) -> float:
        return self.counters.get(_key(name, labels), 0)

    def counters_named(self, name: str) -> list[tuple[dict, float]]:
        """``(labels, value)`` for every counter with the given name."""
        return [
            (dict(k[1]), v)
            for k, v in sorted(self.counters.items())
            if k[0] == name
        ]

    def gauge(self, name: str, **labels) -> float | None:
        return self.gauges.get(_key(name, labels))

    def get_histogram(self, name: str, **labels) -> RecordedHistogram | None:
        return self.histograms.get(_key(name, labels))

    def spans_named(self, name: str) -> list[SpanRecord]:
        return [s for s in self.spans if s.name == name]

    def top_spans(self, name: str, attr: str, k: int = 10) -> list[SpanRecord]:
        """Top-``k`` spans by an attribute, deterministic tie-break."""
        candidates = [s for s in self.spans if s.name == name]
        candidates.sort(
            key=lambda s: (-float(s.attrs.get(attr, 0)), s.start, s.span_id)
        )
        return candidates[:k]


def parse_lines(lines: Iterable[str]) -> RunRecording:
    """Parse JSONL lines (strings, with or without newlines)."""
    rec = RunRecording()
    for raw in lines:
        raw = raw.strip()
        if not raw:
            continue
        data = json.loads(raw)
        kind = data.get("type")
        if kind == "meta":
            rec.meta = {k: v for k, v in data.items() if k != "type"}
        elif kind == "span":
            rec.spans.append(SpanRecord(
                span_id=data["id"],
                parent_id=data["parent"],
                name=data["name"],
                start=data["start"],
                end=data["end"],
                labels=data.get("labels", {}),
                attrs=data.get("attrs", {}),
            ))
        elif kind == "spans-dropped":
            rec.spans_dropped = data["count"]
        elif kind == "adaptation":
            rec.adaptations.append(AdaptationExplanation.from_dict(data))
        elif kind == "series":
            series = RecordedSeries(
                name=data["name"],
                labels=data.get("labels", {}),
                times=[s[0] for s in data["samples"]],
                values=[s[1] for s in data["samples"]],
            )
            rec.series[_key(series.name, series.labels)] = series
        elif kind == "counter":
            rec.counters[_key(data["name"], data.get("labels", {}))] = (
                data["value"]
            )
        elif kind == "gauge":
            rec.gauges[_key(data["name"], data.get("labels", {}))] = (
                data["value"]
            )
        elif kind == "histogram":
            hist = RecordedHistogram(
                name=data["name"],
                labels=data.get("labels", {}),
                count=data["count"],
                sum=data["sum"],
                min=data.get("min"),
                max=data.get("max"),
                buckets=[
                    (float("inf") if b == "+Inf" else float(b), int(c))
                    for b, c in data.get("buckets", [])
                ],
            )
            rec.histograms[_key(hist.name, hist.labels)] = hist
        else:
            raise ValueError(f"unknown record type {kind!r}")
    return rec


def load_recording(source: str | IO[str]) -> RunRecording:
    """Load a recording from a JSONL path or text file object."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return parse_lines(fh)
    return parse_lines(source)
