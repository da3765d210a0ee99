"""The JSONL event-log format: the exporter and its inverse, the loader.

It is **deterministic**: keys are sorted, floats are emitted with
Python's shortest-roundtrip ``repr`` (stable across platforms), numpy
scalars are converted to plain Python numbers, and collections are
ordered by ``(name, labels)``.  Re-running a seeded workload produces a
byte-identical JSONL file — the CI golden test depends on it.

JSONL layout (one JSON object per line)::

    {"type": "meta", ...}                       # run metadata, first line
    {"type": "span", "id": 1, "name": ...}      # spans, record order
    {"type": "adaptation", "time": ...}         # explainer, tick order
    {"type": "series", "name": ..., "samples": [[t, v], ...]}
    {"type": "counter" | "gauge" | "histogram", "name": ..., ...}

:func:`load_recording` reads such a log back into an :class:`Obs`
through the registry's own calls, so a recorded run is inspected with
the same renderers as a live one, and re-exporting it reproduces the
file byte for byte.  A loaded ``Obs``'s clock reads 0.

The format is also the process-parallel runtime's wire format for
telemetry: each worker ships its whole recording as these lines with
its parting "bye", and :func:`merge_workers` folds the parsed
recordings into the run's ``Obs``.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import IO, Iterable, Iterator

from .explainer import AdaptationExplanation
from .hub import Obs
from .registry import Counter, Gauge, Histogram, Series
from .spans import SpanRecord


def jsonable(value):
    """Recursively convert numpy scalars/arrays to plain Python values."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "tolist"):  # numpy array
        return jsonable(value.tolist())
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def _dumps(obj: dict) -> str:
    return json.dumps(jsonable(obj), sort_keys=True,
                      separators=(",", ":"))


def worker_scoped(record: dict) -> bool:
    """Export filter keeping only worker-provenance records (plus meta).

    A process-parallel run's :class:`Obs` holds two clock domains: the
    *worker-side* telemetry folded in by :func:`merge_workers`
    (virtual-time, deterministic — every record carries a ``worker``
    label or field) and the *supervisor-side* transport families
    (wall-relative, load-dependent).  The
    aggregated-golden CI slice exports through this filter so only the
    deterministic domain is diffed.
    """
    kind = record.get("type")
    if kind == "meta":
        return True
    if kind == "adaptation":
        return record.get("worker") is not None
    return "worker" in record.get("labels", {})


def jsonl_lines(obs: Obs, select=None) -> Iterator[str]:
    """The run's JSONL event log, line by line (no trailing newlines).

    ``select`` optionally filters records: a predicate over the plain
    record dict (before serialization), e.g. :func:`worker_scoped`.
    """

    def emit(record: dict) -> Iterator[str]:
        if select is None or select(record):
            yield _dumps(record)

    yield from emit({"type": "meta", **obs.meta})
    for record in obs.spans.records:
        yield from emit({
            "type": "span",
            "id": record.span_id,
            "parent": record.parent_id,
            "name": record.name,
            "start": record.start,
            "end": record.end,
            "labels": record.labels,
            "attrs": record.attrs,
        })
    if obs.spans.dropped:
        yield from emit(
            {"type": "spans-dropped", "count": obs.spans.dropped}
        )
    for explanation in obs.decisions:
        yield from emit({"type": "adaptation", **explanation.to_dict()})
    for instrument in obs.registry.collect():
        if isinstance(instrument, Series):
            yield from emit({
                "type": "series",
                "name": instrument.name,
                "labels": instrument.label_dict(),
                "samples": [
                    [t, v]
                    for t, v in zip(instrument.times, instrument.values)
                ],
            })
    for instrument in obs.registry.collect():
        if isinstance(instrument, Counter):
            yield from emit({
                "type": "counter",
                "name": instrument.name,
                "labels": instrument.label_dict(),
                "value": instrument.value,
            })
        elif isinstance(instrument, Gauge):
            yield from emit({
                "type": "gauge",
                "name": instrument.name,
                "labels": instrument.label_dict(),
                "value": instrument.value,
            })
        elif isinstance(instrument, Histogram):
            yield from emit({
                "type": "histogram",
                "name": instrument.name,
                "labels": instrument.label_dict(),
                "count": instrument.count,
                "sum": instrument.sum,
                "min": instrument.min if instrument.count else None,
                "max": instrument.max if instrument.count else None,
                "buckets": [
                    ["+Inf" if bound == float("inf") else bound, fill]
                    for bound, fill in instrument.nonzero_buckets()
                ],
            })


def write_jsonl(obs: Obs, target: str | IO[str], select=None) -> int:
    """Write the JSONL event log to a path or text file object.

    ``select`` filters records as in :func:`jsonl_lines`.  Returns the
    number of lines written.
    """
    lines = 0
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            for line in jsonl_lines(obs, select=select):
                fh.write(line + "\n")
                lines += 1
    else:
        for line in jsonl_lines(obs, select=select):
            target.write(line + "\n")
            lines += 1
    return lines


def parse_lines(lines: Iterable[str]) -> Obs:
    """Rebuild the :class:`Obs` a JSONL log was exported from (lines
    with or without newlines; an unknown record type is an error)."""
    obs = Obs()
    for raw in lines:
        if not raw.strip():
            continue
        data = json.loads(raw)
        kind = data.pop("type", None)
        labels = data.get("labels", {})
        if kind == "meta":
            obs.meta = data
        elif kind == "span":
            obs.spans.records.append(SpanRecord(
                data["id"], data["parent"], data["name"], data["start"],
                data["end"], labels, data.get("attrs", {}),
            ))
        elif kind == "spans-dropped":
            obs.spans.dropped = data["count"]
        elif kind == "adaptation":
            obs.decisions.append(AdaptationExplanation.from_dict(data))
        elif kind == "series":
            series = obs.series(data["name"], **labels)
            for time, value in data["samples"]:
                series.observe(time, value)
        elif kind == "counter":
            obs.counter(data["name"], **labels).inc(data["value"])
        elif kind == "gauge":
            obs.gauge(data["name"], **labels).set(data["value"])
        elif kind == "histogram":
            lo, hi = data.get("min"), data.get("max")
            obs.histogram(data["name"], **labels).merge(
                # float("+Inf") is inf: the overflow slot's bound
                [(Histogram.bucket_index(float(bound)), fill)
                 for bound, fill in data.get("buckets", [])],
                data["count"], data["sum"],
                float("inf") if lo is None else lo,
                float("-inf") if hi is None else hi,
            )
        else:
            raise ValueError(f"unknown record type {kind!r}")
    return obs


def merge_workers(obs: Obs, workers: dict[int, Obs]) -> None:
    """Fold each worker's recording into ``obs``, in sorted worker order.

    Every record gains ``worker=<id>`` provenance: a label on instruments
    and spans (whose ids are reassigned, parents kept), the ``worker``
    field on decisions; a worker's meta goes under ``worker_meta``.
    Instruments that never moved — a zero counter, an empty histogram
    or series — are not registered.  Histograms merge bucket-wise over
    the shared log2 edges, so the merge is exact, and the sorted order
    makes the export independent of which worker finished first.
    """
    for worker in sorted(workers):
        source, wid = workers[worker], str(worker)
        for instrument in source.registry.collect():
            name, labels = instrument.name, instrument.label_dict()
            if isinstance(instrument, Counter):
                if instrument.value:
                    obs.counter(name, worker=wid, **labels).inc(
                        instrument.value
                    )
            elif isinstance(instrument, Gauge):
                obs.gauge(name, worker=wid, **labels).set(instrument.value)
            elif isinstance(instrument, Histogram):
                if instrument.count:
                    obs.histogram(name, worker=wid, **labels).merge(
                        [(i, fill) for i, fill in enumerate(instrument.counts)
                         if fill],
                        instrument.count, instrument.sum,
                        instrument.min, instrument.max,
                    )
            elif instrument.times:  # a series with samples
                series = obs.series(name, worker=wid, **labels)
                for time, value in zip(instrument.times, instrument.values):
                    series.observe(time, value)
        obs.spans.extend_remapped(source.spans.records, {"worker": wid})
        obs.spans.dropped += source.spans.dropped
        obs.decisions.extend(
            replace(decision, worker=worker) for decision in source.decisions
        )
        if source.meta:
            obs.meta.setdefault("worker_meta", {})[wid] = source.meta


def load_recording(source: str | IO[str]) -> Obs:
    """Load a JSONL log from a path or text file object (see
    :func:`parse_lines`)."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return parse_lines(fh)
    return parse_lines(source)
