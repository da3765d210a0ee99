"""ASCII dashboard: render a run's telemetry in a terminal.

Built on :mod:`repro.analysis.ascii_plots` (sparklines / bar charts, no
plotting dependencies).  Two entry points share the same sections:

* :func:`render_dashboard` — a *live* view over an in-flight or
  just-finished :class:`~repro.obs.hub.Obs` (examples print it between
  runs);
* :func:`render_report` — the replay view over a recorded
  :class:`~repro.obs.inspect.RunRecording` (what ``python -m repro.obs
  report`` prints).

All output is deterministic: sections sort by name/labels and the top-k
selections tie-break on ``(start, span_id)``.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.ascii_plots import bar_chart, series_plot, sparkline

from .explainer import AdaptationExplanation
from .hub import Obs
from .inspect import RunRecording
from .registry import Counter, Gauge, Histogram, Series
from .spans import SpanRecord

#: heat levels for harvest fractions 0.0 .. 1.0 (space = fully shed)
HEAT_LEVELS = " ▁▂▃▄▅▆▇█"


def heat_char(fraction: float) -> str:
    """One heat-map character for a fraction in [0, 1]."""
    fraction = min(max(float(fraction), 0.0), 1.0)
    return HEAT_LEVELS[int(round(fraction * (len(HEAT_LEVELS) - 1)))]


def harvest_heatmap(adaptations: Sequence[AdaptationExplanation],
                    max_ticks: int = 60) -> str:
    """Per-direction harvest heat map over adaptation ticks.

    One row per ``(direction, hop)`` pair — labelled ``z[i,j]`` — one
    column per adaptation tick (the trailing ``max_ticks`` when longer),
    each cell shading the harvest fraction ``z_{i,j}`` at that tick.
    """
    if not adaptations:
        return "(no adaptation records)"
    ticks = list(adaptations)[-max_ticks:]
    pairs = [(d.direction, d.hop) for d in ticks[0].directions]
    lines = [
        "harvest fractions z[i,j] per adaptation tick "
        f"(t={ticks[0].time:g}s..{ticks[-1].time:g}s, "
        f"▁=shed █=full)"
    ]
    for i, j in pairs:
        cells = []
        for tick in ticks:
            try:
                cells.append(heat_char(tick.decision(i, j).fraction))
            except KeyError:
                cells.append("?")
        lines.append(f"  z[{i},{j}]  {''.join(cells)}")
    return "\n".join(lines)


def _span_label(span: SpanRecord) -> str:
    labels = ",".join(
        f"{k}={v}" for k, v in sorted(span.labels.items())
    )
    return f"t={span.start:.2f}s {labels}" if labels else f"t={span.start:.2f}s"


def top_services(spans: Sequence[SpanRecord], k: int = 5,
                 attr: str = "comparisons") -> str:
    """Bar chart of the ``k`` most expensive service spans."""
    if not spans:
        return "(no service spans)"
    top = list(spans)[:k]
    return bar_chart(
        [_span_label(s) for s in top],
        [float(s.attrs.get(attr, 0)) for s in top],
        width=30,
        unit=f" {attr}",
    )


def _section(title: str, body: str) -> str:
    return f"-- {title} --\n{body}"


def _histogram_summary(count: int, total: float, hi: float | None,
                       p95: float, label: str) -> str:
    mean = total / count if count else 0.0
    top = f"{hi:g}" if hi is not None else "n/a"
    return (f"{label}: n={count} mean={mean:.6g} "
            f"p95≤{p95:.6g} max={top}")


def _recorded_p95(buckets: list[tuple[float, int]], count: int,
                  hi: float | None) -> float:
    if not count:
        return 0.0
    target = 0.95 * count
    cumulative = 0
    for bound, fill in buckets:
        cumulative += fill
        if cumulative >= target:
            return min(bound, hi) if hi is not None else bound
    return hi if hi is not None else 0.0


def render_report(rec: RunRecording, top: int = 5) -> str:
    """The replay report over a recorded run (deterministic)."""
    lines: list[str] = []
    meta = dict(rec.meta)
    workload = meta.pop("workload", "run")
    header = f"== obs report: {workload} =="
    lines.append(header)
    if meta:
        lines.append("  " + "  ".join(
            f"{k}={meta[k]}" for k in sorted(meta)
        ))
    service_spans = rec.spans_named("service")
    lines.append(
        f"  spans={len(rec.spans)} (service={len(service_spans)}"
        + (f", dropped={rec.spans_dropped}" if rec.spans_dropped else "")
        + f")  adaptations={len(rec.adaptations)}"
    )

    z = rec.get_series("throttle_z")
    if z is not None and z.times:
        lines.append(_section(
            "throttle trajectory",
            series_plot(z.times, z.values, label="  z"),
        ))
    lines.append(_section("harvest heat map",
                          harvest_heatmap(rec.adaptations)))
    lines.append(_section(
        f"top-{top} expensive services",
        top_services(rec.top_spans("service", "comparisons", top), top),
    ))

    latency = rec.get_histogram("tuple_latency_seconds")
    if latency is not None:
        lines.append(_section("latency", _histogram_summary(
            latency.count, latency.sum, latency.max,
            _recorded_p95(latency.buckets, latency.count, latency.max),
            "  tuple latency (s)",
        )))

    accounting = rec.counters_named("stream_arrived_total")
    if accounting:
        rows = []
        for labels, arrived in accounting:
            stream = labels.get("stream", "?")
            admitted = rec.counter("stream_admitted_total", stream=stream)
            dropped = rec.counter("stream_dropped_total", stream=stream)
            rows.append(f"  stream {stream}: arrived={arrived:g} "
                        f"admitted={admitted:g} dropped={dropped:g}")
        lines.append(_section("per-stream accounting", "\n".join(rows)))
    return "\n".join(lines)


def _fleet_instruments(source: Obs | RunRecording):
    """Normalize an ``Obs`` or a ``RunRecording`` into flat instrument
    lists ``(counters, gauges, series)`` of ``(name, labels, ...)``
    tuples, each sorted by ``(name, labels)``."""
    if isinstance(source, RunRecording):
        counters = [
            (k[0], dict(k[1]), v)
            for k, v in sorted(source.counters.items())
        ]
        gauges = [
            (k[0], dict(k[1]), v)
            for k, v in sorted(source.gauges.items())
        ]
        series = [
            (k[0], dict(k[1]), s.times, s.values)
            for k, s in sorted(source.series.items())
        ]
        return counters, gauges, series
    counters, gauges, series = [], [], []
    for instrument in source.registry.collect():  # already sorted
        labels = instrument.label_dict()
        if isinstance(instrument, Counter):
            counters.append((instrument.name, labels, instrument.value))
        elif isinstance(instrument, Gauge):
            gauges.append((instrument.name, labels, instrument.value))
        elif isinstance(instrument, Series):
            series.append((instrument.name, labels,
                           instrument.times, instrument.values))
    return counters, gauges, series


def render_fleet(source: Obs | RunRecording, width: int = 24) -> str:
    """Fleet view of a process-parallel run: one timeline, per worker.

    Works over the live supervisor ``Obs`` (the procs runtime calls
    this on every control tick when a ``dashboard=`` sink is given) or
    over a loaded recording (``python -m repro.obs report --fleet``).
    Shows, per worker: routed/merged totals, the backlog trajectory as
    a sparkline, shipped comparison counts, and the latest harvest
    fractions ``z[i,j]`` as heat cells; below, each worker's harvest
    heat map.  Deterministic for a finalized recording (sections sort
    by worker id).
    """
    counters, gauges, series = _fleet_instruments(source)
    decisions = (
        source.adaptations
        if isinstance(source, RunRecording)
        else source.decisions
    )

    def counter_sum(name: str, **match) -> float:
        return sum(
            v for n, labels, v in counters
            if n == name and all(
                labels.get(k) == val for k, val in match.items()
            )
        )

    workers: set[str] = set()
    for n, labels, _v in counters:
        if n == "merger_merged_total" and "shard" in labels:
            workers.add(labels["shard"])
        if "worker" in labels:
            workers.add(labels["worker"])
    for row in list(gauges) + [(n, l, None) for n, l, _t, _v in series]:
        if "worker" in row[1]:
            workers.add(row[1]["worker"])

    lines: list[str] = []
    workload = source.meta.get("workload", "run")
    elapsed = 0.0
    for _n, _labels, times, _values in series:
        if times:
            elapsed = max(elapsed, times[-1])
    if not isinstance(source, RunRecording):
        elapsed = max(elapsed, source.now())
    merged_total = counter_sum("merger_merged_total")
    header = f"== fleet dashboard: {workload} (t={elapsed:g}s"
    if elapsed > 0.0:
        header += f", merged={merged_total:g}" \
                  f" ~{merged_total / elapsed:.1f}/s"
    lines.append(header + ") ==")

    rows = []
    for wid in sorted(workers, key=lambda w: (len(w), w)):
        routed = counter_sum("router_routed_total", shard=wid)
        merged = counter_sum("merger_merged_total", shard=wid)
        comparisons = counter_sum(
            "direction_comparisons_total", worker=wid
        )
        backlog = next(
            ((times, values) for n, labels, times, values in series
             if n == "autoscaler_backlog"
             and labels.get("worker") == wid and times),
            None,
        )
        row = (f"  worker {wid}  routed={routed:g} merged={merged:g} "
               f"comparisons={comparisons:g}")
        if backlog is not None:
            tail = backlog[1][-width:]
            row += (f"  backlog {sparkline(tail)} "
                    f"(last={backlog[1][-1]:g})")
        z_cells = sorted(
            ((labels.get("direction", "?"), labels.get("hop", "?"), v)
             for n, labels, v in gauges
             if n == "harvest_fraction" and labels.get("worker") == wid),
        )
        if z_cells:
            row += "  z=" + "".join(heat_char(v) for _d, _h, v in z_cells)
        rows.append(row)
    lines.append(_section(
        "workers", "\n".join(rows) if rows else "  (no workers yet)"
    ))

    worker_decisions = [d for d in decisions if d.worker is not None]
    for wid in sorted({d.worker for d in worker_decisions}):
        lines.append(_section(
            f"harvest heat map (worker {wid})",
            harvest_heatmap(
                [d for d in worker_decisions if d.worker == wid]
            ),
        ))
    return "\n".join(lines)


def render_dashboard(obs: Obs, top: int = 5) -> str:
    """Live view over an :class:`Obs` (same sections as the report)."""
    lines: list[str] = []
    workload = obs.meta.get("workload", "run")
    lines.append(f"== obs dashboard: {workload} (t={obs.now():g}s) ==")
    lines.append(
        f"  spans={len(obs.spans)}  adaptations={len(obs.decisions)}  "
        f"metrics={len(obs.registry)}"
    )
    # the throttle series carries operator labels (mode, window_policy),
    # so match by name alone — one simulation hosts one throttled join
    z = next(
        (i for i in obs.registry.collect() if i.name == "throttle_z"),
        None,
    )
    if isinstance(z, Series) and z.times:
        lines.append(_section(
            "throttle trajectory",
            series_plot(z.times, z.values, label="  z"),
        ))
    lines.append(_section("harvest heat map",
                          harvest_heatmap(obs.decisions)))
    lines.append(_section(
        f"top-{top} expensive services",
        top_services(obs.spans.top_by_attr("service", "comparisons", top),
                     top),
    ))
    latency = obs.registry.get("tuple_latency_seconds")
    if isinstance(latency, Histogram) and latency.count:
        lines.append(_section("latency", _histogram_summary(
            latency.count, latency.sum, latency.max,
            latency.quantile(0.95), "  tuple latency (s)",
        )))
    return "\n".join(lines)
