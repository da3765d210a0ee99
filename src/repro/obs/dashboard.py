"""ASCII dashboard: render a run's telemetry in a terminal.

Built on :mod:`repro.analysis.ascii_plots` (sparklines / bar charts, no
plotting dependencies).  Both views take an :class:`~repro.obs.hub.Obs`,
live or loaded from a recording
(:func:`~repro.obs.export.load_recording`):

* :func:`render_report` — the single-run report (what ``python -m
  repro.obs report`` prints);
* :func:`render_fleet` — the per-worker view of a process-parallel run.

All output is deterministic: sections sort by name/labels and the top-k
selections tie-break on ``(start, span_id)``.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.ascii_plots import bar_chart, series_plot

from .explainer import AdaptationExplanation
from .hub import Obs
from .registry import Histogram, Instrument, Series, label_key
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


def _matching(obs: Obs, name: str, **labels) -> list[Instrument]:
    """Every instrument named ``name`` whose labels include ``labels``,
    in ``(name, labels)`` order."""
    wanted = set(label_key(labels))
    return [i for i in obs.registry.collect()
            if i.name == name and wanted <= set(i.labels)]


def _counter_sum(obs: Obs, name: str, **labels) -> float:
    return sum(c.value for c in _matching(obs, name, **labels))


def render_report(obs: Obs, top: int = 5) -> str:
    """The single-run report over a live or loaded ``Obs``
    (deterministic)."""
    lines: list[str] = []
    meta = dict(obs.meta)
    workload = meta.pop("workload", "run")
    lines.append(f"== obs report: {workload} ==")
    if meta:
        lines.append("  " + "  ".join(
            f"{k}={meta[k]}" for k in sorted(meta)
        ))
    spans = obs.spans
    lines.append(
        f"  spans={len(spans)} (service={len(spans.named('service'))}"
        + (f", dropped={spans.dropped}" if spans.dropped else "")
        + f")  adaptations={len(obs.decisions)}"
    )

    # the throttle series carries operator labels (mode, window_policy);
    # one run hosts one throttled join
    z = next((s for s in _matching(obs, "throttle_z") if s.times), None)
    if z is not None:
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
        lines.append(_section("latency", (
            f"  tuple latency (s): n={latency.count} "
            f"mean={latency.mean():.6g} "
            f"p95≤{latency.quantile(0.95):.6g} max={latency.max:g}"
        )))

    rows = []
    for arrived in _matching(obs, "stream_arrived_total"):
        # drops are labelled {reason, stream}: sum over the reasons
        labels = arrived.label_dict()
        admitted = _counter_sum(obs, "stream_admitted_total", **labels)
        dropped = _counter_sum(obs, "stream_dropped_total", **labels)
        rows.append(f"  stream {labels.get('stream', '?')}: "
                    f"arrived={arrived.value:g} admitted={admitted:g} "
                    f"dropped={dropped:g}")
    if rows:
        lines.append(_section("per-stream accounting", "\n".join(rows)))
    return "\n".join(lines)


def render_fleet(obs: Obs) -> str:
    """Fleet view of a process-parallel run: one timeline, per worker.

    Works over a finished run's supervisor ``Obs`` (``python -m
    repro.obs record --procs K --dashboard``) or over a loaded
    recording (``python -m repro.obs report --fleet``).  Shows, per
    worker: routed/merged totals, shipped comparison counts, and the
    latest harvest fractions ``z[i,j]`` as heat cells; below, each
    worker's harvest heat map.  Deterministic (sections sort by worker
    id).
    """
    workers: set[str] = set()
    elapsed = obs.now()
    for instrument in obs.registry.collect():
        if isinstance(instrument, Histogram):
            continue
        labels = instrument.label_dict()
        if instrument.name == "merger_merged_total" and "shard" in labels:
            workers.add(labels["shard"])
        if "worker" in labels:
            workers.add(labels["worker"])
        if isinstance(instrument, Series) and instrument.times:
            elapsed = max(elapsed, instrument.times[-1])

    lines: list[str] = []
    workload = obs.meta.get("workload", "run")
    merged_total = _counter_sum(obs, "merger_merged_total")
    header = f"== fleet dashboard: {workload} (t={elapsed:g}s"
    if elapsed > 0.0:
        header += f", merged={merged_total:g}" \
                  f" ~{merged_total / elapsed:.1f}/s"
    lines.append(header + ") ==")

    rows = []
    for wid in sorted(workers, key=lambda w: (len(w), w)):
        routed = _counter_sum(obs, "router_routed_total", shard=wid)
        merged = _counter_sum(obs, "merger_merged_total", shard=wid)
        comparisons = _counter_sum(
            obs, "direction_comparisons_total", worker=wid
        )
        row = (f"  worker {wid}  routed={routed:g} merged={merged:g} "
               f"comparisons={comparisons:g}")
        z_cells = sorted(
            (g.label_dict().get("direction", "?"),
             g.label_dict().get("hop", "?"), g.value)
            for g in _matching(obs, "harvest_fraction", worker=wid)
        )
        if z_cells:
            row += "  z=" + "".join(heat_char(v) for _d, _h, v in z_cells)
        rows.append(row)
    lines.append(_section(
        "workers", "\n".join(rows) if rows else "  (no workers yet)"
    ))

    worker_decisions = [d for d in obs.decisions if d.worker is not None]
    for wid in sorted({d.worker for d in worker_decisions}):
        lines.append(_section(
            f"harvest heat map (worker {wid})",
            harvest_heatmap(
                [d for d in worker_decisions if d.worker == wid]
            ),
        ))
    return "\n".join(lines)
