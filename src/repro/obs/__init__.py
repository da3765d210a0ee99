"""Telemetry for the simulator: metrics, spans, explanations, exporters.

Everything is keyed to **virtual time** (lint rule R001 covers this
package: no wall clocks) and is **off by default** — a run only pays for
telemetry when an :class:`Obs` is passed to the engine hooks
(``Simulation(..., obs=obs)``, ``DataflowGraph.run(obs=obs)``).

The pieces:

* :class:`MetricsRegistry` — label-keyed counters, gauges, log2-bucket
  histograms, and time series (:mod:`repro.obs.registry`);
* :class:`SpanRecorder` — nested virtual-time spans
  (:mod:`repro.obs.spans`);
* :func:`explain_adaptation` — the shedding-decision explainer: why each
  basic window was kept or shed (:mod:`repro.obs.explainer`);
* :func:`write_jsonl` / :func:`load_recording` — the deterministic
  JSONL exporter and its inverse, which rebuilds the :class:`Obs` a log
  was written from (:mod:`repro.obs.export`); the same lines carry a
  process-parallel worker's recording back to the supervisor;
* :func:`render_report` / :func:`render_fleet` — the single-run and
  per-worker ascii views of an ``Obs``, live or loaded
  (:mod:`repro.obs.dashboard`), also via ``python -m repro.obs``.

An operator driven by hand is instrumented the way every host does it:
``op.bind_obs(obs)``.
"""

from .dashboard import render_fleet, render_report
from .explainer import (
    REASON_BUDGET,
    REASON_FRACTIONAL,
    REASON_NO_SHEDDING,
    REASON_SELECTED,
    AdaptationExplanation,
    DirectionDecision,
    WindowDecision,
    explain_adaptation,
)
from .export import (
    jsonl_lines,
    load_recording,
    parse_lines,
    worker_scoped,
    write_jsonl,
)
from .flight import FlightRecorder
from .hub import Obs
from .registry import (
    LOG2_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
)
from .spans import ActiveSpan, SpanRecord, SpanRecorder

__all__ = [
    "ActiveSpan",
    "AdaptationExplanation",
    "Counter",
    "DirectionDecision",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LOG2_BOUNDS",
    "MetricsRegistry",
    "Obs",
    "REASON_BUDGET",
    "REASON_FRACTIONAL",
    "REASON_NO_SHEDDING",
    "REASON_SELECTED",
    "Series",
    "SpanRecord",
    "SpanRecorder",
    "WindowDecision",
    "explain_adaptation",
    "jsonl_lines",
    "load_recording",
    "parse_lines",
    "render_fleet",
    "render_report",
    "worker_scoped",
    "write_jsonl",
]

