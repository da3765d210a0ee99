"""The ``Obs`` facade: one handle carrying a run's whole telemetry state.

An :class:`Obs` bundles a :class:`~repro.obs.registry.MetricsRegistry`,
a :class:`~repro.obs.spans.SpanRecorder`, and the list of
:class:`~repro.obs.explainer.AdaptationExplanation` records, plus the
virtual clock they are keyed to.  It is the object the engine hooks
accept (``Simulation(..., obs=obs)``, ``DataflowGraph.run(obs=obs)``)
and the exporters consume.

Instrumentation is **off by default**: every instrumented call site
guards on ``obs is not None`` (or the cached handle it set up at bind
time), so a run without an ``Obs`` pays only a handful of attribute
checks per event — measured under 5 % of the fig-7 benchmark's runtime.
Passing an ``Obs`` turns everything on; there is no half-enabled state.
"""

from __future__ import annotations

from typing import Callable

from .explainer import AdaptationExplanation
from .registry import Counter, Gauge, Histogram, MetricsRegistry, Series
from .spans import ActiveSpan, SpanRecorder


class Obs:
    """Telemetry sink for one run.

    Args:
        max_spans: optional cap on retained spans (bounded memory for
            very long runs; excess spans are counted, not stored).

    Attributes:
        registry: the metrics registry (counters/gauges/histograms/series).
        spans: the span recorder.
        decisions: shedding-decision explanations, one per adaptation
            tick of an explained operator (GrubJoin).
        meta: run metadata the exporter writes first (seed, workload
            name, config) — caller-populated, virtual-time only.
    """

    def __init__(self, max_spans: int | None = None) -> None:
        self.registry = MetricsRegistry()
        self.spans = SpanRecorder(max_spans=max_spans)
        self.decisions: list[AdaptationExplanation] = []
        self.meta: dict = {}
        self._clock: Callable[[], float] = lambda: 0.0
        self.spans.bind_clock(self._clock)

    # -- clock ----------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Key all subsequent records to ``clock`` (the runtime binds its
        virtual clock at run start)."""
        self._clock = clock
        self.spans.bind_clock(clock)

    def now(self) -> float:
        """Current virtual time of the bound clock."""
        return self._clock()

    # -- registry shorthands -------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self.registry.histogram(name, **labels)

    def series(self, name: str, **labels) -> Series:
        return self.registry.series(name, **labels)

    # -- spans ----------------------------------------------------------

    def span(self, name: str, **labels) -> ActiveSpan:
        """Open a nested virtual-time span (context manager)."""
        return self.spans.span(name, **labels)

    # -- explainer ------------------------------------------------------

    def explain(self, explanation: AdaptationExplanation) -> None:
        """Record one adaptation tick's shedding-decision explanation."""
        self.decisions.append(explanation)
