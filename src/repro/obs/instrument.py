"""Operator-level instrumentation: wrap any operator with an ``Obs``.

:class:`ObservedOperator` records one ``service`` span per
serviced tuple and one ``adapt`` span per adaptation tick, into a shared
:class:`~repro.obs.hub.Obs`.  Use it when the operator is driven outside
the runtime (unit tests poking :meth:`process` directly) or when only
one operator of a larger graph should be traced.

When the whole run is instrumented, prefer ``Simulation(..., obs=obs)``
instead: the runtime records service spans with their *true* busy
durations (service start to completion on the simulated CPU), which a
wrapper cannot see — and do not combine both on the same ``Obs`` or
service spans are recorded twice.

This module imports :mod:`repro.engine` and is therefore exported
lazily by ``repro.obs`` (module ``__getattr__``) so the engine can in
turn import the obs core without a cycle.
"""

from __future__ import annotations

from repro.engine.buffers import BufferStats
from repro.engine.operator import ProcessReceipt, StreamOperator
from repro.streams.tuples import JoinResult, StreamTuple

from .hub import Obs


class ObservedOperator(StreamOperator):
    """Wraps an operator, recording its events into an ``Obs``.

    Drop-in: ``Simulation(sources, ObservedOperator(op, obs), ...)``.

    Args:
        operator: the operator to observe.
        obs: the telemetry sink; a fresh one is created when omitted.
        labels: extra labels stamped on every span this wrapper records
            (e.g. ``node="join"`` in a multi-operator graph).
    """

    def __init__(self, operator: StreamOperator, obs: Obs | None = None,
                 **labels: str) -> None:
        self.inner = operator
        self.obs = obs if obs is not None else Obs()
        self.labels = {k: str(v) for k, v in labels.items()}
        self.num_streams = operator.num_streams
        self.output_kind = operator.output_kind
        bind = getattr(operator, "bind_obs", None)
        if bind is not None:
            bind(self.obs, **labels)

    @property
    def throttle_fraction(self) -> float | None:
        """Forwarded so the runtime's throttle series keeps working."""
        return getattr(self.inner, "throttle_fraction", None)

    def process(self, tup: StreamTuple, now: float) -> ProcessReceipt:
        receipt = self.inner.process(tup, now)
        self.obs.spans.record(
            "service",
            start=now,
            end=now,
            labels={**self.labels, "stream": str(tup.stream)},
            attrs={
                "seq": tup.seq,
                "timestamp": tup.timestamp,
                "comparisons": receipt.comparisons,
                "outputs": len(receipt.outputs),
            },
        )
        return receipt

    def on_adapt(self, now: float, stats: list[BufferStats],
                 interval: float) -> None:
        self.inner.on_adapt(now, stats, interval)
        attrs = {
            "pushed": [s.pushed for s in stats],
            "popped": [s.popped for s in stats],
        }
        throttle = self.throttle_fraction
        if throttle is not None:
            attrs["throttle"] = throttle
        self.obs.spans.record(
            "adapt", start=now, end=now, labels=dict(self.labels),
            attrs=attrs,
        )

    def on_finish(self, now: float) -> list[JoinResult]:
        """Forward the end-of-run flush (anti/outer survivors)."""
        return self.inner.on_finish(now)

    def testkit_profile(self) -> dict:
        """The wrapped operator's join semantics, for the oracle."""
        return self.inner.testkit_profile()

    def describe(self) -> str:
        return f"Observed({self.inner.describe()})"

    # -- convenience views over the recorded spans ----------------------

    def service_spans(self):
        """All recorded ``service`` spans, in record order."""
        return self.obs.spans.named("service")

    def total_comparisons(self) -> int:
        """Work units across all recorded services."""
        return sum(
            int(s.attrs.get("comparisons", 0)) for s in self.service_spans()
        )

    def busiest_services(self, n: int = 10):
        """The ``n`` most expensive service spans (deterministic order)."""
        return self.obs.spans.top_by_attr("service", "comparisons", n)
