"""The single-operator host: sources -> buffers -> operator.

One :class:`Simulation` wires stream sources through optional admission
filters (drop operators) into per-stream input buffers, services them with
a single operator on a simulated CPU, and measures the output rate — all
the paper's experiments need.  It owns no event loop: a run is a one-node
:class:`~repro.engine.graph.DataflowGraph` (see that module for the event
semantics, the end-of-run flush, result stamping and the error policy),
and :class:`SimulationResult` is a view of that node's measurements.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .buffers import OutputBuffer
from .cpu import CpuModel
from .graph import DataflowGraph, SimulationConfig
from .metrics import SimulationResult
from .operator import AdmissionFilter, StreamOperator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Obs

__all__ = ["Simulation", "SimulationConfig"]

#: the facade's node is anonymous, so its telemetry carries no ``node=``
_NODE = ""


class Simulation:
    """Drives one operator over one workload on a simulated CPU.

    Args:
        sources: one source per input stream (anything exposing
            ``iter_tuples(until)`` and a ``stream`` index — live sources
            and recorded traces both qualify).
        operator: the join operator under test.
        cpu: the simulated CPU.
        config: run parameters.
        admission: optional per-stream drop operators; ``None`` entries (or
            omitting the list) mean admit-all.
        retain_outputs: keep the actual result tuples (memory-heavy; tests
            use it, benchmarks do not).
        obs: optional :class:`repro.obs.Obs` telemetry sink, handed to
            :meth:`DataflowGraph.run` (which lists what it records); the
            facade's node is anonymous, so nothing carries a ``node=``
            label.  ``None`` (default) keeps all instrumentation off.
    """

    def __init__(
        self,
        sources: Sequence,
        operator: StreamOperator,
        cpu: CpuModel,
        config: SimulationConfig | None = None,
        admission: Sequence[AdmissionFilter | None] | None = None,
        retain_outputs: bool = False,
        obs: "Obs | None" = None,
    ) -> None:
        if len(sources) != operator.num_streams:
            raise ValueError(
                f"operator expects {operator.num_streams} streams, "
                f"got {len(sources)} sources"
            )
        if admission is not None and len(admission) != len(sources):
            raise ValueError("one admission filter slot per stream required")
        self.sources = list(sources)
        self.operator = operator
        self.cpu = cpu
        self.config = config or SimulationConfig()
        self.admission = (
            list(admission) if admission is not None else [None] * len(sources)
        )
        self.retain_outputs = retain_outputs
        self.obs = obs
        #: the operator's outputs (for tests inspecting results)
        self.output_buffer = OutputBuffer(retain=retain_outputs)
        #: tuples dropped because the operator raised on them ("skip" mode)
        self.operator_errors = 0

    def run(self) -> SimulationResult:
        """Execute the simulation and return its measurements."""
        graph = DataflowGraph()
        graph.add_node(_NODE, self.operator, admission=self.admission)
        for i, source in enumerate(self.sources):
            graph.add_source(_NODE, i, source)
        run = graph.run(
            self.cpu, self.config, validate=False,
            retain_outputs=self.retain_outputs, obs=self.obs,
        )
        node = run.nodes[_NODE]
        self.operator_errors = node.operator_errors
        self.output_buffer.results = node.outputs
        self.output_buffer.count = node.output_count
        return SimulationResult(
            duration=run.duration,
            warmup=run.warmup,
            output_count=node.output_count_warm,
            output_count_total=node.output_count,
            output_rate=node.output_rate,
            streams=node.streams,
            cpu_utilization=run.cpu_utilization,
            mean_latency=node.mean_latency,
            queue_depths=node.queue_depth_series,
            throttle_series=node.throttle_series,
            output_series=node.output_series,
            latency_histogram=node.latency_histogram,
        )
