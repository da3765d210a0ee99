"""Dataflow-graph runtime: the engine's one scheduler loop.

The paper runs GrubJoin as one operator *inside* a System S operator
graph — filters upstream, aggregations downstream, several queries
sharing the machine.  :class:`DataflowGraph` is that host: named nodes
wrapping operators, edges carrying one node's outputs into another's
input buffer, and a scheduler that serves all nodes from one CPU by one
rule, globally oldest buffered tuple first, so no node can indefinitely
starve another with equal load.
:class:`repro.engine.runtime.Simulation` is the same loop seen through a
one-node graph.

Edges may carry a ``transform`` turning an upstream output (e.g. a
``JoinResult``) into the ``StreamTuple`` the downstream operator expects;
pass-through is the default for outputs that already are stream tuples.
Edges may also carry a ``filter`` predicate evaluated on the *raw*
upstream output (before the transform): only outputs it accepts travel
the edge.  Filters are what makes partitioned fan-out possible — a
router node emits routed outputs once, and each router->shard edge picks
out the outputs addressed to its shard (see :mod:`repro.parallel`).

Event semantics
---------------

* ``ARRIVAL`` — a tuple reaches an input's admission filter; if admitted
  it is buffered (a full buffer drops and counts it) and idle cores are
  put to work.
* ``COMPLETION`` — an operator finishes one tuple: results it owns
  (``output_kind`` ``"join-result"`` / ``"aggregate"``) are stamped with
  the completion time (``StreamTuple`` outputs keep theirs), counted, and
  sent down each outgoing edge; the next buffered tuple begins service.
  Putting idle cores to work pushes every completion it starts except
  the last; the last runs as the very next event, without entering the
  queue, when it sorts strictly before everything queued
  (:meth:`EventQueue.precedes`) — nothing can then happen between its
  service and its end — and is pushed otherwise.  The processed
  ``(time, kind)`` sequence is the one an always-push loop gives, so on
  an idle CPU the queue only ever pops scheduled events.  The fill test
  is O(1): a core is free iff ``min(core_busy_until) <= now``, and the
  run counts its buffered tuples instead of scanning for them.
* ``ADAPT`` — every ``adaptation_interval`` (the paper's ``Delta``) each
  operator's ``on_adapt`` sees its buffers' push/pop counts, which reset.
* ``MEASURE`` — statistics sampling (queue depths, cumulative output).
* ``STOP`` — at ``duration``: pending events are discarded and every
  operator's ``on_finish`` flush (anti/outer survivors) is stamped at the
  stop time and recorded on its node — not forwarded, because nothing is
  serviced after ``STOP``.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.obs.registry import Histogram, Series, label_key
from repro.streams.tuples import StreamTuple

from .buffers import InputBuffer, OutputBuffer
from .clock import VirtualClock
from .cpu import CpuModel
from .events import EventKind, EventQueue
from .metrics import StreamCounters
from .operator import AdmissionFilter, ProcessReceipt, StreamOperator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Obs

# the loop's kinds, read once: on CPython 3.11 an ``EventKind.X``
# attribute read costs about as much as a short function call
_ADAPT, _ARRIVAL, _COMPLETION, _MEASURE = (
    EventKind.ADAPT, EventKind.ARRIVAL, EventKind.COMPLETION,
    EventKind.MEASURE,
)

#: operators that build their own result records; the host stamps those
#: with the emission time (``"tuple"`` / ``"routed"`` outputs are frozen
#: stream tuples that already carry their timestamp)
_STAMPED_KINDS = ("join-result", "aggregate")


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Run parameters.

    Attributes:
        duration: virtual seconds to simulate.  Paper default: 60.
        warmup: leading seconds excluded from rate measurement.  Paper: 20.
        adaptation_interval: the paper's ``Delta`` in seconds.
        measure_interval: sampling period for depth/output series.
        buffer_capacity: optional bound on every node's input buffers —
            ``None`` (unbounded) or an ``int`` of at least 1.
        on_operator_error: ``"raise"`` propagates operator exceptions
            (default — fail loudly during development); ``"skip"`` charges
            a minimal service, drops the poisoned tuple and keeps the
            stream flowing (production posture: one malformed tuple must
            not take the query down).
    """

    duration: float = 60.0
    warmup: float = 20.0
    adaptation_interval: float = 5.0
    measure_interval: float = 1.0
    buffer_capacity: int | None = None
    on_operator_error: str = "raise"

    def __post_init__(self) -> None:
        for name in ("duration", "warmup", "adaptation_interval",
                     "measure_interval"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not 0 <= self.warmup < self.duration:
            raise ValueError("warmup must lie in [0, duration)")
        if self.adaptation_interval <= 0:
            raise ValueError("adaptation_interval must be positive")
        if self.measure_interval <= 0:
            raise ValueError("measure_interval must be positive")
        capacity = self.buffer_capacity
        if capacity is not None and (
            isinstance(capacity, bool) or not isinstance(capacity, int)
            or capacity < 1
        ):
            raise ValueError("buffer_capacity must be None or an int >= 1")
        if self.on_operator_error not in ("raise", "skip"):
            raise ValueError("on_operator_error must be 'raise' or 'skip'")


@dataclass(slots=True)
class Edge:
    """Directed connection: source node's outputs feed a target input.

    ``filter`` (if given) sees each raw upstream output and returns True
    for the outputs this edge should carry; ``transform`` then converts
    the accepted output into the :class:`StreamTuple` the target consumes.
    """

    source: str
    target: str
    target_input: int
    transform: Callable[[Any], StreamTuple] | None = None
    filter: Callable[[Any], bool] | None = None


@dataclass
class NodeResult:
    """Per-node measurements of one graph run — what
    :class:`~repro.engine.metrics.SimulationResult` reports, per node.

    ``output_count`` spans the whole run (end-of-run flush included),
    ``output_count_warm`` only the measurement window ``output_rate``
    divides by.  ``streams`` is the per-input accounting, the series are
    sampled at measure ticks (``throttle_series`` at adaptation ticks),
    ``operator_errors`` counts tuples skipped under
    ``on_operator_error="skip"``, and ``outputs`` (raw operator outputs
    in emission order) is filled only under ``retain_outputs=True``.
    """

    name: str
    streams: list[StreamCounters]
    latency_histogram: Histogram
    queue_depth_series: list[Series]
    throttle_series: Series
    output_series: Series
    output_count: int = 0
    output_count_warm: int = 0
    output_rate: float = 0.0
    operator_errors: int = 0
    outputs: list[Any] = field(default_factory=list)

    @property
    def consumed(self) -> int:
        """Tuples the operator serviced, over all inputs."""
        return sum(s.consumed for s in self.streams)

    @property
    def mean_latency(self) -> float:
        """Mean arrival-to-completion delay of serviced tuples."""
        return self.latency_histogram.mean()

    @property
    def p95_latency(self) -> float:
        """95th-percentile delay: a conservative bucket-upper-bound
        estimate, 0.0 when nothing was serviced."""
        return self.latency_histogram.quantile(0.95)


@dataclass
class GraphResult:
    """Outcome of one :meth:`DataflowGraph.run`."""

    nodes: dict[str, NodeResult]
    cpu_utilization: float
    duration: float
    warmup: float


class _Node:
    """A registered node: an operator, its admission slots and edges."""

    def __init__(
        self,
        name: str,
        operator: StreamOperator,
        admission: Sequence[AdmissionFilter | None] | None,
    ) -> None:
        self.name = name
        self.operator = operator
        if admission is None:
            admission = [None] * operator.num_streams
        if len(admission) != operator.num_streams:
            raise ValueError(
                f"node {name!r}: one admission slot per input required"
            )
        self.admission = list(admission)
        self.edges: list[Edge] = []


class _Port:
    """One node input during one run: gate -> buffer, with its counters,
    queue-depth series and the telemetry labels they are exported under."""

    __slots__ = ("node", "gate", "buffer", "counters", "labels", "depth")

    def __init__(self, node: "_NodeRun", index: int,
                 gate: AdmissionFilter | None,
                 capacity: int | None) -> None:
        self.node = node
        self.gate = gate
        self.buffer = InputBuffer(index, capacity)
        self.counters = StreamCounters()
        self.labels = {**node.labels, "stream": index}
        self.depth = Series("queue_depth", label_key(self.labels))


class _NodeRun:
    """One node during one run: its ports, its output buffer and the
    :class:`NodeResult` the loop fills in."""

    __slots__ = (
        "operator", "labels", "ports", "edges", "output",
        "stamps", "warm_start", "result",
    )

    def __init__(self, node: _Node, config: SimulationConfig,
                 retain_outputs: bool) -> None:
        self.operator = node.operator
        # an anonymous node (the Simulation facade's) carries no label
        self.labels = {"node": node.name} if node.name else {}
        self.ports = [
            _Port(self, i, gate, config.buffer_capacity)
            for i, gate in enumerate(node.admission)
        ]
        #: ``(edge, target port)`` pairs, resolved once all nodes exist
        self.edges: list[tuple[Edge, _Port]] = []
        self.output = OutputBuffer(retain=retain_outputs)
        self.stamps = node.operator.output_kind in _STAMPED_KINDS
        self.warm_start: int | None = None
        labels = label_key(self.labels)
        self.result = NodeResult(
            name=node.name,
            streams=[port.counters for port in self.ports],
            latency_histogram=Histogram("tuple_latency_seconds", labels),
            queue_depth_series=[port.depth for port in self.ports],
            throttle_series=Series("throttle_fraction", labels),
            output_series=Series("output_count", labels),
            outputs=self.output.results,
        )

    def close(self, window: float) -> NodeResult:
        """Fill in the output totals once the run has stopped."""
        result, total = self.result, self.output.count
        result.output_count = total
        result.output_count_warm = total - (
            self.warm_start if self.warm_start is not None else total
        )
        result.output_rate = (
            result.output_count_warm / window if window > 0 else 0.0
        )
        return result


def _oldest(ports: Sequence[_Port]) -> _Port | None:
    """The non-empty port whose head tuple is oldest (first on ties)."""
    best: _Port | None = None
    best_ts = float("inf")
    for port in ports:
        queue = port.buffer._queue  # not head(): this runs once per service
        if queue and queue[0].timestamp < best_ts:
            best, best_ts = port, queue[0].timestamp
    return best


class _Run:
    """One execution of a graph: the event loop and everything it
    measures.  Built fresh by every :meth:`DataflowGraph.run`, so no
    measurement outlives (or leaks into) a run."""

    def __init__(
        self,
        nodes: Sequence[_Node],
        sources: Sequence[tuple[str, int, Any]],
        cpu: CpuModel,
        config: SimulationConfig,
        retain_outputs: bool,
        obs: "Obs | None",
    ) -> None:
        self.cpu = cpu
        self.config = config
        self.obs = obs
        self.clock = VirtualClock()
        self.events = EventQueue()
        self.nodes = {
            node.name: _NodeRun(node, config, retain_outputs)
            for node in nodes
        }
        for node in nodes:
            self.nodes[node.name].edges = [
                (edge, self.nodes[edge.target].ports[edge.target_input])
                for edge in node.edges
            ]
        self._sources = sources
        # oldest-first over the flat port list costs a one-node run
        # exactly one scan of its own buffers
        self._ports = [
            port for node in self.nodes.values() for port in node.ports
        ]
        #: tuples waiting in the input buffers, over every port: the fill
        #: loop reads this instead of scanning the buffers for them
        self._queued = 0
        if obs is not None:
            self._bind_obs(obs)

    def _bind_obs(self, obs: "Obs") -> None:
        """Wire the telemetry sink: clock, instruments, operators."""
        clock = self.clock  # the sink outlives the run: capture only this
        obs.bind_clock(lambda: clock.now)
        for node in self.nodes.values():
            obs.registry.register(node.result.latency_histogram)
            node.operator.bind_obs(obs, **node.labels)
            for port in node.ports:
                obs.registry.register(port.depth)
                if port.gate is not None:
                    port.gate.bind_obs(obs, **port.labels)

    def _publish_counts(self, obs: "Obs") -> None:
        """Export the per-input accounting once, at end of run (the
        per-tuple path touches only the :class:`StreamCounters`)."""
        for port in self._ports:
            labels, c = port.labels, port.counters
            obs.counter("stream_arrived_total", **labels).inc(c.arrived)
            obs.counter("stream_admitted_total", **labels).inc(c.admitted)
            obs.counter(
                "stream_dropped_total", reason="admission", **labels
            ).inc(c.dropped_at_admission)
            obs.counter(
                "stream_dropped_total", reason="buffer", **labels
            ).inc(c.dropped_at_buffer)

    def _known_events(self) -> Iterator[tuple[float, EventKind, Any]]:
        """Everything known before the run starts, in the order that
        fixes the ``seq`` tie-break: arrivals source by source, then the
        adaptation ticks, the measurement ticks and the stop."""
        cfg = self.config
        arrivals = []
        for name, index, source in self._sources:
            port = self.nodes[name].ports[index]
            tups = list(source.iter_tuples(cfg.duration))
            # ``t.delivery_time``, spelled out: this runs once per arrival
            times = [t.timestamp if t.delivery is None else t.delivery for t in tups]
            arrivals.append(zip(times, repeat(_ARRIVAL), zip(repeat(port), tups)))
        ticks = []
        for kind, step in ((EventKind.ADAPT, cfg.adaptation_interval),
                           (EventKind.MEASURE, cfg.measure_interval)):
            t = step
            while t <= cfg.duration:
                ticks.append((t, kind, None))
                t += step
        ticks.append((cfg.duration, EventKind.STOP, None))
        return chain(*arrivals, ticks)

    def execute(self) -> GraphResult:
        cfg = self.config
        events = self.events
        events.schedule(self._known_events())

        pop, clock, busy, duration = (
            events.pop, self.clock, self.cpu.core_busy_until, cfg.duration
        )
        # ``held`` is a completion that runs next without being queued
        # (see _fill_cores); STOP is always queued, so the loop ends on it
        held = None
        while True:
            now, kind, _, payload = held or pop()
            if now > duration:
                break
            if now < clock._now:
                clock.advance_to(now)  # raises ClockError
            clock._now = now
            held = None
            if kind is _ARRIVAL:
                # _deliver, inline: this branch runs once per tuple
                port, tup = payload
                counters = port.counters
                counters.arrived += 1
                if port.gate is not None and not port.gate.admit(tup, now):
                    counters.dropped_at_admission += 1
                    continue
                if port.buffer.push(tup):
                    counters.admitted += 1
                    self._queued += 1
                else:
                    counters.dropped_at_buffer += 1
                if min(busy) <= now:
                    held = self._fill_cores(now)
            elif kind is _COMPLETION:
                held = self._on_completion(*payload, now)
            elif kind is _ADAPT:
                self._on_adapt(now)
            elif kind is _MEASURE:
                self._on_measure(now)
            else:  # STOP
                break

        self._finish(cfg.duration)
        if self.obs is not None:
            self._publish_counts(self.obs)
        window = cfg.duration - cfg.warmup
        return GraphResult(
            nodes={n: node.close(window) for n, node in self.nodes.items()},
            cpu_utilization=self.cpu.utilization(cfg.duration),
            duration=cfg.duration,
            warmup=cfg.warmup,
        )

    def _deliver(self, port: _Port, tup: StreamTuple, now: float) -> None:
        """Offer ``tup`` to a node input (an arrival event does so inline)."""
        counters = port.counters
        counters.arrived += 1
        if port.gate is not None and not port.gate.admit(tup, now):
            counters.dropped_at_admission += 1
        elif port.buffer.push(tup):
            counters.admitted += 1
            self._queued += 1
        else:
            counters.dropped_at_buffer += 1

    def _collect(self, node: _NodeRun, outputs: list, now: float) -> None:
        """Stamp (operator-owned results only), count and retain."""
        if node.stamps:
            if hasattr(outputs, "stamp"):  # a block of lazily built results
                outputs.stamp(now)
            else:
                for result in outputs:
                    result.timestamp = now
        node.output.push_many(outputs)
        if node.warm_start is None and now >= self.config.warmup:
            node.warm_start = node.output.count - len(outputs)

    def _on_completion(self, node: _NodeRun, outputs: list,
                       probe: StreamTuple, now: float) -> tuple | None:
        node.result.latency_histogram.observe(now - probe.timestamp)
        if outputs:
            self._collect(node, outputs, now)
        for edge, target in node.edges:
            for out in outputs:
                if edge.filter is not None and not edge.filter(out):
                    continue
                tup = edge.transform(out) if edge.transform else out
                if not isinstance(tup, StreamTuple):
                    raise TypeError(
                        f"edge {edge.source!r}->{edge.target!r} delivered "
                        "a non-StreamTuple; provide a transform"
                    )
                self._deliver(target, tup, now)
        return self._fill_cores(now) if self._queued else None

    def _on_adapt(self, now: float) -> None:
        interval = self.config.adaptation_interval
        obs = self.obs
        with obs.span("adapt") if obs is not None else nullcontext():
            for node in self.nodes.values():
                stats = [p.buffer.interval_stats() for p in node.ports]
                node.operator.on_adapt(now, stats, interval)
                for port, stat in zip(node.ports, stats):
                    if port.gate is not None:
                        port.gate.on_adapt(now, stat.push_rate(interval))
                    port.buffer.reset_interval()
                throttle = getattr(node.operator, "throttle_fraction", None)
                if throttle is not None:
                    node.result.throttle_series.observe(now, throttle)

    def _on_measure(self, now: float) -> None:
        for node in self.nodes.values():
            for port in node.ports:
                port.depth.observe(now, len(port.buffer))
            node.result.output_series.observe(now, node.output.count)

    def _finish(self, now: float) -> None:
        """Collect every operator's end-of-run flush (anti/outer
        survivors): stamped and counted like completions, but with no
        service latency and no edge to travel — nothing runs after STOP."""
        for node in self.nodes.values():
            outputs = node.operator.on_finish(now)
            if outputs:
                self._collect(node, outputs, now)

    def _fill_cores(self, now: float) -> tuple | None:
        """Start services until every core is busy or the buffers drain.

        Every completion but the last one started is pushed.  The last is
        returned, to run as the very next event, when it sorts strictly
        before everything queued: nothing can then happen between its
        service and its end.  Otherwise it is pushed too and None is
        returned.  A core is free iff its ``busy_until`` is ``<= now``.
        """
        cpu, events = self.cpu, self.events
        last = None
        while self._queued and min(cpu.core_busy_until) <= now:
            if last is not None:
                events.push(last[0], _COMPLETION, last[3])
            last = self._start_service(now)
        if last is not None and not events.precedes(last[0], _COMPLETION):
            events.push(last[0], _COMPLETION, last[3])
            last = None
        return last

    def _start_service(self, now: float) -> tuple:
        """Service the oldest buffered tuple (one must be queued) and
        return its completion, shaped like a popped event: ``(done,
        COMPLETION, seq placeholder, payload)``."""
        port = _oldest(self._ports)
        tup = port.buffer.pop()
        self._queued -= 1
        port.counters.consumed += 1
        node = port.node
        try:
            receipt = node.operator.process(tup, now)
        except Exception:
            if self.config.on_operator_error == "raise":
                raise
            node.result.operator_errors += 1
            receipt = ProcessReceipt(comparisons=0, outputs=[])
        done = self.cpu.begin(now, receipt.comparisons)
        if self.obs is not None:
            self.obs.spans.record(
                "service",
                start=now,
                end=done,
                labels={**node.labels, "stream": str(tup.stream)},
                attrs={
                    "seq": tup.seq,
                    "comparisons": receipt.comparisons,
                    "outputs": len(receipt.outputs),
                },
            )
        return done, _COMPLETION, None, (node, receipt.outputs, tup)


class DataflowGraph:
    """A DAG of stream operators executed on one shared CPU."""

    def __init__(self) -> None:
        self._nodes: dict[str, _Node] = {}
        self._sources: list[tuple[str, int, Any]] = []
        self._edges: list[Edge] = []
        #: the latest run (live while it executes) — what
        #: :meth:`queue_depth` reads
        self._run: _Run | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_node(
        self,
        name: str,
        operator: StreamOperator,
        admission: Sequence[AdmissionFilter | None] | None = None,
    ) -> None:
        """Register an operator under a unique name.

        Every input buffer is bounded by the run's
        ``config.buffer_capacity``.  An empty ``name`` makes the node
        anonymous: its telemetry carries no ``node=`` label.
        """
        if name in self._nodes:
            raise ValueError(f"duplicate node name {name!r}")
        self._nodes[name] = _Node(name, operator, admission)

    def add_source(self, node: str, input_index: int, source: Any) -> None:
        """Attach an external stream source to a node input."""
        self._check_input(node, input_index)
        self._sources.append((node, input_index, source))

    def connect(
        self,
        source: str,
        target: str,
        target_input: int = 0,
        transform: Callable[[Any], StreamTuple] | None = None,
        filter: Callable[[Any], bool] | None = None,
    ) -> None:
        """Wire one node's outputs into another node's input buffer.

        ``filter`` restricts the edge to the upstream outputs it accepts
        (evaluated on the raw output, before ``transform``) — the
        building block for partitioned fan-out.
        """
        if source not in self._nodes:
            raise ValueError(f"unknown source node {source!r}")
        self._check_input(target, target_input)
        edge = Edge(source, target, target_input, transform, filter)
        self._nodes[source].edges.append(edge)
        self._edges.append(edge)

    # ------------------------------------------------------------------
    # introspection (consumed by the static plan analyzer)
    # ------------------------------------------------------------------

    def node_operators(self) -> dict[str, StreamOperator]:
        """Mapping of node name -> operator (insertion order preserved)."""
        return {name: node.operator for name, node in self._nodes.items()}

    def edge_list(self) -> list[Edge]:
        """All registered edges."""
        return list(self._edges)

    def source_list(self) -> list[tuple[str, int, Any]]:
        """All ``(node, input_index, source)`` attachments."""
        return list(self._sources)

    def node_admission(self) -> dict[str, list[AdmissionFilter | None]]:
        """Mapping of node name -> its admission slot per input."""
        return {name: list(node.admission)
                for name, node in self._nodes.items()}

    def queue_depth(self, name: str) -> int:
        """Total buffered tuples across a node's input buffers right now
        (0 before the first run; the final backlog after one)."""
        if name not in self._nodes:
            raise ValueError(f"unknown node {name!r}")
        if self._run is None:
            return 0
        return sum(len(p.buffer) for p in self._run.nodes[name].ports)

    def validate(self):
        """Run the static plan analyzer over this graph; returns a
        :class:`repro.lint.plan.PlanReport`."""
        from repro.lint.plan import analyze_graph

        return analyze_graph(self)

    def _check_input(self, node: str, input_index: int) -> None:
        if node not in self._nodes:
            raise ValueError(f"unknown node {node!r}")
        n_inputs = self._nodes[node].operator.num_streams
        if not 0 <= input_index < n_inputs:
            raise ValueError(
                f"node {node!r} has inputs 0..{n_inputs - 1}, "
                f"got {input_index}"
            )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(
        self,
        cpu: CpuModel,
        config: SimulationConfig | None = None,
        *,
        validate: bool = True,
        retain_outputs: bool = False,
        obs=None,
    ) -> GraphResult:
        """Execute the whole graph for ``config.duration`` virtual seconds.

        ``validate=True`` (the default) first runs the static plan
        analyzer and raises :class:`repro.lint.plan.PlanValidationError`
        on ERROR-level findings (cycles, missing edge transforms,
        non-divisible windows, ...) instead of failing mid-simulation.

        ``retain_outputs=True`` keeps every node's raw outputs on its
        :class:`NodeResult` so correctness harnesses can diff actual
        result sets, not just counts.

        ``obs`` (a :class:`repro.obs.Obs`) turns on instrumentation: the
        virtual clock is bound to the sink, every node's operator and
        admission filters are bound with a ``node=<name>`` label, and
        the run records ``service`` and ``adapt`` spans, per-input
        arrival/admission/drop counters, queue-depth series and the
        latency histogram.  ``None`` (default) keeps it all off.

        Every call measures from zero (buffers, counters and series
        belong to the run); operators and sources keep their state.
        """
        if validate:
            self.validate().raise_for_errors()
        self._run = _Run(
            list(self._nodes.values()), self._sources, cpu,
            config or SimulationConfig(), retain_outputs, obs,
        )
        return self._run.execute()
