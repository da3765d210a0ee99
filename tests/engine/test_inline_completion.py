"""A service completion that nothing can precede runs without the queue.

When a fill of the cores ends, ``_Run`` runs the last completion it
started as the very next event, with no push and no pop, if
``EventQueue.precedes`` says it sorts strictly before everything queued.
The reference for every check here is the same loop with that query
patched to answer False, so that every completion is pushed and popped:
the two must process the same ``(time, kind)`` sequence and measure the
same numbers, bit for bit.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    AdmissionFilter,
    CpuModel,
    DataflowGraph,
    EventKind,
    EventQueue,
    ProcessReceipt,
    SimulationConfig,
    StreamOperator,
)
from repro.engine.graph import _Run
from repro.streams import JoinResult, StreamTuple, TraceSource

#: arrival times and aligned service times are multiples of this, exact
#: in binary, so completions can tie with arrivals and ticks
GRID = 0.125
DURATION = 4.0


class Echo(StreamOperator):
    """Emits each tuple (or a one-tuple ``JoinResult``) at a fixed cost;
    with ``fail_every`` set, every ``fail_every``-th service raises."""

    def __init__(self, num_streams=1, cost=0, join_result=False,
                 fail_every=0):
        self.num_streams = num_streams
        self.cost = cost
        self.output_kind = "join-result" if join_result else "tuple"
        self.fail_every = fail_every
        self.serviced = 0
        self.throttle_fraction = 1.0

    def process(self, tup, now):
        self.serviced += 1
        if self.fail_every and self.serviced % self.fail_every == 0:
            raise ValueError("poisoned tuple")
        out = JoinResult((tup,)) if self.output_kind == "join-result" else tup
        return ProcessReceipt(comparisons=self.cost, outputs=[out])

    def on_adapt(self, now, stats, interval):
        # state that depends on what the buffers saw, so a reordered
        # adaptation tick would show in the throttle series
        seen = sum(s.pushed + s.popped + s.depth for s in stats)
        self.throttle_fraction = 1.0 / (1.0 + seen)


class EveryOther(AdmissionFilter):
    """Refuses every second tuple offered to it."""

    def __init__(self):
        self.offered = 0

    def admit(self, tup, now):
        self.offered += 1
        return self.offered % 2 == 1


def _seq(out):
    return out.constituents[0].seq if isinstance(out, JoinResult) else out.seq


def _first(result):
    return result.constituents[0]


def _bump(tup):
    return StreamTuple(tup.value + 1.0, tup.timestamp, tup.stream, tup.seq)


def _keep_even(out):
    return _seq(out) % 2 == 0


@dataclasses.dataclass(frozen=True)
class Spec:
    """One drawn run: nodes, edges, sources and the CPU."""

    nodes: tuple = ()        # (streams, cost, join_result, gated)
    edges: tuple = ()        # (source, target, input, filtered, transformed)
    arrivals: tuple = ()     # (node, input, grid ticks)
    cores: int = 1
    buffer_capacity: int | None = None
    capacity: float = 8.0
    overhead: float = 1.0
    on_error: str = "raise"
    warmup: float = 0.0
    adaptation_interval: float = 1.0


def build(spec: Spec):
    graph = DataflowGraph()
    for i, (streams, cost, join_result, gated) in enumerate(spec.nodes):
        op = Echo(streams, cost, join_result,
                  fail_every=3 if spec.on_error == "skip" else 0)
        admission = [EveryOther() if gated else None] * streams
        graph.add_node(f"n{i}", op, admission=admission)
    for source, target, index, filtered, transformed in spec.edges:
        join_result = spec.nodes[source][2]
        transform = _first if join_result else None
        if transformed:
            transform = (
                (lambda r: _bump(_first(r))) if join_result else _bump
            )
        graph.connect(f"n{source}", f"n{target}", index,
                      transform=transform,
                      filter=_keep_even if filtered else None)
    for node, index, ticks in spec.arrivals:
        stream = node * 2 + index
        tuples = [StreamTuple(float(k % 7), k * GRID, stream, seq)
                  for seq, k in enumerate(sorted(ticks))]
        graph.add_source(f"n{node}", index, TraceSource(stream, tuples))
    cpu = CpuModel(spec.capacity, tuple_overhead=spec.overhead,
                   cores=spec.cores)
    return graph, cpu


def _key(out):
    if isinstance(out, JoinResult):
        return ("join", out.timestamp,
                tuple((t.stream, t.seq) for t in out.constituents))
    return ("tuple", out.timestamp, out.stream, out.seq, out.value)


def _series(series):
    return list(series.times), list(series.values)


def measure(result, cpu):
    """Everything a run measured, as plain comparable values."""
    nodes = {}
    for name, node in result.nodes.items():
        hist = node.latency_histogram
        nodes[name] = {
            "outputs": [_key(out) for out in node.outputs],
            "latency": (list(hist.counts), hist.count, hist.sum,
                        hist.min, hist.max),
            "ports": [dataclasses.astuple(c) for c in node.streams],
            "depth": [_series(s) for s in node.queue_depth_series],
            "throttle": _series(node.throttle_series),
            "output": _series(node.output_series),
            "totals": (node.output_count, node.output_count_warm,
                       node.output_rate, node.operator_errors),
        }
    return {
        "nodes": nodes,
        "cpu": (cpu.busy_time, cpu.serviced, list(cpu.core_busy_until),
                list(cpu.core_busy_time), result.cpu_utilization),
    }


def run(spec: Spec, inline: bool = True):
    """Run ``spec``; returns the processed ``(time, kind)`` sequence, the
    measurements and the number of ``EventQueue.push`` calls.

    ``inline=False`` is the always-push reference loop."""
    trace, pushes = [], [0]
    pop, push, on_completion = (
        EventQueue.pop, EventQueue.push, _Run._on_completion
    )

    def recording_pop(self):
        event = pop(self)
        # a popped completion is recorded where it is processed, like
        # one that never entered the queue
        if event.kind is not EventKind.COMPLETION:
            trace.append((event.time, event.kind))
        return event

    def counting_push(self, *args):
        pushes[0] += 1
        return push(self, *args)

    def recording_completion(self, node, outputs, probe, now):
        trace.append((now, EventKind.COMPLETION))
        return on_completion(self, node, outputs, probe, now)

    with pytest.MonkeyPatch.context() as m:
        if not inline:
            m.setattr(EventQueue, "precedes", lambda self, time, kind: False)
        m.setattr(EventQueue, "pop", recording_pop)
        m.setattr(EventQueue, "push", counting_push)
        m.setattr(_Run, "_on_completion", recording_completion)
        graph, cpu = build(spec)
        config = SimulationConfig(
            duration=DURATION, warmup=spec.warmup,
            adaptation_interval=spec.adaptation_interval,
            measure_interval=0.5, buffer_capacity=spec.buffer_capacity,
            on_operator_error=spec.on_error,
        )
        result = graph.run(cpu, config, validate=False,
                           retain_outputs=True)
    return trace, measure(result, cpu), pushes[0]


def assert_same_as_reference(spec: Spec):
    """Run both loops; returns the inline run's trace and push count."""
    trace, measured, pushes = run(spec)
    ref_trace, ref_measured, ref_pushes = run(spec, inline=False)
    assert trace == ref_trace
    assert measured == ref_measured
    assert pushes <= ref_pushes
    return trace, pushes


@st.composite
def specs(draw):
    n = draw(st.integers(1, 3))
    nodes = tuple(
        (draw(st.integers(1, 2)),                  # inputs
         draw(st.integers(0, 3)),                  # comparisons per tuple
         draw(st.booleans()),                      # join-result outputs
         draw(st.booleans()))                      # admission gate
        for _ in range(n)
    )
    edges = tuple(
        (source, target, draw(st.integers(0, nodes[target][0] - 1)),
         draw(st.booleans()), draw(st.booleans()))
        for target in range(1, n) for source in range(target)
        if draw(st.booleans())
    )
    ticks = st.lists(st.integers(0, int(DURATION / GRID) - 1), max_size=12)
    arrivals = tuple(
        (node, index, tuple(draw(ticks)))
        for node in range(n) for index in range(nodes[node][0])
        if node == 0 or draw(st.booleans())
    )
    return Spec(
        nodes=nodes,
        edges=edges,
        arrivals=arrivals,
        cores=draw(st.integers(1, 4)),
        # one bound for every node's input buffers
        buffer_capacity=draw(st.none() | st.integers(1, 3)),
        # 1e12 is idle; 16 and 8 put services on the grid; 2 saturates
        capacity=draw(st.sampled_from([1e12, 16.0, 8.0, 2.0])),
        # no overhead: a zero-comparison service ends when it starts
        overhead=draw(st.sampled_from([0.0, 1.0])),
        on_error=draw(st.sampled_from(["raise", "skip"])),
        warmup=draw(st.sampled_from([0.0, 1.0])),
    )


@settings(max_examples=150, deadline=None)
@given(specs())
def test_processed_trace_equals_the_always_push_loop(spec):
    assert_same_as_reference(spec)


def one_node(ticks, **kw):
    """One single-input node fed at ``ticks`` (grid units)."""
    return Spec(nodes=((1, kw.pop("cost", 0), False, False),),
                arrivals=((0, 0, tuple(ticks)),), **kw)


class TestTies:
    """Each way a completion can tie with a queued event keeps the
    always-push loop's order."""

    def test_idle_completion_runs_without_the_queue(self):
        trace, pushes = assert_same_as_reference(one_node([1, 5, 9]))
        assert pushes == 0
        arrivals = [t for t, kind in trace if kind is EventKind.ARRIVAL]
        completions = [t for t, kind in trace if kind is EventKind.COMPLETION]
        assert arrivals == [GRID, 5 * GRID, 9 * GRID]
        assert completions == [2 * GRID, 6 * GRID, 10 * GRID]

    def test_completion_at_an_arrival_waits_for_it(self):
        # service takes one grid step: the first completion lands on the
        # second arrival, which sorts first, so it is queued; the core is
        # free at that instant, so the second service starts before the
        # first completion is processed and queues behind it
        trace, pushes = assert_same_as_reference(one_node([0, 1]))
        assert trace[:4] == [(0.0, EventKind.ARRIVAL),
                             (GRID, EventKind.ARRIVAL),
                             (GRID, EventKind.COMPLETION),
                             (2 * GRID, EventKind.COMPLETION)]
        assert pushes == 2

    def test_completion_at_an_adapt_waits_for_it(self):
        # 0.875 + one step = 1.0, the first adaptation tick
        trace, pushes = assert_same_as_reference(one_node([7]))
        at_one = [kind for t, kind in trace if t == 1.0]
        assert at_one[:2] == [EventKind.ADAPT, EventKind.COMPLETION]
        assert pushes == 1

    def test_completion_at_duration_runs_before_stop(self):
        # no adaptation tick at 4.0 here, so nothing sorts before it
        spec = one_node([31], adaptation_interval=3.0)
        trace, pushes = assert_same_as_reference(spec)
        assert trace[-3:] == [(DURATION, EventKind.COMPLETION),
                              (DURATION, EventKind.MEASURE),
                              (DURATION, EventKind.STOP)]
        assert pushes == 0
        _, measured, _ = run(spec)
        assert measured["nodes"]["n0"]["totals"][0] == 1

    def test_completion_past_duration_is_discarded(self):
        spec = one_node([30, 31], cost=1)  # two steps each, back to back
        trace, pushes = assert_same_as_reference(spec)
        assert trace[-1] == (DURATION, EventKind.STOP)
        assert all(t <= DURATION for t, _ in trace)
        assert [t for t, kind in trace if kind is EventKind.COMPLETION] == [
            32 * GRID,
        ]
        # the second service ends at 4.25, after STOP: it is queued and
        # never processed
        assert pushes == 2
        _, measured, _ = run(spec)
        assert measured["nodes"]["n0"]["totals"][0] == 1
        assert measured["nodes"]["n0"]["ports"][0][-1] == 2  # consumed

    def test_two_cores_finishing_together(self):
        spec = Spec(nodes=((2, 0, False, False),),
                    arrivals=((0, 0, (0,)), (0, 1, (0,))), cores=2)
        trace, pushes = assert_same_as_reference(spec)
        assert trace[:4] == [(0.0, EventKind.ARRIVAL),
                             (0.0, EventKind.ARRIVAL),
                             (GRID, EventKind.COMPLETION),
                             (GRID, EventKind.COMPLETION)]
        # both completions tie on (time, kind): neither may skip the queue
        assert pushes == 2

    def test_zero_length_services_stay_queued_behind_each_other(self):
        spec = one_node([0, 0, 0], capacity=1e12, overhead=0.0)
        trace, _ = assert_same_as_reference(spec)
        assert trace[:6] == [(0.0, EventKind.ARRIVAL)] * 3 + [
            (0.0, EventKind.COMPLETION)
        ] * 3


def test_long_backlog_drains_without_recursion():
    # 6,000 tuples arrive at once on a busy core; once the arrivals are
    # queued, each completion is the next event and starts the next
    # service, so the backlog drains through back-to-back inline
    # completions: one frame per event, not one per tuple
    n = 6000
    spec = one_node([0] * n, capacity=1e6, overhead=1.0)
    trace, pushes = assert_same_as_reference(spec)
    assert pushes == 1
    assert sum(kind is EventKind.COMPLETION for _, kind in trace) == n
