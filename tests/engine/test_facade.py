"""The single-operator host is a view of a one-node graph run.

``Simulation`` owns no event loop: it wraps its operator in an anonymous
one-node :class:`DataflowGraph` and re-labels that node's
:class:`NodeResult` as a :class:`SimulationResult`.  One frozen workload
pins the claim field by field, including the telemetry export.
"""

import json

from repro.core import GrubJoinOperator
from repro.engine import (
    CpuModel,
    DataflowGraph,
    Simulation,
    SimulationConfig,
)
from repro.joins import RandomDropShedder
from repro.obs import Obs
from repro.obs.export import jsonl_lines
from repro.testkit.workloads import default_workloads

#: the CPU (2 cores) has half the work budget the drop gates plan for, so
#: the gates drop some tuples and GrubJoin still has to throttle
CORE_CAPACITY = 500.0
GATE_BUDGET = 2000.0


def overloaded_join(workload):
    """Fresh GrubJoin behind RandomDrop gates on a 2-core CPU."""
    op = GrubJoinOperator(
        workload.predicate, workload.window_sizes, workload.basic, rng=0
    )
    shedder = RandomDropShedder(op, GATE_BUDGET, rng=1)
    return op, shedder.filters, CpuModel(CORE_CAPACITY, cores=2)


def series(s):
    return s.times, s.values


def without_node_label(obs):
    records = [json.loads(line) for line in jsonl_lines(obs)]
    for record in records:
        record.get("labels", {}).pop("node", None)
    return records


def test_simulation_is_a_view_of_a_one_node_graph():
    workload = default_workloads()[1]  # keys-m3-r12-s1
    config = SimulationConfig(
        duration=workload.duration, warmup=2.0, adaptation_interval=2.0
    )

    op, gates, sim_cpu = overloaded_join(workload)
    sim_obs = Obs()
    sim = Simulation(workload.traces, op, sim_cpu, config, admission=gates,
                     retain_outputs=True, obs=sim_obs)
    res = sim.run()

    op, gates, graph_cpu = overloaded_join(workload)
    graph_obs = Obs()
    graph = DataflowGraph()
    graph.add_node("join", op, admission=gates)
    for i, trace in enumerate(workload.traces):
        graph.add_source("join", i, trace)
    run = graph.run(graph_cpu, config, retain_outputs=True, obs=graph_obs)
    node = run.nodes["join"]

    # the workload really exercises both shedders and the buffers
    assert op.throttle_fraction < 1.0
    assert sum(s.dropped_at_admission for s in node.streams) > 0
    assert 0 < node.output_count_warm < node.output_count

    assert res.output_count_total == node.output_count
    assert res.output_count == node.output_count_warm
    assert res.output_rate == node.output_rate
    assert res.streams == node.streams
    assert res.mean_latency == node.mean_latency
    assert res.p95_latency == node.p95_latency
    assert res.latency_histogram.counts == node.latency_histogram.counts
    assert series(res.throttle_series) == series(node.throttle_series)
    assert series(res.output_series) == series(node.output_series)
    assert ([series(s) for s in res.queue_depths]
            == [series(s) for s in node.queue_depth_series])
    assert res.cpu_utilization == run.cpu_utilization
    assert sim_cpu.core_busy_time == graph_cpu.core_busy_time
    assert sim.operator_errors == node.operator_errors == 0
    assert ([(r.key(), r.timestamp) for r in sim.output_buffer.results]
            == [(r.key(), r.timestamp) for r in node.outputs])

    # telemetry: the facade's node is anonymous, the graph's is labelled
    # — and that is the whole difference
    labelled = [json.loads(line) for line in jsonl_lines(graph_obs)]
    assert any(r.get("labels", {}).get("node") == "join" for r in labelled)
    assert without_node_label(graph_obs) == without_node_label(sim_obs)
    assert not any(
        "node" in json.loads(line).get("labels", {})
        for line in jsonl_lines(sim_obs)
    )
