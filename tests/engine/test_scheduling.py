"""Tests for the graph scheduler's one rule: oldest buffered tuple first."""

import pytest

from repro.engine import (
    CpuModel,
    DataflowGraph,
    ProcessReceipt,
    SimulationConfig,
    StreamOperator,
)
from repro.streams import ConstantRate, StreamSource, UniformProcess
from repro.streams.tuples import JoinResult


class CostlyEcho(StreamOperator):
    """One output per tuple at a configurable comparison cost."""

    num_streams = 1

    def __init__(self, cost):
        self.cost = cost
        self.serviced = 0

    def process(self, tup, now):
        self.serviced += 1
        return ProcessReceipt(comparisons=self.cost,
                              outputs=[JoinResult((tup,))])


def build(costs, rate=20.0):
    graph = DataflowGraph()
    ops = {}
    for i, cost in enumerate(costs):
        name = f"n{i}"
        ops[name] = CostlyEcho(cost)
        graph.add_node(name, ops[name])
        graph.add_source(name, 0, StreamSource(
            0, ConstantRate(rate, phase=i * 1e-4), UniformProcess(rng=i)
        ))
    return graph, ops


CFG = SimulationConfig(duration=10.0, warmup=0.0)


class TestOldestPolicy:
    def test_equal_costs_equal_service(self):
        graph, ops = build([10, 10])
        graph.run(CpuModel(1e9), CFG)
        assert ops["n0"].serviced == ops["n1"].serviced

    def test_expensive_node_dominates_cpu_time(self):
        # under overload, oldest-first keeps both flowing in arrival order
        graph, ops = build([1000, 1])
        graph.run(CpuModel(5000.0), CFG)
        # the cheap node is not starved: it services in lockstep
        # (n0's arrivals are phased marginally earlier, hence the slack)
        assert ops["n1"].serviced >= ops["n0"].serviced - 2

    def test_no_policy_argument(self):
        # every option after ``config`` is keyword-only, so a stale
        # positional scheduling policy cannot land in ``validate``
        graph, _ = build([1])
        with pytest.raises(TypeError):
            graph.run(CpuModel(1e9), CFG, "oldest")
        with pytest.raises(TypeError):
            graph.run(CpuModel(1e9), CFG, policy="oldest")
