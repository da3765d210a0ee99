"""Failure injection: poisoned tuples and operator exceptions.

The error policy lives in the engine's one scheduler loop, so every case
runs on both entry points: the ``Simulation`` facade and a plain
``DataflowGraph`` node.
"""

import pytest

from repro.engine import (
    CpuModel,
    DataflowGraph,
    ProcessReceipt,
    Simulation,
    SimulationConfig,
    StreamOperator,
)
from repro.streams import ConstantRate, StreamSource, UniformProcess
from repro.streams.tuples import JoinResult


class FragileOperator(StreamOperator):
    """Raises on every poison-pill tuple (value below a threshold)."""

    num_streams = 1

    def __init__(self, poison_below=10.0):
        self.poison_below = poison_below
        self.processed = 0

    def process(self, tup, now):
        if tup.value < self.poison_below:
            raise RuntimeError(f"poisoned payload {tup.value!r}")
        self.processed += 1
        return ProcessReceipt(comparisons=5, outputs=[JoinResult((tup,))])


def make_source(rate=20.0):
    return StreamSource(0, ConstantRate(rate), UniformProcess(0, 100,
                                                              rng=0))


def run_simulation(op, cpu, cfg):
    sim = Simulation([make_source()], op, cpu, cfg)
    res = sim.run()
    return sim.operator_errors, res.output_count_total


def run_graph(op, cpu, cfg):
    graph = DataflowGraph()
    graph.add_node("fragile", op)
    graph.add_source("fragile", 0, make_source())
    node = graph.run(cpu, cfg).nodes["fragile"]
    return node.operator_errors, node.output_count


HOSTS = (run_simulation, run_graph)


class TestErrorPolicies:
    def test_raise_policy_propagates(self):
        cfg = SimulationConfig(duration=10.0, warmup=0.0,
                               on_operator_error="raise")
        for run in HOSTS:
            with pytest.raises(RuntimeError, match="poisoned"):
                run(FragileOperator(), CpuModel(1e9), cfg)

    def test_skip_policy_keeps_flowing(self):
        cfg = SimulationConfig(duration=10.0, warmup=0.0,
                               on_operator_error="skip")
        for run in HOSTS:
            op = FragileOperator(poison_below=10.0)  # ~10% poisoned
            errors, outputs = run(op, CpuModel(1e9), cfg)
            assert errors > 0
            assert op.processed + errors == 200
            assert outputs == op.processed

    def test_skip_policy_charges_no_work_for_failures(self):
        cfg = SimulationConfig(duration=5.0, warmup=0.0,
                               on_operator_error="skip")
        for run in HOSTS:
            op = FragileOperator(poison_below=200.0)  # all poisoned
            cpu = CpuModel(1e9, tuple_overhead=1.0)
            errors, _ = run(op, cpu, cfg)
            assert errors == 100
            # only the per-tuple overhead was charged
            assert cpu.busy_time == pytest.approx(100 * 1.0 / 1e9)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(on_operator_error="explode")

    def test_default_is_raise(self):
        assert SimulationConfig().on_operator_error == "raise"
