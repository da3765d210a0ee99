"""Tests for graph result accounting details."""

import pytest

from repro.engine import (
    CpuModel,
    DataflowGraph,
    FilterOperator,
    SimulationConfig,
)
from repro.streams import ConstantRate, StreamSource, UniformProcess


def simple_graph(rate=10.0):
    g = DataflowGraph()
    g.add_node("pass", FilterOperator(lambda v: True))
    g.add_source("pass", 0, StreamSource(0, ConstantRate(rate),
                                         UniformProcess(rng=0)))
    return g


class TestNodeResult:
    def test_warm_count_excludes_warmup(self):
        g = simple_graph(rate=10.0)
        result = g.run(CpuModel(1e9),
                       SimulationConfig(duration=10.0, warmup=5.0))
        node = result.nodes["pass"]
        assert node.output_count == 100
        assert node.output_rate == pytest.approx(10.0, rel=0.1)

    def test_queue_depth_series_sampled(self):
        g = simple_graph()
        result = g.run(CpuModel(1e9),
                       SimulationConfig(duration=5.0, warmup=0.0,
                                        measure_interval=1.0))
        series = result.nodes["pass"].queue_depth_series[0]
        assert len(series) == 5

    def test_result_metadata(self):
        g = simple_graph()
        result = g.run(CpuModel(1e9),
                       SimulationConfig(duration=5.0, warmup=1.0))
        assert result.duration == 5.0
        assert result.warmup == 1.0
        assert 0.0 <= result.cpu_utilization <= 1.0

    def test_no_output_before_warmup_means_rate_zero(self):
        # all arrivals during warm-up only
        g = DataflowGraph()
        g.add_node("pass", FilterOperator(lambda v: True))
        g.add_source(
            "pass", 0,
            StreamSource(0, ConstantRate(100.0), UniformProcess(rng=0)),
        )
        # trim the source to the first second via a wrapper trace
        from repro.streams import TraceSource

        src = StreamSource(0, ConstantRate(100.0), UniformProcess(rng=0))
        trace = TraceSource(0, [t for t in src.generate(1.0)])
        g2 = DataflowGraph()
        g2.add_node("pass", FilterOperator(lambda v: True))
        g2.add_source("pass", 0, trace)
        result = g2.run(CpuModel(1e9),
                        SimulationConfig(duration=10.0, warmup=5.0))
        assert result.nodes["pass"].output_count == 100
        assert result.nodes["pass"].output_rate == 0.0


class TestPerRunState:
    def test_config_buffer_capacity_bounds_a_node_that_set_none(self):
        def run(capacity):
            g = DataflowGraph()
            g.add_node("slow", FilterOperator(lambda v: True, cost=50))
            g.add_source("slow", 0, StreamSource(0, ConstantRate(20.0),
                                                 UniformProcess(rng=0)))
            cfg = SimulationConfig(duration=8.0, warmup=0.0,
                                   buffer_capacity=capacity)
            return g.run(CpuModel(200.0), cfg).nodes["slow"]

        node = run(5)
        counters = node.streams[0]
        queued = int(node.queue_depth_series[0].values[-1])
        assert counters.dropped_at_buffer > 0
        assert max(node.queue_depth_series[0].values) <= 5
        assert counters.arrived == (
            counters.consumed + queued + counters.dropped_at_buffer
        )
        # the config's bound is the only one: a roomy bound drops nothing
        roomy = run(1000)
        assert roomy.streams[0].dropped_at_buffer == 0
        assert max(roomy.queue_depth_series[0].values) > 5

    def test_second_run_measures_from_zero(self):
        from repro.streams import TraceSource

        src = StreamSource(0, ConstantRate(10.0), UniformProcess(rng=0))
        g = DataflowGraph()
        g.add_node("pass", FilterOperator(lambda v: True))
        g.add_source("pass", 0, TraceSource(0, list(src.generate(5.0))))
        cfg = SimulationConfig(duration=5.0, warmup=1.0)
        first = g.run(CpuModel(1e9), cfg, retain_outputs=True)
        second = g.run(CpuModel(1e9), cfg, retain_outputs=True)
        a, b = first.nodes["pass"], second.nodes["pass"]
        assert a is not b
        assert a.output_count == b.output_count == 50
        assert a.streams == b.streams
        assert a.outputs == b.outputs
        assert a.output_series.values == b.output_series.values
        assert a.latency_histogram.counts == b.latency_histogram.counts


class TestFanOut:
    def test_one_node_feeds_two_consumers(self):
        g = DataflowGraph()
        g.add_node("src_pass", FilterOperator(lambda v: True))
        g.add_node("low", FilterOperator(lambda v: v < 50))
        g.add_node("high", FilterOperator(lambda v: v >= 50))
        g.connect("src_pass", "low")
        g.connect("src_pass", "high")
        g.add_source("src_pass", 0,
                     StreamSource(0, ConstantRate(40.0),
                                  UniformProcess(rng=1)))
        result = g.run(CpuModel(1e9),
                       SimulationConfig(duration=10.0, warmup=0.0))
        total_in = result.nodes["src_pass"].output_count
        assert result.nodes["low"].consumed == total_in
        assert result.nodes["high"].consumed == total_in
        assert (
            result.nodes["low"].output_count
            + result.nodes["high"].output_count
            == total_in
        )


class TestRetainOutputs:
    def test_outputs_kept_per_node_when_requested(self):
        g = simple_graph(rate=10.0)
        result = g.run(
            CpuModel(1e9),
            SimulationConfig(duration=5.0, warmup=0.0),
            retain_outputs=True,
        )
        outputs = result.nodes["pass"].outputs
        assert len(outputs) == result.nodes["pass"].output_count
        # emission order is preserved (the testkit diffs identity sets,
        # but divergence reports walk outputs in order)
        stamps = [t.timestamp for t in outputs]
        assert stamps == sorted(stamps)

    def test_outputs_empty_by_default(self):
        g = simple_graph(rate=10.0)
        result = g.run(CpuModel(1e9),
                       SimulationConfig(duration=5.0, warmup=0.0))
        assert result.nodes["pass"].output_count > 0
        assert result.nodes["pass"].outputs == []
