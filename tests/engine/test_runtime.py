"""Tests for the discrete-event simulation runtime."""

import pytest

from repro.engine import (
    AdmissionFilter,
    CpuModel,
    ProcessReceipt,
    Simulation,
    SimulationConfig,
    StreamOperator,
)
from repro.streams import ConstantRate, StreamSource, UniformProcess
from repro.streams.tuples import JoinResult


class EchoOperator(StreamOperator):
    """Emits one output per input tuple at a fixed comparison cost."""

    def __init__(self, num_streams=1, cost=10, outputs_per_tuple=1):
        self.num_streams = num_streams
        self.cost = cost
        self.outputs_per_tuple = outputs_per_tuple
        self.adapt_calls = []
        self.processed = []

    def process(self, tup, now):
        self.processed.append((tup, now))
        outs = [JoinResult((tup,)) for _ in range(self.outputs_per_tuple)]
        return ProcessReceipt(comparisons=self.cost, outputs=outs)

    def on_adapt(self, now, stats, interval):
        self.adapt_calls.append((now, [s.pushed for s in stats], interval))


class DropEverySecond(AdmissionFilter):
    def __init__(self):
        self.count = 0
        self.adapt_rates = []

    def admit(self, tup, now):
        self.count += 1
        return self.count % 2 == 1

    def on_adapt(self, now, rate_estimate):
        self.adapt_rates.append(rate_estimate)


def make_sources(n=1, rate=10.0):
    return [
        StreamSource(i, ConstantRate(rate, phase=i * 0.001),
                     UniformProcess(rng=i))
        for i in range(n)
    ]


class TestSimulationBasics:
    def test_all_tuples_processed_when_capacity_ample(self):
        op = EchoOperator()
        cfg = SimulationConfig(duration=10.0, warmup=0.0)
        res = Simulation(make_sources(), op, CpuModel(1e9), cfg).run()
        assert res.streams[0].arrived == 100
        assert res.streams[0].consumed == 100
        assert res.output_count_total == 100

    def test_output_rate_measured_after_warmup(self):
        op = EchoOperator()
        cfg = SimulationConfig(duration=10.0, warmup=5.0)
        res = Simulation(make_sources(rate=10), op, CpuModel(1e9), cfg).run()
        # ~50 tuples arrive within the 5 s measurement window
        assert res.output_rate == pytest.approx(10.0, rel=0.1)

    def test_overload_leaves_queue(self):
        # service time 1s per tuple but 10 arrivals/sec
        op = EchoOperator(cost=100)
        cfg = SimulationConfig(duration=10.0, warmup=0.0)
        res = Simulation(
            make_sources(rate=10), op, CpuModel(100.0, tuple_overhead=0.0),
            cfg,
        ).run()
        assert res.streams[0].consumed < res.streams[0].arrived
        assert res.queue_depths[0].values[-1] > 0
        assert res.cpu_utilization > 0.95

    def test_conservation(self):
        op = EchoOperator(cost=50)
        cfg = SimulationConfig(duration=8.0, warmup=0.0, buffer_capacity=5)
        res = Simulation(
            make_sources(rate=20), op, CpuModel(200.0), cfg
        ).run()
        s = res.streams[0]
        queued = int(res.queue_depths[0].values[-1])
        # arrived = consumed + still queued + dropped (no other sinks)
        assert s.arrived == s.consumed + queued + s.dropped_at_buffer

    def test_hosts_a_tuple_emitting_operator(self):
        # pass-through outputs are frozen StreamTuples that already carry
        # their timestamp: the host counts them without restamping
        from repro.engine import FilterOperator

        cfg = SimulationConfig(duration=10.0, warmup=0.0)
        sim = Simulation(make_sources(), FilterOperator(lambda v: True),
                         CpuModel(1e9), cfg, retain_outputs=True)
        res = sim.run()
        assert res.output_count_total == 100
        kept = sim.output_buffer.results
        assert [t.seq for t in kept] == list(range(100))
        assert kept[-1].timestamp < 10.0  # arrival time, not completion

    def test_mean_latency_positive_under_load(self):
        op = EchoOperator(cost=100)
        cfg = SimulationConfig(duration=5.0, warmup=0.0)
        res = Simulation(
            make_sources(rate=20), op, CpuModel(500.0), cfg
        ).run()
        assert res.mean_latency > 0.1


class TestAdaptation:
    def test_adapt_called_each_interval(self):
        op = EchoOperator()
        cfg = SimulationConfig(duration=10.0, warmup=0.0,
                               adaptation_interval=2.0)
        Simulation(make_sources(), op, CpuModel(1e9), cfg).run()
        times = [t for t, _, _ in op.adapt_calls]
        assert times == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_interval_counters_reset_between_adapts(self):
        op = EchoOperator()
        cfg = SimulationConfig(duration=4.0, warmup=0.0,
                               adaptation_interval=1.0)
        Simulation(make_sources(rate=10), op, CpuModel(1e9), cfg).run()
        pushes = [pushed[0] for _, pushed, _ in op.adapt_calls]
        assert all(p == 10 for p in pushes)


class TestAdmission:
    def test_admission_filter_drops(self):
        op = EchoOperator()
        gate = DropEverySecond()
        cfg = SimulationConfig(duration=10.0, warmup=0.0)
        res = Simulation(
            make_sources(rate=10), op, CpuModel(1e9), cfg, admission=[gate]
        ).run()
        s = res.streams[0]
        assert s.arrived == 100
        assert s.dropped_at_admission == 50
        assert s.consumed == 50

    def test_admission_adapt_gets_post_drop_rate(self):
        op = EchoOperator()
        gate = DropEverySecond()
        cfg = SimulationConfig(duration=10.0, warmup=0.0,
                               adaptation_interval=5.0)
        Simulation(
            make_sources(rate=10), op, CpuModel(1e9), cfg, admission=[gate]
        ).run()
        assert gate.adapt_rates == pytest.approx([5.0, 5.0])


class TestMultiStream:
    def test_oldest_head_first(self):
        op = EchoOperator(num_streams=2)
        cfg = SimulationConfig(duration=2.0, warmup=0.0)
        Simulation(make_sources(2, rate=10), op, CpuModel(1e9), cfg).run()
        ts = [t.timestamp for t, _ in op.processed]
        assert ts == sorted(ts)

    def test_source_operator_mismatch(self):
        op = EchoOperator(num_streams=3)
        with pytest.raises(ValueError):
            Simulation(make_sources(2), op, CpuModel(1e9))

    def test_admission_length_mismatch(self):
        op = EchoOperator(num_streams=2)
        with pytest.raises(ValueError):
            Simulation(
                make_sources(2), op, CpuModel(1e9),
                admission=[DropEverySecond()],
            )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration": 0},
            {"duration": 10, "warmup": 10},
            {"duration": 10, "warmup": -1},
            {"adaptation_interval": 0},
            {"measure_interval": 0},
            {"buffer_capacity": 0},
            {"buffer_capacity": -3},
            {"buffer_capacity": 2.5},
            {"buffer_capacity": float("nan")},
            {"buffer_capacity": True},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize(
        "field",
        ["duration", "warmup", "adaptation_interval", "measure_interval"],
    )
    def test_non_finite_rejected(self, field, value):
        # an infinite duration never stops ticking; a NaN interval
        # schedules no tick at all, so the run silently never adapts
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SimulationConfig(**{field: value})


class TestRetention:
    def test_outputs_retained_when_asked(self):
        op = EchoOperator()
        cfg = SimulationConfig(duration=2.0, warmup=0.0)
        sim = Simulation(
            make_sources(rate=5), op, CpuModel(1e9), cfg, retain_outputs=True
        )
        sim.run()
        assert len(sim.output_buffer.results) == 10

    def test_outputs_not_retained_by_default(self):
        op = EchoOperator()
        cfg = SimulationConfig(duration=2.0, warmup=0.0)
        sim = Simulation(make_sources(rate=5), op, CpuModel(1e9), cfg)
        sim.run()
        assert sim.output_buffer.results == []
        assert sim.output_buffer.count == 10
