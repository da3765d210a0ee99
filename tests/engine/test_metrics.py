"""Tests for measurement types."""

import pytest

from repro.engine import SimulationResult, StreamCounters
from repro.obs import Histogram
from repro.obs.registry import Series


class TestTimeSeries:
    """The (time, value) series on result objects — ``obs.registry.Series``
    now that the engine's own series type is folded into it."""

    def test_append_and_read(self):
        # the loop feeds integer samples (queue depth, cumulative
        # output); they are stored as floats
        ts = Series("queue_depth", ())
        ts.observe(1, 10)
        ts.observe(2.0, 20.0)
        assert ts.times == [1.0, 2.0]
        assert ts.values == [10.0, 20.0]
        assert all(type(v) is float for v in ts.times + ts.values)
        assert len(ts) == 2

    def test_out_of_order_rejected(self):
        ts = Series("queue_depth", ())
        ts.observe(2.0, 1.0)
        with pytest.raises(ValueError, match="time order"):
            ts.observe(1.0, 1.0)

    def test_equal_times_allowed(self):
        # several events can share one virtual instant (adaptation and
        # measure ticks landing on the same event time) — equal is legal,
        # only strictly-backwards appends are rejected
        ts = Series("queue_depth", ())
        ts.observe(1.0, 1.0)
        ts.observe(1.0, 2.0)
        ts.observe(1.0, 3.0)
        assert ts.values == [1.0, 2.0, 3.0]
        ts.observe(2.0, 4.0)
        assert len(ts) == 4

    def test_last_and_mean(self):
        ts = Series("queue_depth", ())
        assert ts.values == []
        assert ts.mean() == 0.0
        ts.observe(0.0, 4.0)
        ts.observe(1.0, 8.0)
        assert ts.values[-1] == 8.0
        assert ts.mean() == 6.0


class TestSimulationResult:
    def _result(self):
        return SimulationResult(
            duration=30.0,
            warmup=10.0,
            output_count=100,
            output_count_total=150,
            output_rate=5.0,
            streams=[
                StreamCounters(arrived=10, dropped_at_admission=2),
                StreamCounters(arrived=20, dropped_at_buffer=3),
            ],
            cpu_utilization=0.8,
            mean_latency=0.1,
            queue_depths=[Series("queue_depth", ()),
                          Series("queue_depth", ())],
            throttle_series=Series("throttle_fraction", ()),
            output_series=Series("output_count", ()),
        )

    def test_measurement_window(self):
        assert self._result().measurement_window == 20.0

    def test_totals(self):
        r = self._result()
        assert r.total_arrived() == 30
        assert r.total_dropped() == 5

    def test_drop_rates(self):
        r = self._result()
        assert r.drop_rate(0) == pytest.approx(0.2)
        assert r.drop_rate(1) == pytest.approx(0.15)
        assert r.drop_rates == [r.drop_rate(0), r.drop_rate(1)]
        r.streams[0] = StreamCounters()  # nothing arrived -> no division
        assert r.drop_rate(0) == 0.0

    def test_p95_latency(self):
        r = self._result()
        assert r.p95_latency == 0.0  # no histogram attached
        hist = Histogram("tuple_latency_seconds")
        for _ in range(90):
            hist.observe(0.01)
        for _ in range(10):
            hist.observe(3.0)
        r.latency_histogram = hist
        # conservative tail estimate: at or above the true p95, at most
        # one bucket above the largest observation
        assert 3.0 <= r.p95_latency <= 4.0
