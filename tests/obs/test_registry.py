"""Tests for the label-keyed metrics registry."""

import pytest

from repro.obs import (
    LOG2_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
)


class TestLabelIdentity:
    def test_get_or_create_same_handle(self):
        reg = MetricsRegistry()
        a = reg.counter("drops_total", stream=0)
        b = reg.counter("drops_total", stream=0)
        assert a is b
        assert len(reg) == 1

    def test_label_values_stringified(self):
        # 0 and "0" are the same label value — Prometheus identity
        reg = MetricsRegistry()
        assert reg.counter("x", stream=0) is reg.counter("x", stream="0")

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.counter("x", a=1, b=2)
        b = reg.counter("x", b=2, a=1)
        assert a is b

    def test_distinct_labels_distinct_instruments(self):
        reg = MetricsRegistry()
        a = reg.counter("x", stream=0)
        b = reg.counter("x", stream=1)
        c = reg.counter("x")
        assert a is not b and a is not c
        assert len(reg) == 3

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x", stream=0)
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x", stream=1)  # same name, different kind

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("")

    def test_collect_order_deterministic(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a", s=1)
        reg.counter("a", s=0)
        names = [(i.name, i.labels) for i in reg.collect()]
        assert names == sorted(names)

    def test_get_does_not_create(self):
        reg = MetricsRegistry()
        assert reg.get("missing") is None
        assert len(reg) == 0
        reg.counter("x", s=1)
        assert reg.get("x", s=1) is not None
        assert reg.get("x", s=2) is None
        assert len(reg) == 1

    def test_register_adopts_external_instrument(self):
        reg = MetricsRegistry()
        hist = Histogram("tuple_latency_seconds")
        assert reg.register(hist) is hist
        assert reg.get("tuple_latency_seconds") is hist

    def test_register_conflicts_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.register(Gauge("x", ()))
        reg.register(Histogram("h"))
        with pytest.raises(ValueError, match="already exists"):
            reg.register(Histogram("h"))


class TestCounterGauge:
    def test_counter_monotone(self):
        c = Counter("c", ())
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_gauge_last_value(self):
        g = Gauge("g", ())
        g.set(3.0)
        g.set(1.5)
        assert g.value == 1.5


class TestHistogramBuckets:
    def test_bounds_are_powers_of_two(self):
        assert LOG2_BOUNDS[0] == 2.0**-20
        assert LOG2_BOUNDS[-1] == 2.0**40
        assert all(b == 2 * a for a, b in zip(LOG2_BOUNDS, LOG2_BOUNDS[1:]))

    def test_bucket_edges_inclusive_upper(self):
        # bucket k holds bounds[k-1] < v <= bounds[k]: a value exactly at
        # a bound lands in that bound's bucket, just above in the next
        assert Histogram.bucket_bound(Histogram.bucket_index(2.0)) == 2.0
        assert Histogram.bucket_bound(Histogram.bucket_index(2.0001)) == 4.0
        assert Histogram.bucket_bound(Histogram.bucket_index(1.0)) == 1.0

    def test_nonpositive_values_in_first_bucket(self):
        assert Histogram.bucket_index(0.0) == 0
        assert Histogram.bucket_index(-3.0) == 0

    def test_overflow_bucket(self):
        h = Histogram("h")
        h.observe(2.0**41)
        [(bound, fill)] = h.nonzero_buckets()
        assert bound == float("inf")
        assert fill == 1

    def test_observe_accumulates(self):
        h = Histogram("h")
        for v in (0.5, 0.5, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 4.0
        assert h.min == 0.5
        assert h.max == 3.0
        assert h.mean() == pytest.approx(4.0 / 3.0)
        assert h.nonzero_buckets() == [(0.5, 2), (4.0, 1)]

    def test_identical_fills_across_instances(self):
        # fixed edges: the same observations always fill the same buckets
        a, b = Histogram("a"), Histogram("b")
        for v in (0.001, 0.7, 1.0, 13.0, 1e6):
            a.observe(v)
            b.observe(v)
        assert a.counts == b.counts

    def test_quantile(self):
        h = Histogram("h")
        assert h.quantile(0.5) == 0.0  # empty
        for _ in range(9):
            h.observe(0.4)
        h.observe(100.0)
        assert h.quantile(0.5) == 0.5  # bucket upper bound
        # tail quantile clamps to the observed max, not the bucket bound
        assert h.quantile(1.0) == 100.0
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestSeries:
    def test_time_ordering(self):
        s = Series("s", ())
        s.observe(1.0, 10.0)
        s.observe(1.0, 11.0)  # same virtual instant: legal
        s.observe(2.0, 12.0)
        assert len(s) == 3
        assert s.values[-1] == 12.0
        with pytest.raises(ValueError, match="time order"):
            s.observe(0.5, 1.0)
