"""Tests for trace recording and replay."""

import pytest

from repro.streams import (
    ConstantRate,
    StreamTuple,
    TraceSource,
    UniformProcess,
    record_trace,
)


def make_tuples(n=10, stream=0, spacing=0.5):
    return [
        StreamTuple(value=float(i), timestamp=i * spacing, stream=stream, seq=i)
        for i in range(n)
    ]


class TestTraceSource:
    def test_rejects_unsorted(self):
        tuples = make_tuples()
        tuples.reverse()
        with pytest.raises(ValueError):
            TraceSource(0, tuples)

    def test_iter_respects_horizon(self):
        trace = TraceSource(0, make_tuples(10, spacing=1.0))
        assert len(list(trace.iter_tuples(4.5))) == 5

    def test_mean_rate(self):
        trace = TraceSource(0, make_tuples(11, spacing=1.0))  # span 10 s
        assert trace.mean_rate == pytest.approx(1.1)

    def test_mean_rate_degenerate(self):
        assert TraceSource(0, []).mean_rate == 0.0
        single = TraceSource(0, make_tuples(1))
        assert single.mean_rate == 1.0

    def test_rate_at_counts_neighbourhood(self):
        trace = TraceSource(0, make_tuples(21, spacing=0.5))
        # 5 tuples within +/- 1 s of t=5.0 (4.0,4.5,5.0,5.5,6.0)
        assert trace.rate_at(5.0) == pytest.approx(2.5)


class TestRecordAndPersist:
    def test_record_trace_matches_source(self):
        trace = record_trace(1, ConstantRate(10), UniformProcess(rng=0), 2.0)
        assert len(trace.tuples) == 20
        assert trace.stream == 1
