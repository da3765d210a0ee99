"""Tests for stream sources."""

import pytest

from repro.streams import (
    ConstantRate,
    StreamSource,
    UniformProcess,
)


def make_source(stream=0, rate=10.0):
    return StreamSource(stream, ConstantRate(rate), UniformProcess(rng=stream))


class TestStreamSource:
    def test_tuples_sorted_and_sequenced(self):
        tuples = make_source().generate(2.0)
        assert [t.seq for t in tuples] == list(range(len(tuples)))
        ts = [t.timestamp for t in tuples]
        assert ts == sorted(ts)

    def test_stream_index_stamped(self):
        tuples = make_source(stream=3).generate(1.0)
        assert all(t.stream == 3 for t in tuples)

    def test_default_name_matches_paper_notation(self):
        assert make_source(stream=0).name == "S1"
        assert make_source(stream=2).name == "S3"

    def test_rate_at_delegates(self):
        assert make_source(rate=42.0).rate_at(0.0) == 42.0

    def test_negative_stream_rejected(self):
        with pytest.raises(ValueError):
            StreamSource(-1, ConstantRate(1), UniformProcess())
