"""Tests for the offline time-correlation diagnostic."""

import pytest

from repro.analysis.correlation import offset_match_profile
from repro.joins import EpsilonJoin
from repro.streams import (
    ConstantRate,
    LinearDriftProcess,
    UniformProcess,
    record_trace,
)


def correlated_traces(lag=4.0, deviation=1.0, duration=40.0, rate=15.0):
    a = record_trace(0, ConstantRate(rate),
                     LinearDriftProcess(lag=0.0, deviation=deviation,
                                        rng=1), duration)
    b = record_trace(
        1, ConstantRate(rate, phase=1e-3),
        LinearDriftProcess(lag=lag, deviation=deviation, rng=2), duration,
    )
    return a, b


class TestOffsetProfile:
    def test_detects_the_lag(self):
        # X_b(t) = X_a(t + 4): b's partner in a is 4 s NEWER, so matching
        # pairs have T(a) - T(b) = +4
        a, b = correlated_traces(lag=4.0)
        profile = offset_match_profile(a, b, EpsilonJoin(1.0),
                                       max_offset=10.0, bin_width=1.0)
        assert profile.peak_offset() == pytest.approx(4.0, abs=1.0)
        assert profile.concentration() > 3.0

    def test_uncorrelated_traces_flat(self):
        a = record_trace(0, ConstantRate(20.0), UniformProcess(rng=1),
                         40.0)
        b = record_trace(1, ConstantRate(20.0, phase=1e-3),
                         UniformProcess(rng=2), 40.0)
        profile = offset_match_profile(a, b, EpsilonJoin(50.0),
                                       max_offset=8.0, bin_width=2.0)
        assert profile.concentration() < 2.0

    def test_pair_counts_cover_all_bins(self):
        a, b = correlated_traces()
        profile = offset_match_profile(a, b, EpsilonJoin(1.0),
                                       max_offset=5.0, bin_width=1.0)
        assert (profile.pair_counts[1:-1] > 0).all()

    def test_subsampling_unbiased(self):
        a, b = correlated_traces(duration=30.0, rate=20.0)
        full = offset_match_profile(a, b, EpsilonJoin(1.0),
                                    max_offset=8.0, bin_width=2.0)
        sampled = offset_match_profile(a, b, EpsilonJoin(1.0),
                                       max_offset=8.0, bin_width=2.0,
                                       max_pairs=3000, rng=0)
        assert sampled.peak_offset() == full.peak_offset()

    def test_default_subsampling_is_deterministic(self):
        """Above ``max_pairs`` the default generator is seeded: the same
        traces give the same profile on every call."""
        a, b = correlated_traces(duration=30.0, rate=20.0)
        first, second = (
            offset_match_profile(a, b, EpsilonJoin(1.0), max_offset=8.0,
                                 bin_width=2.0, max_pairs=3000)
            for _ in range(2)
        )
        assert first.pair_counts.sum() == 3000
        assert first.pair_counts.tolist() == second.pair_counts.tolist()
        assert first.match_probability.tolist() == (
            second.match_probability.tolist()
        )

    def test_validation(self):
        a, b = correlated_traces(duration=5.0)
        with pytest.raises(ValueError):
            offset_match_profile(a, b, EpsilonJoin(1.0), max_offset=0)
        from repro.streams import TraceSource

        with pytest.raises(ValueError):
            offset_match_profile(TraceSource(0, []), b, EpsilonJoin(1.0),
                                 max_offset=5.0)
