"""Tests for the arrival processes."""

import numpy as np
import pytest

from repro.streams import (
    ConstantRate,
    PiecewiseRate,
    PoissonArrivals,
)


class TestConstantRate:
    def test_count_matches_rate(self):
        times = list(ConstantRate(10).iter_arrivals(5.0))
        assert len(times) == 50

    def test_even_spacing(self):
        times = list(ConstantRate(4).iter_arrivals(2.0))
        diffs = np.diff(times)
        assert np.allclose(diffs, 0.25)

    def test_phase_offsets_first_arrival(self):
        times = list(ConstantRate(1, phase=0.5).iter_arrivals(3.0))
        assert times[0] == 0.5

    def test_rate_at(self):
        assert ConstantRate(7).rate_at(123.0) == 7

    def test_invalid(self):
        with pytest.raises(ValueError):
            ConstantRate(0)
        with pytest.raises(ValueError):
            ConstantRate(1, phase=-1)


class TestPoissonArrivals:
    def test_mean_rate(self):
        times = list(PoissonArrivals(100, rng=0).iter_arrivals(50.0))
        assert len(times) == pytest.approx(5000, rel=0.1)

    def test_sorted(self):
        times = list(PoissonArrivals(50, rng=1).iter_arrivals(10.0))
        assert times == sorted(times)

    def test_within_horizon(self):
        times = list(PoissonArrivals(10, rng=2).iter_arrivals(5.0))
        assert all(0 < t < 5.0 for t in times)

    def test_exponential_gaps(self):
        times = np.array(list(PoissonArrivals(20, rng=3).iter_arrivals(100.0)))
        gaps = np.diff(times)
        assert gaps.mean() == pytest.approx(1 / 20, rel=0.1)
        assert gaps.std() == pytest.approx(1 / 20, rel=0.15)


class TestPiecewiseRate:
    def test_rate_at_segments(self):
        p = PiecewiseRate([(0, 100), (8, 150), (16, 50)])
        assert p.rate_at(0.0) == 100
        assert p.rate_at(7.99) == 100
        assert p.rate_at(8.0) == 150
        assert p.rate_at(100.0) == 50

    def test_counts_per_segment(self):
        p = PiecewiseRate([(0, 100), (8, 150), (16, 50)])
        times = np.array(list(p.iter_arrivals(24.0)))
        assert (times < 8).sum() == 800
        assert ((times >= 8) & (times < 16)).sum() == 1200
        assert (times >= 16).sum() == 400

    def test_sorted(self):
        p = PiecewiseRate([(0, 10), (2, 30)], poisson=True, rng=0)
        times = list(p.iter_arrivals(10.0))
        assert times == sorted(times)

    def test_horizon_clips_segments(self):
        p = PiecewiseRate([(0, 10), (100, 1000)])
        times = list(p.iter_arrivals(5.0))
        assert len(times) == 50

    @pytest.mark.parametrize(
        "bps",
        [[], [(1, 10)], [(0, 10), (5, -1)], [(0, 10), (5, 20), (3, 30)]],
    )
    def test_invalid(self, bps):
        with pytest.raises(ValueError):
            PiecewiseRate(bps)
