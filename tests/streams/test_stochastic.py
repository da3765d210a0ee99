"""Tests for the value processes, in particular the paper's workload."""

import numpy as np
import pytest

from repro.streams import (
    ConstantProcess,
    LinearDriftProcess,
    UniformProcess,
)


class TestLinearDriftProcess:
    def test_deterministic_without_deviation(self):
        p = LinearDriftProcess(domain=1000, period=50, deviation=0.0)
        # X(t) = 20 * t mod 1000
        assert p.sample(1.0) == pytest.approx(20.0)
        assert p.sample(10.0) == pytest.approx(200.0)

    def test_wraparound_period(self):
        p = LinearDriftProcess(domain=1000, period=50, deviation=0.0)
        assert p.sample(0.0) == pytest.approx(p.sample(50.0))
        assert p.sample(12.0) == pytest.approx(p.sample(62.0))

    def test_lag_shifts_the_process(self):
        base = LinearDriftProcess(domain=1000, period=50, deviation=0.0)
        lagged = LinearDriftProcess(domain=1000, period=50, lag=5.0,
                                    deviation=0.0)
        # lagged stream at time t equals base stream at time t + 5
        assert lagged.sample(7.0) == pytest.approx(base.sample(12.0))

    def test_values_in_domain(self):
        p = LinearDriftProcess(domain=1000, period=50, deviation=30,
                               rng=0)
        vals = [p.sample(t) for t in np.linspace(0, 100, 500)]
        assert all(0 <= v < 1000 for v in vals)

    def test_deviation_controls_spread(self):
        quiet = LinearDriftProcess(deviation=1.0, rng=1)
        noisy = LinearDriftProcess(deviation=50.0, rng=1)
        t = 3.0
        quiet_err = [abs(quiet.sample(t) - quiet.mean_value(t))
                     for _ in range(200)]
        noisy_err = [abs(noisy.sample(t) - noisy.mean_value(t))
                     for _ in range(200)]
        assert np.mean(noisy_err) > 5 * np.mean(quiet_err)

    def test_mean_value_matches_formula(self):
        p = LinearDriftProcess(domain=800, period=40, lag=3.0)
        t = 11.0
        assert p.mean_value(t) == pytest.approx((800 / 40) * (t + 3.0) % 800)

    @pytest.mark.parametrize(
        "kwargs", [{"domain": 0}, {"period": -1}, {"deviation": -0.1}]
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            LinearDriftProcess(**kwargs)

    def test_seeded_reproducibility(self):
        a = LinearDriftProcess(deviation=5.0, rng=42)
        b = LinearDriftProcess(deviation=5.0, rng=42)
        assert [a.sample(t) for t in range(10)] == [
            b.sample(t) for t in range(10)
        ]


class TestUniformProcess:
    def test_bounds(self):
        p = UniformProcess(10, 20, rng=0)
        vals = [p.sample(0.0) for _ in range(500)]
        assert all(10 <= v < 20 for v in vals)

    def test_roughly_uniform(self):
        p = UniformProcess(0, 1, rng=0)
        vals = np.array([p.sample(0.0) for _ in range(2000)])
        assert abs(vals.mean() - 0.5) < 0.05

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            UniformProcess(5, 5)


class TestConstantProcess:
    def test_constant(self):
        p = ConstantProcess(7.5)
        assert p.sample(0.0) == 7.5
        assert p.sample(1e9) == 7.5
