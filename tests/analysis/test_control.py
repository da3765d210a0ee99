"""Tests for the throttle-trajectory analytics."""

import numpy as np
import pytest

from repro.analysis import overshoot, settling_time, steady_state_stats
from repro.core import GrubJoinOperator
from repro.engine import BufferStats


class TestSettlingTime:
    def test_step_response(self):
        times = list(np.arange(0, 10, 0.5))
        values = [1.0 if t < 3 else 0.4 for t in times]
        st = settling_time(times, values, band=0.1)
        assert st == pytest.approx(3.0)

    def test_already_settled(self):
        assert settling_time([0, 1, 2], [0.5, 0.5, 0.5]) == 0.0

    def test_never_settles(self):
        # alternating forever; last point outside the band of the final
        times = list(range(10))
        values = [0.2, 0.8] * 5
        assert settling_time(times, values, band=0.05) is None

    def test_start_offset(self):
        times = [0, 1, 2, 3, 4]
        values = [9, 9, 1, 1, 1]
        assert settling_time(times, values, start=2.0) == 0.0

    def test_empty(self):
        assert settling_time([], []) is None


class TestOvershoot:
    def test_undershoot_measured(self):
        # dips to 0.1 before settling at 0.4
        values = [1.0, 0.1, 0.3, 0.4, 0.4]
        assert overshoot(values) == pytest.approx((0.4 - 0.1) / 0.4)

    def test_monotone_no_overshoot(self):
        assert overshoot([1.0, 0.7, 0.5, 0.5]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            overshoot([])


class TestSteadyState:
    def test_mean_and_cv(self):
        values = [9, 9, 9, 2.0, 2.2, 1.8, 2.0]
        mean, cv = steady_state_stats(range(7), values, tail_fraction=0.5)
        assert mean == pytest.approx(2.0, abs=0.2)
        assert cv < 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            steady_state_stats([], [])
        with pytest.raises(ValueError):
            steady_state_stats([0], [1.0], tail_fraction=0)


class TestOnRealController:
    def test_throttle_trajectory_analyzable(self):
        """Drive the controller through a synthetic overload and verify
        the analytics describe the trajectory sensibly."""
        from repro.joins import EpsilonJoin

        op = GrubJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 1.0, rng=0)

        def stats(pushed, popped):
            return BufferStats(pushed=pushed, popped=popped, dropped=0,
                               depth=0)

        # constant 3x overload: the CPU can fully process 1000 tuples per
        # interval at z=1, and 1/z times as many when throttled
        times, values = [], []
        for step in range(1, 25):
            z = max(op.throttle.z, 1e-6)
            consumable = int(min(3000, 1000 / z))
            op.on_adapt(float(step), [stats(3000, consumable)] * 3, 1.0)
            times.append(float(step))
            values.append(op.throttle_fraction)
        mean, cv = steady_state_stats(times, values)
        assert 0.2 < mean < 0.5  # equilibrium near 1/3
        assert cv < 0.5
        assert overshoot(values) >= 0.0
