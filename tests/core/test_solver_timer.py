"""Solver-time accounting via the injectable timer (R001 remediation).

The deterministic core must never read the wall clock; GrubJoin instead
accepts ``solver_timer``.  These tests pin the three behaviours: no timer
means zero accounting and bit-identical runs, an injected timer is
consulted exactly around the solver, and the wall-clock implementation
lives outside the protected packages.
"""

import numpy as np

from repro import (
    CpuModel,
    EpsilonJoin,
    GrubJoinOperator,
    Simulation,
    SimulationConfig,
)
from repro.testkit.workloads import drift_sources
from repro.timing import ManualTimer, wall_clock_timer


def make_sources(m=3, rate=60.0, seed=0):
    return drift_sources(m=m, rate=rate, seed=seed)


def run_once(**operator_kwargs):
    operator = GrubJoinOperator(
        EpsilonJoin(1.0), [10.0] * 3, 1.0, rng=42, **operator_kwargs
    )
    config = SimulationConfig(duration=10.0, warmup=2.0,
                              adaptation_interval=2.0)
    result = Simulation(
        make_sources(), operator, CpuModel(3e4), config
    ).run()
    return operator, result


class TestNoTimer:
    def test_default_accounts_nothing(self):
        operator, _ = run_once()
        assert operator.adaptations > 0
        assert operator.solver_seconds_total == 0.0

    def test_runs_bit_identical_under_fixed_seed(self):
        op_a, res_a = run_once()
        op_b, res_b = run_once()
        assert op_a.tuples_processed == op_b.tuples_processed
        assert op_a.comparisons_total == op_b.comparisons_total
        assert res_a.throttle_series.values == res_b.throttle_series.values
        assert np.array_equal(op_a.harvest.counts, op_b.harvest.counts)
        assert res_a.output_count == res_b.output_count


class TestInjectedTimer:
    def test_manual_timer_accumulates(self):
        timer = ManualTimer()
        calls = []

        class CountingTimer:
            def __call__(self):
                calls.append(timer())
                timer.advance(0.125)  # each read advances an eighth
                return calls[-1]

        operator, _ = run_once(solver_timer=CountingTimer())
        # two reads per solver invocation, 0.125s apart
        solver_runs = len(calls) // 2
        assert solver_runs > 0
        assert operator.solver_seconds_total == 0.125 * solver_runs

    def test_timer_only_read_when_solver_runs(self):
        timer_calls = []

        def spy():
            timer_calls.append(True)
            return 0.0

        operator, _ = run_once(solver_timer=spy)
        assert len(timer_calls) % 2 == 0  # paired start/stop reads

    def test_wall_clock_timer_works(self):
        operator, _ = run_once(solver_timer=wall_clock_timer)
        assert operator.solver_seconds_total >= 0.0


class TestManualTimer:
    def test_advance(self):
        t = ManualTimer(1.0)
        assert t() == 1.0
        t.advance(0.5)
        assert t() == 1.5

    def test_rejects_negative_advance(self):
        import pytest

        with pytest.raises(ValueError):
            ManualTimer().advance(-1.0)
