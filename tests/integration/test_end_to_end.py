"""Cross-module integration tests: the paper's claims at small scale."""

import numpy as np
import pytest

from repro.core import GrubJoinOperator, Metric
from repro.engine import CpuModel, Simulation, SimulationConfig
from repro.joins import EpsilonJoin, MJoinOperator, RandomDropShedder
from repro.streams import (
    ConstantRate,
    LinearDriftProcess,
    StreamSource,
    TraceSource,
)

WINDOW = 10.0
BASIC = 1.0
TAUS = (0.0, 2.0, 4.0)
KAPPAS = (1.0, 1.0, 20.0)


def traces(rate, duration, seed=11):
    sources = [
        StreamSource(
            i,
            ConstantRate(rate, phase=i * 0.001),
            LinearDriftProcess(lag=TAUS[i], deviation=KAPPAS[i], rng=seed + i),
        )
        for i in range(3)
    ]
    return [TraceSource(i, s.generate(duration)) for i, s in
            enumerate(sources)]


def grub_operator(**kwargs):
    return GrubJoinOperator(EpsilonJoin(1.0), [WINDOW] * 3, BASIC, rng=5,
                            **kwargs)


def full_operator():
    return MJoinOperator(EpsilonJoin(1.0), [WINDOW] * 3, BASIC)


@pytest.fixture(scope="module")
def calibrated():
    """Capacity that the full join at rate 20 just saturates."""
    cfg = SimulationConfig(duration=20.0, warmup=5.0,
                           adaptation_interval=2.0)
    tr = traces(20.0, 20.0)
    cpu = CpuModel(1e15)
    Simulation(tr, full_operator(), cpu, cfg).run()
    return (cpu.busy_time * 1e15) / 20.0


class TestHeadlineClaim:
    def test_grubjoin_beats_random_drop_under_overload(self, calibrated):
        """The paper's central result at miniature scale: with 4x the knee
        rate, time-correlation-aware window harvesting sustains a higher
        output rate than optimized tuple dropping."""
        cfg = SimulationConfig(duration=25.0, warmup=10.0,
                               adaptation_interval=2.0)
        tr = traces(80.0, 25.0)

        grub = grub_operator()
        res_g = Simulation(tr, grub, CpuModel(calibrated), cfg).run()

        mj = full_operator()
        shed = RandomDropShedder(mj, calibrated, rng=6)
        res_r = Simulation(
            tr, mj, CpuModel(calibrated), cfg, admission=shed.filters
        ).run()

        assert grub.throttle_fraction < 1.0
        assert shed.last_plan.keep.max() < 1.0
        assert res_g.output_rate > res_r.output_rate

    def test_no_load_shedding_below_knee(self, calibrated):
        """Below the knee both approaches deliver the full join output."""
        cfg = SimulationConfig(duration=20.0, warmup=8.0,
                               adaptation_interval=2.0)
        tr = traces(10.0, 20.0)
        grub = grub_operator()
        res_g = Simulation(tr, grub, CpuModel(calibrated), cfg).run()
        mj = full_operator()
        shed = RandomDropShedder(mj, calibrated, rng=6)
        res_r = Simulation(
            tr, mj, CpuModel(calibrated), cfg, admission=shed.filters
        ).run()
        full = full_operator()
        res_f = Simulation(tr, full, CpuModel(1e15), cfg).run()
        assert res_g.output_rate == pytest.approx(res_f.output_rate, rel=0.25)
        assert res_r.output_rate == pytest.approx(res_f.output_rate, rel=0.25)


class TestThrottleDynamics:
    def test_z_tracks_rate_steps(self, calibrated):
        """When the input rate steps down, the boost factor recovers z."""
        from repro.streams import PiecewiseRate

        cfg = SimulationConfig(duration=30.0, warmup=5.0,
                               adaptation_interval=1.0)
        sources = [
            StreamSource(
                i,
                PiecewiseRate([(0.0, 80.0), (15.0, 8.0)]),
                LinearDriftProcess(lag=TAUS[i], deviation=KAPPAS[i],
                                   rng=20 + i),
            )
            for i in range(3)
        ]
        op = grub_operator()
        res = Simulation(sources, op, CpuModel(calibrated), cfg).run()
        zs = dict(zip(res.throttle_series.times, res.throttle_series.values))
        z_overloaded = np.mean([z for t, z in zs.items() if 8 <= t <= 15])
        z_recovered = np.mean([z for t, z in zs.items() if t >= 25])
        assert z_overloaded < 0.9
        assert z_recovered > z_overloaded

    def test_utilization_high_under_overload(self, calibrated):
        cfg = SimulationConfig(duration=20.0, warmup=5.0,
                               adaptation_interval=2.0)
        tr = traces(80.0, 20.0)
        op = grub_operator()
        res = Simulation(tr, op, CpuModel(calibrated), cfg).run()
        assert res.cpu_utilization > 0.6


class TestMetricsUnderLoad:
    @pytest.mark.parametrize(
        "metric",
        [
            Metric.BEST_OUTPUT,
            Metric.BEST_OUTPUT_PER_COST,
            Metric.BEST_DELTA_OUTPUT_PER_DELTA_COST,
        ],
    )
    def test_all_metrics_function_end_to_end(self, calibrated, metric):
        cfg = SimulationConfig(duration=20.0, warmup=8.0,
                               adaptation_interval=2.0)
        tr = traces(60.0, 20.0)
        op = grub_operator(metric=metric)
        res = Simulation(tr, op, CpuModel(calibrated), cfg).run()
        assert res.output_rate > 0

    def test_double_sided_solver_end_to_end(self, calibrated):
        cfg = SimulationConfig(duration=20.0, warmup=8.0,
                               adaptation_interval=2.0)
        tr = traces(60.0, 20.0)
        op = grub_operator(solver="double-sided")
        res = Simulation(tr, op, CpuModel(calibrated), cfg).run()
        assert res.output_rate > 0


class TestDeterminism:
    def test_same_seeds_same_results(self, calibrated):
        cfg = SimulationConfig(duration=15.0, warmup=5.0,
                               adaptation_interval=2.0)

        def run_once():
            tr = traces(60.0, 15.0)
            op = grub_operator()
            return Simulation(tr, op, CpuModel(calibrated), cfg).run()

        a, b = run_once(), run_once()
        assert a.output_count_total == b.output_count_total
        assert a.cpu_utilization == b.cpu_utilization
