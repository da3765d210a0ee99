"""Tests for the CIKM'05-style adaptive two-way join baseline."""

import pytest

from repro.engine import BufferStats, CpuModel, Simulation, SimulationConfig
from repro.joins import (
    AdaptiveTwoWayJoin,
    BandJoin,
    EpsilonJoin,
    MJoinOperator,
    run_pipeline,
    run_pipeline_columnar,
    select_kernel,
)
from repro.streams import (
    ConstantRate,
    LinearDriftProcess,
    StreamSource,
    TraceSource,
)
from repro.testkit import drift_workload, oracle_join, run_config


def make_traces(rate=30.0, lag=4.0, duration=20.0, seed=0):
    sources = [
        StreamSource(
            i,
            ConstantRate(rate, phase=i * 1e-3),
            LinearDriftProcess(lag=lag * i, deviation=1.0, rng=seed + i),
        )
        for i in range(2)
    ]
    return [TraceSource(i, s.generate(duration)) for i, s in
            enumerate(sources)]


def stats(pushed, popped):
    return BufferStats(pushed=pushed, popped=popped, dropped=0, depth=0)


class TestConstruction:
    def test_requires_two_windows(self):
        with pytest.raises(ValueError):
            AdaptiveTwoWayJoin(EpsilonJoin(1.0), [10.0] * 3, 1.0)

    @pytest.mark.parametrize(
        "kwargs", [{"sampling": 0.0}, {"stat_decay": 0.0}]
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveTwoWayJoin(EpsilonJoin(1.0), [10.0] * 2, 1.0, **kwargs)


class TestCorrectness:
    def test_unthrottled_output_matches_mjoin(self):
        """With ample CPU the selective join never sheds, so its output
        equals the 2-way MJoin's on the same trace."""
        traces = make_traces()
        cfg = SimulationConfig(duration=20.0, warmup=0.0,
                               adaptation_interval=5.0)

        two = AdaptiveTwoWayJoin(EpsilonJoin(1.0), [10.0] * 2, 1.0, rng=0)
        sim_two = Simulation(traces, two, CpuModel(1e12), cfg,
                             retain_outputs=True)
        sim_two.run()

        mj = MJoinOperator(EpsilonJoin(1.0), [10.0] * 2, 1.0)
        sim_mj = Simulation(traces, mj, CpuModel(1e12), cfg,
                            retain_outputs=True)
        sim_mj.run()

        keys_two = {r.key() for r in sim_two.output_buffer.results}
        keys_mj = {r.key() for r in sim_mj.output_buffer.results}
        assert keys_two == keys_mj
        assert keys_two

    def test_sheds_under_overload_but_produces(self):
        traces = make_traces(rate=80.0)
        cfg = SimulationConfig(duration=20.0, warmup=5.0,
                               adaptation_interval=2.0)
        two = AdaptiveTwoWayJoin(EpsilonJoin(1.0), [10.0] * 2, 1.0, rng=0)
        res = Simulation(traces, two, CpuModel(2e4), cfg).run()
        assert two.throttle_fraction < 1.0
        assert res.output_rate > 0

    def test_selected_segments_track_the_lag(self):
        """With stream 2 lagged by +4 s, an S1 tuple's partners are the
        S2 tuples ~4 s older: direction 0's productive logical windows
        are 4/5, and the selection must home in on them under shedding."""
        traces = make_traces(rate=60.0, lag=4.0)
        cfg = SimulationConfig(duration=20.0, warmup=5.0,
                               adaptation_interval=2.0)
        two = AdaptiveTwoWayJoin(EpsilonJoin(1.0), [10.0] * 2, 1.0, rng=0,
                                 sampling=0.3)
        Simulation(traces, two, CpuModel(2e4), cfg).run()
        assert two.throttle_fraction < 1.0
        assert any(k in (3, 4) for k in two.selected[0])

    def test_adaptation_updates_selection(self):
        two = AdaptiveTwoWayJoin(EpsilonJoin(1.0), [10.0] * 2, 1.0, rng=0)
        # pretend heavy overload
        two.on_adapt(5.0, [stats(100, 10)] * 2, 5.0)
        assert two.throttle_fraction == pytest.approx(0.1)
        # a throttled selection keeps at least one segment per direction
        assert all(len(sel) >= 1 for sel in two.selected)

    def test_unbounded_capacity_equals_oracle_via_own_profile(self):
        """z stays 1, so sampled probes run at stride 1 and the budget
        covers every segment that ever matched.  Aligned streams put all
        partners at age < b (values drift 20/s against epsilon 1.5), so
        the segment the selection keeps is the only productive one."""
        workload = drift_workload(seed=6, m=2, lags=[0.0, 0.0])
        two = AdaptiveTwoWayJoin(
            workload.predicate, workload.window_sizes, workload.basic,
            sampling=0.5, rng=0,
        )
        sim = Simulation(workload.traces, two, CpuModel(1e12),
                         run_config(workload), retain_outputs=True)
        sim.run()
        assert two.throttle_fraction == 1.0
        assert 0 < two.tuples_sampled < two.tuples_processed
        observed = {r.key() for r in sim.output_buffer.results}
        assert observed
        assert observed == oracle_join(
            workload.traces, **two.testkit_profile()
        ).id_set

    @pytest.mark.parametrize(
        "predicate, kernel",
        [
            (EpsilonJoin(1.0), run_pipeline_columnar),
            (BandJoin(0.5, 2.5), run_pipeline),
        ],
    )
    def test_kernel_follows_the_predicate(self, predicate, kernel):
        two = AdaptiveTwoWayJoin(predicate, [10.0] * 2, 1.0)
        assert two._kernel is kernel
        assert two._kernel is select_kernel(predicate)
