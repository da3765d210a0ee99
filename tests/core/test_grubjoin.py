"""Tests for the assembled GrubJoin operator."""

import numpy as np
import pytest

from repro.core import GrubJoinOperator
from repro.core.throttle import ThrottleController
from repro.engine import BufferStats, CpuModel, Simulation, SimulationConfig
from repro.joins import EpsilonJoin, MJoinOperator
from repro.streams import (
    ConstantRate,
    LinearDriftProcess,
    StreamSource,
    TraceSource,
)


def make_operator(**kwargs):
    defaults = dict(rng=0)
    defaults.update(kwargs)
    return GrubJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 1.0, **defaults)


def make_sources(rate=50.0, taus=(0.0, 2.0, 4.0), kappas=(1.0, 1.0, 5.0),
                 m=3, seed=3):
    return [
        StreamSource(
            i,
            ConstantRate(rate, phase=i * 0.001),
            LinearDriftProcess(lag=taus[i], deviation=kappas[i], rng=seed + i),
        )
        for i in range(m)
    ]


def stats(pushed, popped):
    return BufferStats(pushed=pushed, popped=popped, dropped=0, depth=0)


class TestConstruction:
    def test_defaults(self):
        op = make_operator()
        assert op.num_streams == 3
        assert op.throttle_fraction == 1.0
        assert op.segments == [10, 10, 10]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sampling": 0.0},
            {"sampling": 1.5},
            {"solver": "quantum"},
            {"index": "btree"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            make_operator(**kwargs)

    def test_too_few_streams(self):
        with pytest.raises(ValueError):
            GrubJoinOperator(EpsilonJoin(1.0), [10.0], 1.0)

    def test_histograms_sized_per_stream(self):
        # unequal windows: stream i's lag histogram spans
        # [-n_i*b, n_1*b], so a shared bucket count cannot give every
        # stream two buckets per basic window — sizing must be per stream
        op = GrubJoinOperator(EpsilonJoin(1.0), [10.0, 6.0, 4.0], 1.0,
                              rng=0)
        b = op.basic_window_size
        for s in (1, 2):
            hist = op.histograms[s]
            assert hist.low == -op.segments[s] * b
            assert hist.high == op.segments[0] * b
            assert hist.buckets == 2 * (op.segments[s] + op.segments[0])
            assert hist.width == pytest.approx(b / 2)


class TestSubsetProperty:
    def test_harvested_output_is_subset_of_full_join(self):
        """Load shedding must only ever *lose* results, never invent them:
        every GrubJoin output on a trace is also a full-MJoin output."""
        traces = [
            TraceSource(i, s.generate(20.0))
            for i, s in enumerate(make_sources(rate=20.0))
        ]
        cfg = SimulationConfig(duration=20.0, warmup=0.0,
                               adaptation_interval=2.0)

        full = MJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 1.0)
        sim_full = Simulation(traces, full, CpuModel(1e12), cfg,
                              retain_outputs=True)
        sim_full.run()
        full_keys = {r.key() for r in sim_full.output_buffer.results}

        # constrain the CPU so GrubJoin actually sheds
        grub = make_operator()
        sim_grub = Simulation(traces, grub, CpuModel(5e3), cfg,
                              retain_outputs=True)
        sim_grub.run()
        grub_keys = {r.key() for r in sim_grub.output_buffer.results}

        assert grub.throttle_fraction < 1.0  # it did shed
        assert grub_keys  # it still produced something
        assert grub_keys <= full_keys

    def test_equals_full_join_when_capacity_ample(self):
        """With no overload the throttle stays at 1, harvesting selects
        everything and shredding degenerates to the full join — output
        must match MJoin's exactly."""
        traces = [
            TraceSource(i, s.generate(15.0))
            for i, s in enumerate(make_sources(rate=20.0))
        ]
        cfg = SimulationConfig(duration=15.0, warmup=0.0)
        full = MJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 1.0)
        sf = Simulation(traces, full, CpuModel(1e12), cfg,
                        retain_outputs=True)
        sf.run()
        grub = make_operator()
        sg = Simulation(traces, grub, CpuModel(1e12), cfg,
                        retain_outputs=True)
        sg.run()
        assert grub.throttle_fraction == 1.0
        assert {r.key() for r in sg.output_buffer.results} == {
            r.key() for r in sf.output_buffer.results
        }


class TestAdaptation:
    def test_throttle_falls_under_overload(self):
        op = make_operator()
        op.on_adapt(5.0, [stats(100, 20)] * 3, 5.0)
        assert op.throttle_fraction == pytest.approx(0.2)
        assert op.adaptations == 1

    def test_harvest_reconfigured_under_overload(self):
        op = make_operator()
        # fill the windows so the cost model sees real work to shed
        now = 0.0
        for src in make_sources(rate=50.0):
            for tup in src.generate(5.0):
                op.windows[tup.stream].insert(tup, now=max(now, tup.timestamp))
        op.on_adapt(5.0, [stats(500, 100)] * 3, 5.0)
        assert op.throttle_fraction < 1.0
        full = np.array([[10, 10]] * 3)
        assert (op.harvest.counts < full).any()
        assert op.last_solver_result is not None

    def test_empty_windows_keep_full_harvest(self):
        """With nothing in the windows the modeled full cost is zero, so
        even a small throttle budget admits the full configuration."""
        op = make_operator()
        op.on_adapt(5.0, [stats(500, 100)] * 3, 5.0)
        assert (op.harvest.counts == 10).all()

    def test_full_harvest_restored_at_z_one(self):
        op = make_operator()
        op.throttle = ThrottleController(gamma=10.0)
        op.on_adapt(5.0, [stats(100, 50)] * 3, 5.0)
        assert op.throttle_fraction < 1
        op.on_adapt(10.0, [stats(100, 100)] * 3, 5.0)
        assert op.throttle_fraction == 1.0
        assert (op.harvest.counts == 10).all()

    def test_z_history_recorded(self):
        # the host records z once per adaptation tick; the operator
        # keeps no copy of its own
        op = make_operator()
        cfg = SimulationConfig(duration=4.0, warmup=0.0,
                               adaptation_interval=2.0)
        result = Simulation(make_sources(rate=5.0), op, CpuModel(1e12),
                            cfg).run()
        assert result.throttle_series.times == [2.0, 4.0]
        assert result.throttle_series.values == [op.throttle_fraction] * 2
        assert not hasattr(op, "z_history")

    def test_double_sided_solver_used(self):
        op = make_operator(solver="double-sided")
        op.on_adapt(5.0, [stats(500, 400)] * 3, 5.0)  # z = 0.8 > switch
        assert "double-sided" in op.last_solver_result.method


class TestLearning:
    def _run_learning(self, taus, duration=20.0):
        op = make_operator(sampling=0.3)
        cfg = SimulationConfig(duration=duration, warmup=0.0,
                               adaptation_interval=2.0)
        sources = make_sources(rate=30.0, taus=taus, kappas=(0.5, 0.5, 0.5))
        Simulation(sources, op, CpuModel(1e12), cfg).run()
        return op

    def test_histograms_learn_the_lag(self):
        # stream 1 lags stream 0 by 2 s: matching pairs have
        # A_{1,0} = T(t1) - T(t0) = +/-2 depending on probe direction
        op = self._run_learning(taus=(0.0, 2.0, 4.0))
        hist = op.histograms[1]
        assert hist.total > 10
        centers = hist.centers()
        top = centers[np.argsort(hist.probabilities())[-2:]]
        assert any(abs(abs(c) - 2.0) < 1.0 for c in top)

    def test_shredding_fraction_near_omega(self):
        op = self._run_learning(taus=(0.0, 2.0, 4.0))
        frac = op.tuples_shredded / op.tuples_processed
        assert frac == pytest.approx(0.3, abs=0.08)

    def test_selectivity_estimates_populated(self):
        op = self._run_learning(taus=(0.0, 2.0, 4.0))
        m = np.asarray(op.selectivity.matrix())
        assert (m > 0).all()


class TestEndToEndShedding:
    def test_beats_unthrottled_queueing_under_overload(self):
        """Under heavy overload GrubJoin should sustain a healthy output
        rate while keeping consumption matched to arrivals."""
        cfg = SimulationConfig(duration=20.0, warmup=5.0,
                               adaptation_interval=2.0)
        op = make_operator()
        res = Simulation(
            make_sources(rate=100.0), op, CpuModel(1e5), cfg
        ).run()
        assert op.throttle_fraction < 0.9
        assert res.output_rate > 0
        # the throttle keeps queues bounded: the backlog is not growing at
        # the end of the run the way an unthrottled overload would
        depths = res.queue_depths[0].values
        assert depths[-1] <= max(depths) * 1.1
        consumed = sum(s.consumed for s in res.streams)
        arrived = sum(s.arrived for s in res.streams)
        assert consumed > 0.5 * arrived
