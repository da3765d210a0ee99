"""Tests for the index-accelerated m-way join."""

import pytest

from repro.engine import CpuModel, Simulation, SimulationConfig
from repro.joins import (
    BandJoin,
    EpsilonJoin,
    IndexedMJoin,
    InnerProductJoin,
    MJoinOperator,
)
from repro.streams import (
    ConstantRate,
    LinearDriftProcess,
    StreamSource,
    TraceSource,
)


def make_traces(rate=20.0, m=3, duration=15.0, seed=0):
    sources = [
        StreamSource(
            i,
            ConstantRate(rate, phase=i * 1e-3),
            LinearDriftProcess(lag=2.0 * i, deviation=1.0, rng=seed + i),
        )
        for i in range(m)
    ]
    return [TraceSource(i, s.generate(duration)) for i, s in
            enumerate(sources)]


class TestCorrectness:
    def test_same_output_as_nlj_mjoin(self):
        traces = make_traces()
        cfg = SimulationConfig(duration=15.0, warmup=0.0)

        nlj = MJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 1.0,
                            adapt_orders=False)
        sim_nlj = Simulation(traces, nlj, CpuModel(1e12), cfg,
                             retain_outputs=True)
        sim_nlj.run()

        idx = IndexedMJoin(EpsilonJoin(1.0), [10.0] * 3, 1.0)
        sim_idx = Simulation(traces, idx, CpuModel(1e12), cfg,
                             retain_outputs=True)
        sim_idx.run()

        keys_nlj = {r.key() for r in sim_nlj.output_buffer.results}
        keys_idx = {r.key() for r in sim_idx.output_buffer.results}
        assert keys_idx == keys_nlj
        assert keys_idx

    def test_far_less_work_than_nlj(self):
        traces = make_traces(rate=40.0)
        cfg = SimulationConfig(duration=15.0, warmup=0.0)
        nlj = MJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 1.0,
                            adapt_orders=False, output_cost=0.0)
        Simulation(traces, nlj, CpuModel(1e12), cfg).run()
        idx = IndexedMJoin(EpsilonJoin(1.0), [10.0] * 3, 1.0,
                           output_cost=0.0)
        Simulation(traces, idx, CpuModel(1e12), cfg).run()
        assert idx.work_total < nlj.comparisons_total / 5


class TestValidation:
    def test_requires_scalar_predicate(self):
        with pytest.raises(ValueError):
            IndexedMJoin(InnerProductJoin(0.1), [10.0] * 3, 1.0)

    def test_rejects_scalar_predicate_without_interval_context(self):
        # regression: BandJoin is scalar-storage but its probe context is
        # not one (low, high) interval — this used to construct and then
        # die unpacking probe_context on the first probe
        with pytest.raises(ValueError, match="interval-context"):
            IndexedMJoin(BandJoin(0.5, 1.0), [10.0] * 3, 1.0)

    def test_requires_two_streams(self):
        with pytest.raises(ValueError):
            IndexedMJoin(EpsilonJoin(1.0), [10.0], 1.0)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            IndexedMJoin(EpsilonJoin(1.0), [10.0] * 3, 1.0,
                         orders=[[0, 1]] * 3)

    def test_describe(self):
        op = IndexedMJoin(EpsilonJoin(1.0), [10.0] * 3, 1.0)
        assert "m=3" in op.describe()
