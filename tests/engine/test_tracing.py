"""Tests for GrubJoin's debug logging."""

import logging

from repro.core import GrubJoinOperator
from repro.engine import CpuModel, Simulation, SimulationConfig
from repro.joins import EpsilonJoin
from repro.testkit.workloads import drift_sources


def make_sources(rate=20.0, m=3, seed=0):
    return drift_sources(
        m=m, rate=rate, seed=seed, lags=[1.0 * i for i in range(m)]
    )


class TestAdaptLogging:
    def test_debug_log_emitted(self, caplog):
        op = GrubJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 1.0, rng=0)
        cfg = SimulationConfig(duration=6.0, warmup=0.0,
                               adaptation_interval=2.0)
        with caplog.at_level(logging.DEBUG, logger="repro.core.grubjoin"):
            Simulation(make_sources(rate=40.0), op, CpuModel(2e4),
                       cfg).run()
        adapt_logs = [r for r in caplog.records if "adapt" in r.message]
        assert len(adapt_logs) == 3
        assert "z=" in adapt_logs[0].getMessage()

    def test_silent_by_default(self, caplog):
        op = GrubJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 1.0, rng=0)
        cfg = SimulationConfig(duration=4.0, warmup=0.0,
                               adaptation_interval=2.0)
        with caplog.at_level(logging.INFO):
            Simulation(make_sources(), op, CpuModel(1e12), cfg).run()
        assert not [r for r in caplog.records
                    if r.name == "repro.core.grubjoin"]
