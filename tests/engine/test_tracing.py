"""Tests for operator observation (the ``repro.obs`` span API) and
GrubJoin's debug logging."""

import logging

from repro.core import GrubJoinOperator
from repro.engine import CpuModel, Simulation, SimulationConfig
from repro.joins import EpsilonJoin, MJoinOperator
from repro.obs import Obs, ObservedOperator
from repro.testkit import oracle_join
from repro.testkit.workloads import drift_sources, drift_workload


def make_sources(rate=20.0, m=3, seed=0):
    return drift_sources(
        m=m, rate=rate, seed=seed, lags=[1.0 * i for i in range(m)]
    )


def run_wrapped(wrapped, capacity=1e12, duration=6.0):
    cfg = SimulationConfig(duration=duration, warmup=0.0,
                           adaptation_interval=2.0)
    return Simulation(make_sources(), wrapped, CpuModel(capacity),
                      cfg).run()


class TestObservedOperator:
    def _run(self, obs=None, capacity=1e12):
        op = MJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 1.0)
        observed = ObservedOperator(op, obs)
        run_wrapped(observed, capacity)
        return observed

    def test_services_recorded(self):
        observed = self._run()
        spans = observed.service_spans()
        assert len(spans) == 360  # 3 streams * 20/s * 6s
        first = spans[0]
        assert first.name == "service"
        assert first.labels["stream"] in ("0", "1", "2")
        assert first.attrs["comparisons"] >= 0
        # wrapper spans are zero-width stamps at the service instant
        assert first.end == first.start

    def test_adaptations_recorded(self):
        observed = self._run()
        adapts = observed.obs.spans.named("adapt")
        assert len(adapts) == 3
        assert adapts[0].start == 2.0
        assert adapts[0].attrs["pushed"][0] == 40

    def test_total_comparisons_and_busiest(self):
        observed = self._run()
        assert observed.total_comparisons() > 0
        busiest = observed.busiest_services(5)
        assert len(busiest) == 5
        assert (busiest[0].attrs["comparisons"]
                >= busiest[-1].attrs["comparisons"])

    def test_max_spans_cap(self):
        obs = Obs(max_spans=10)
        observed = self._run(obs=obs)
        assert len(obs.spans.records) == 10
        assert obs.spans.dropped > 0

    def test_throttle_forwarded(self):
        grub = GrubJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 1.0, rng=0)
        observed = ObservedOperator(grub)
        cfg = SimulationConfig(duration=8.0, warmup=0.0,
                               adaptation_interval=2.0)
        res = Simulation(make_sources(rate=50.0), observed, CpuModel(2e4),
                         cfg).run()
        assert observed.throttle_fraction == grub.throttle_fraction
        # the runtime's throttle series captured the inner operator's z
        assert len(res.throttle_series) > 0
        recorded = [s.attrs["throttle"]
                    for s in observed.obs.spans.named("adapt")]
        assert recorded and all(z is not None for z in recorded)

    def test_inner_operator_metrics_bound(self):
        # wrapping binds the inner operator's own instruments too
        obs = Obs()
        grub = GrubJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 1.0, rng=0)
        observed = ObservedOperator(grub, obs)
        run_wrapped(observed, capacity=2e4, duration=6.0)
        adaptations = obs.registry.get(
            "grubjoin_adaptations_total",
            mode="inner", window_policy="sliding",
        )
        assert adaptations is not None and adaptations.value == 3

    def test_describe(self):
        observed = ObservedOperator(
            MJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 1.0)
        )
        assert observed.describe() == "Observed(MJoin(m=3))"

    def test_end_of_run_flush_forwarded(self):
        # an anti join releases its survivors at STOP, through
        # on_finish; a wrapper that does not forward it loses them
        workload = drift_workload(3, m=3, rate=20, duration=10,
                                  window=3, basic=0.5, epsilon=0.5)

        def count(wrap):
            op = MJoinOperator(workload.predicate, workload.window_sizes,
                               workload.basic, mode="anti")
            op = wrap(op)
            cfg = SimulationConfig(duration=workload.duration, warmup=0.0)
            result = Simulation(workload.traces, op, CpuModel(1e12),
                                cfg).run()
            return result.output_count_total, op

        bare, _ = count(lambda op: op)
        wrapped, observed = count(ObservedOperator)
        oracle = oracle_join(workload.traces,
                             **observed.testkit_profile())
        assert wrapped == bare == len(oracle.ids) == 600


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
