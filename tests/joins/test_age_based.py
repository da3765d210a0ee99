"""Tests for the memory-limited join with age-based replacement."""

import pytest

from repro.engine import CpuModel, Simulation, SimulationConfig
from repro.joins import (
    EpsilonJoin,
    EquiJoin,
    EvictionPolicy,
    MemoryLimitedMJoin,
    MJoinOperator,
)
from repro.streams import (
    ConstantRate,
    LinearDriftProcess,
    StreamSource,
    TraceSource,
)
from repro.obs import Obs
from repro.streams.tuples import StreamTuple
from repro.testkit import drift_workload, oracle_join, run_config

WINDOW = 20.0
BASIC = 2.0


def make_traces(rate=25.0, lags=(0.0, 15.0), duration=40.0, seed=3):
    sources = [
        StreamSource(
            i,
            ConstantRate(rate, phase=i * 1e-3),
            LinearDriftProcess(lag=lags[i], deviation=1.0, rng=seed + i),
        )
        for i in range(len(lags))
    ]
    return [TraceSource(i, s.generate(duration)) for i, s in
            enumerate(sources)]


def run(traces, op, duration=40.0):
    cfg = SimulationConfig(duration=duration, warmup=duration / 4,
                           adaptation_interval=2.0)
    return Simulation(traces, op, CpuModel(1e12), cfg).run()


class TestConstruction:
    def test_invalid(self):
        with pytest.raises(ValueError):
            MemoryLimitedMJoin(EpsilonJoin(1.0), [10.0] * 2, 1.0,
                               memory_budget=0)
        with pytest.raises(ValueError):
            MemoryLimitedMJoin(EpsilonJoin(1.0), [10.0] * 2, 1.0,
                               memory_budget=10, sampling=0)

    def test_policy_coercion(self):
        op = MemoryLimitedMJoin(EpsilonJoin(1.0), [10.0] * 2, 1.0,
                                memory_budget=10, policy="oldest")
        assert op.policy is EvictionPolicy.OLDEST
        assert "oldest" in op.describe()


class TestBudgetEnforcement:
    def test_memory_bounded(self):
        traces = make_traces()
        budget = 300
        op = MemoryLimitedMJoin(EpsilonJoin(1.0), [WINDOW] * 2, BASIC,
                                memory_budget=budget, rng=0)
        run(traces, op)
        # budget holds up to one in-flight basic window of slack
        assert op.stored_tuples() <= budget + 60
        assert op.tuples_evicted > 0

    def test_ample_budget_evicts_nothing(self):
        traces = make_traces(rate=10.0, duration=20.0)
        op = MemoryLimitedMJoin(EpsilonJoin(1.0), [WINDOW] * 2, BASIC,
                                memory_budget=10_000, rng=0)
        run(traces, op, duration=20.0)
        assert op.tuples_evicted == 0

    def test_matches_full_join_when_unconstrained(self):
        traces = make_traces(rate=10.0, duration=20.0)
        cfg = SimulationConfig(duration=20.0, warmup=0.0)
        lim = MemoryLimitedMJoin(EpsilonJoin(1.0), [WINDOW] * 2, BASIC,
                                 memory_budget=10_000, rng=0)
        sim_lim = Simulation(traces, lim, CpuModel(1e12), cfg,
                             retain_outputs=True)
        sim_lim.run()
        full = MJoinOperator(EpsilonJoin(1.0), [WINDOW] * 2, BASIC)
        sim_full = Simulation(traces, full, CpuModel(1e12), cfg,
                              retain_outputs=True)
        sim_full.run()
        assert {r.key() for r in sim_lim.output_buffer.results} == {
            r.key() for r in sim_full.output_buffer.results
        }


class TestAgeBasedAdvantage:
    def test_utility_beats_fifo_with_deep_lag(self):
        """With a 15 s lag inside a 20 s window, a tuple only becomes
        productive at age ~15 s.  FIFO eviction under memory pressure
        discards exactly the tuples approaching that age; utility-driven
        eviction keeps them — the Srivastava-Widom insight."""
        budget = 400  # ~ 40% of the unconstrained steady state
        outputs = {}
        for policy in (EvictionPolicy.UTILITY, EvictionPolicy.OLDEST):
            traces = make_traces(rate=25.0, lags=(0.0, 15.0))
            op = MemoryLimitedMJoin(
                EpsilonJoin(1.0), [WINDOW] * 2, BASIC,
                memory_budget=budget, policy=policy, sampling=0.25, rng=1,
            )
            res = run(traces, op)
            outputs[policy] = res.output_rate
        assert outputs[EvictionPolicy.UTILITY] > outputs[
            EvictionPolicy.OLDEST
        ]


class TestEvictionKeepsSliceCacheHonest:
    """Every retained row matches here (one constant key), so a probe that
    still scanned an evicted basic window would emit — or crash
    materializing — rows that are gone."""

    @pytest.mark.parametrize(
        "policy", [EvictionPolicy.OLDEST, EvictionPolicy.UTILITY]
    )
    def test_probes_see_exactly_the_retained_rows(self, policy):
        op = MemoryLimitedMJoin(
            EquiJoin(), [10.0] * 2, 1.0, memory_budget=40, policy=policy,
            sampling=0.25, rng=2,
        )
        horizon = op.windows[0].n * op.windows[0].basic_window_size
        seqs = [0, 0]
        for step in range(400):
            stream = step % 2
            now = step * 0.05
            tup = StreamTuple(7.0, now, stream=stream, seq=seqs[stream])
            seqs[stream] += 1
            other = op.windows[1 - stream]
            other.rotate_to(now)
            head, tail = other.live_rows
            retained = {
                t.seq
                for t in other.tuples[head:tail]
                if now - horizon < t.timestamp <= now
            }
            receipt = op.process(tup, now)
            got = [r.constituents[1 - stream].seq for r in receipt.outputs]
            assert sorted(got) == sorted(retained)
            assert receipt.comparisons == len(retained) + round(
                2.0 * len(retained)
            )
            for window in op.windows:
                for s in window.full_slices(now):
                    head, tail = window.live_rows
                    assert head <= s.lo and s.hi <= tail
        assert op.tuples_evicted > 0

    def test_evict_basic_window_contract(self):
        op = MemoryLimitedMJoin(EquiJoin(), [4.0] * 2, 1.0, memory_budget=99)
        window = op.windows[0]
        for i in range(30):
            window.insert(StreamTuple(1.0, i * 0.1, seq=i), i * 0.1)
        sizes = window.basic_window_sizes()
        assert sizes[:3] == [10, 10, 10] and sum(sizes) == len(window)
        before = window.full_slices(2.9)
        assert window.evict_basic_window(1) == 10
        after = window.full_slices(2.9)
        assert [len(s) for s in before] == [30]
        assert [len(s) for s in after] == [20]
        assert [t.seq for s in after for t in s.tuples] == [
            *range(10), *range(20, 30)
        ]
        assert window.basic_window_sizes()[:3] == [10, 0, 10]
        assert window.evict_basic_window(1) == 0
        for k in (0, window.n + 1):
            with pytest.raises(ValueError):
                window.evict_basic_window(k)


class TestIsAnMJoin:
    """The memory-limited join subclasses the substrate instead of
    hiding one, so the oracle can read its geometry and an obs binding
    reaches the probe counters."""

    def run_ample(self, **sim_kwargs):
        # aligned streams: every direction finds first-hop matches, so
        # every (direction, hop) really scans
        workload = drift_workload(seed=4, lags=[0.0] * 3)
        op = MemoryLimitedMJoin(
            workload.predicate, workload.window_sizes, workload.basic,
            memory_budget=10**6, sampling=0.5, rng=0,
        )
        sim = Simulation(
            workload.traces, op, CpuModel(1e12), run_config(workload),
            retain_outputs=True, **sim_kwargs,
        )
        sim.run()
        return workload, op, sim

    def test_ample_budget_equals_oracle_via_own_profile(self):
        workload, op, sim = self.run_ample()
        observed = {r.key() for r in sim.output_buffer.results}
        assert op.tuples_evicted == 0
        assert observed
        assert observed == oracle_join(
            workload.traces, **op.testkit_profile()
        ).id_set

    def test_obs_bound_run_exports_per_hop_comparisons(self):
        obs = Obs()
        _workload, op, _sim = self.run_ample(obs=obs)
        m = op.num_streams
        for direction in range(m):
            for hop in range(m - 1):
                counter = obs.registry.get(
                    "direction_comparisons_total",
                    direction=direction, hop=hop,
                    mode="inner", window_policy="sliding",
                )
                assert counter is not None, (direction, hop)
                assert counter.value > 0, (direction, hop)
