"""Tests for deterministic fault injection (streams and CPU)."""

import pytest

from repro.streams import StreamTuple, TraceSource
from repro.testkit import (
    DegradedCpu,
    chaos_matrix,
    default_scenarios,
    duplicate_delivery,
    rate_spike,
    reorder,
    stall,
)
from repro.testkit.workloads import drift_workload


def make_trace(stream=0, n=20, spacing=0.25):
    return TraceSource(
        stream,
        [
            StreamTuple(value=float(i), timestamp=i * spacing,
                        stream=stream, seq=i)
            for i in range(n)
        ],
    )


class TestFrozenSource:
    """A frozen delivery schedule is a :class:`TraceSource` ordered by
    delivery time."""

    def test_requires_delivery_order(self):
        late = StreamTuple(value=1.0, timestamp=0.0, stream=0, seq=0,
                           delivery=2.0)
        early = StreamTuple(value=2.0, timestamp=1.0, stream=0, seq=1)
        with pytest.raises(ValueError, match="delivery"):
            TraceSource(0, [late, early])
        # swapped, the same tuples are a valid frozen stream
        assert len(TraceSource(0, [early, late]).tuples) == 2

    def test_iterates_by_delivery_horizon(self):
        late = StreamTuple(value=1.0, timestamp=0.0, stream=0, seq=0,
                           delivery=2.0)
        source = TraceSource(0, [late])
        assert source.generate(1.0) == []
        assert source.generate(3.0) == [late]


class TestStall:
    def test_defer_releases_burst_at_end(self):
        faulted = stall(make_trace(), 1.0, 2.0, mode="defer")
        stalled = [t for t in faulted.tuples
                   if 1.0 <= t.timestamp < 2.0]
        assert stalled and all(
            t.delivery_time == 2.0 for t in stalled
        )
        # logical stream unchanged: same identities, same timestamps
        assert {(t.seq, t.timestamp) for t in faulted.tuples} == {
            (t.seq, t.timestamp) for t in make_trace().tuples
        }

    def test_drop_loses_the_interval(self):
        faulted = stall(make_trace(), 1.0, 2.0, mode="drop")
        assert all(
            not 1.0 <= t.delivery_time < 2.0 for t in faulted.tuples
        )
        assert len(faulted.tuples) < len(make_trace().tuples)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            stall(make_trace(), 2.0, 1.0)
        with pytest.raises(ValueError):
            stall(make_trace(), 1.0, 2.0, mode="pause")


class TestRateSpike:
    def test_adds_fresh_identities_inside_interval(self):
        base = make_trace()
        faulted = rate_spike(base, 1.0, 3.0, factor=3.0, rng=5)
        clones = [t for t in faulted.tuples
                  if t.seq >= len(base.tuples)]
        originals = [t for t in base.tuples if 1.0 <= t.timestamp < 3.0]
        assert len(clones) == 2 * len(originals)
        assert all(1.0 <= t.timestamp < 3.0 for t in clones)
        assert len({t.seq for t in faulted.tuples}) == len(
            faulted.tuples
        )

    def test_fractional_factor_is_seeded(self):
        a = rate_spike(make_trace(), 0.0, 5.0, factor=1.5, rng=5)
        b = rate_spike(make_trace(), 0.0, 5.0, factor=1.5, rng=5)
        c = rate_spike(make_trace(), 0.0, 5.0, factor=1.5, rng=6)
        key = lambda s: [(t.seq, t.timestamp) for t in s.tuples]  # noqa: E731
        assert key(a) == key(b)
        assert key(a) != key(c)

    def test_rejects_shrinking_factor(self):
        with pytest.raises(ValueError):
            rate_spike(make_trace(), 0.0, 1.0, factor=0.5)


class TestDuplicatesAndReorder:
    def test_duplicates_keep_identity(self):
        faulted = duplicate_delivery(make_trace(), probability=0.5,
                                     rng=5)
        assert len(faulted.tuples) > len(make_trace().tuples)
        ids = [(t.stream, t.seq) for t in faulted.tuples]
        assert len(set(ids)) == len(make_trace().tuples)

    def test_duplicate_probability_bounds(self):
        with pytest.raises(ValueError):
            duplicate_delivery(make_trace(), probability=1.5)
        clean = duplicate_delivery(make_trace(), probability=0.0,
                                   rng=5)
        assert len(clean.tuples) == len(make_trace().tuples)

    def test_reorder_bounds_delivery_lag(self):
        dense = make_trace(n=40, spacing=0.1)
        faulted = reorder(dense, max_delay=0.4, rng=5)
        assert len(faulted.tuples) == len(dense.tuples)
        assert all(
            0.0 <= t.delivery_time - t.timestamp <= 0.4
            for t in faulted.tuples
        )
        deliveries = [t.delivery_time for t in faulted.tuples]
        assert deliveries == sorted(deliveries)
        stamps = [t.timestamp for t in faulted.tuples]
        assert stamps != sorted(stamps)  # genuinely out of order


class TestDegradedCpu:
    def test_step_schedule(self):
        cpu = DegradedCpu(100.0, [(1.0, 0.1), (2.0, 1.0)])
        assert cpu.factor_at(0.5) == 1.0
        assert cpu.factor_at(1.5) == 0.1
        assert cpu.factor_at(2.5) == 1.0

    def test_degraded_interval_slows_service(self):
        fast = DegradedCpu(100.0, [(1.0, 0.1), (2.0, 1.0)])
        t0 = fast.begin(0.0, 100)
        t1 = fast.begin(1.5, 100)
        # completion lag ~1 s at full speed, ~10 s degraded
        assert t1 - 1.5 > 5 * (t0 - 0.0)
        # base capacity restored after every service
        assert fast.comparisons_per_second == 100.0

    def test_rejects_nonpositive_factors(self):
        with pytest.raises(ValueError):
            DegradedCpu(100.0, [(1.0, 0.0)])


class TestChaosMatrix:
    def test_all_scenarios_subset_and_replayable(self):
        workload = drift_workload(1, duration=6.0)
        verdict = chaos_matrix([workload], seed=7)
        assert verdict["ok"], verdict["failures"]
        rows = verdict["workloads"][workload.name]
        assert set(rows) == {
            s.name for s in default_scenarios()
        }
        for name, row in rows.items():
            assert row["subset_ok"], name
            assert row["replay_ok"], name
            assert row["oracle"] > 0, name

    def test_verdict_is_seed_stable(self):
        workload = drift_workload(1, duration=4.0)
        a = chaos_matrix([workload], seed=7)
        b = chaos_matrix([workload], seed=7)
        assert a == b
