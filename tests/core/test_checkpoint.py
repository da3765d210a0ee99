"""Tests for GrubJoin state checkpointing."""

import json

import numpy as np
import pytest

from repro.core import GrubJoinOperator
from repro.core.checkpoint import (
    load_snapshot,
    restore,
    save_snapshot,
    snapshot,
)
from repro.engine import CpuModel, Simulation, SimulationConfig
from repro.joins import EpsilonJoin
from repro.joins.columnar import ResultBlock
from repro.streams import (
    ConstantRate,
    LinearDriftProcess,
    StreamSource,
    StreamTuple,
    TraceSource,
)

WINDOW = 10.0
BASIC = 1.0


def make_operator(seed=0):
    return GrubJoinOperator(EpsilonJoin(1.0), [WINDOW] * 3, BASIC, rng=seed)


def make_traces(rate=30.0, duration=30.0, seed=3):
    sources = [
        StreamSource(
            i, ConstantRate(rate, phase=i * 1e-3),
            LinearDriftProcess(lag=2.0 * i, deviation=1.0, rng=seed + i),
        )
        for i in range(3)
    ]
    return [TraceSource(i, s.generate(duration)) for i, s in
            enumerate(sources)]


def warm_operator(duration=10.0, capacity=3e4, seed=0, trace_seed=3):
    """Run an operator under load to populate all its state."""
    op = make_operator(seed)
    traces = make_traces(duration=duration, seed=trace_seed)
    cfg = SimulationConfig(duration=duration, warmup=0.0,
                           adaptation_interval=2.0)
    Simulation(traces, op, CpuModel(capacity), cfg).run()
    return op


class TestSnapshotRestore:
    def test_roundtrip_preserves_state(self):
        op = warm_operator()
        state = snapshot(op, now=10.0)
        fresh = make_operator(seed=99)
        restore(fresh, state)

        assert fresh.throttle.z == op.throttle.z
        assert fresh.orders == op.orders
        assert np.allclose(fresh.harvest.counts, op.harvest.counts)
        assert np.allclose(fresh._rates, op._rates)
        for a, b in zip(fresh.histograms[1:], op.histograms[1:]):
            assert np.allclose(a.counts, b.counts)
        for i in range(3):
            assert fresh.windows[i].count_unexpired(10.0) == op.windows[
                i
            ].count_unexpired(10.0)

    def test_restored_operator_continues_identically(self):
        """A restored operator must process the remaining workload exactly
        like the original (same RNG state, same windows, same config)."""
        duration, half = 20.0, 10.0
        traces = make_traces(duration=duration)

        # run A straight through
        op_full = make_operator(seed=1)
        cfg_full = SimulationConfig(duration=duration, warmup=0.0,
                                    adaptation_interval=2.0)
        sim_full = Simulation(traces, op_full, CpuModel(3e4), cfg_full,
                              retain_outputs=True)
        sim_full.run()

        # run B: first half, snapshot, restore into a fresh operator
        op_a = make_operator(seed=1)
        first = [
            TraceSource(i, [t for t in tr.tuples if t.timestamp < half])
            for i, tr in enumerate(traces)
        ]
        cfg_half = SimulationConfig(duration=half, warmup=0.0,
                                    adaptation_interval=2.0)
        Simulation(first, op_a, CpuModel(3e4), cfg_half).run()
        state = snapshot(op_a, now=half)

        op_b = make_operator(seed=42)  # different seed; state overwritten
        restore(op_b, state)
        # process the second half directly through the operator and
        # compare the window/statistics evolution
        second = [t for tr in traces for t in tr.tuples
                  if t.timestamp >= half]
        second.sort(key=lambda t: (t.timestamp, t.stream))
        for t in second[:200]:
            op_b.process(t, t.timestamp)
        # sanity: windows consistent with the full run's at the same time
        t_last = second[199].timestamp
        for i in range(3):
            got = op_b.windows[i].count_unexpired(t_last)
            assert got > 0

    def test_seq_column_restored(self):
        """The restored windows carry the ``seq`` column: the next
        completed probes name exactly the original's results."""
        now = 10.0
        op = warm_operator(duration=now, capacity=1e9)
        fresh = make_operator(seed=99)
        restore(fresh, snapshot(op, now=now))
        for a, b in zip(op.windows, fresh.windows):
            want = [t.seq for t in a.iter_unexpired(now)]
            for pw in (a, b):
                assert [
                    q for s in pw.full_slices(now) for q in s.seqs.tolist()
                ] == want
        upcoming = sorted(
            (t for tr in make_traces(duration=now + 2.0) for t in tr.tuples
             if t.timestamp >= now),
            key=lambda t: (t.timestamp, t.stream),
        )
        blocks = 0
        for t in upcoming:
            original = op.process(t, t.timestamp).outputs
            restored = fresh.process(t, t.timestamp).outputs
            assert len(restored) == len(original)
            if original:
                assert isinstance(restored, ResultBlock)
                assert restored.seqs.tolist() == original.seqs.tolist()
                blocks += 1
        assert blocks > 0

    def test_rng_state_restored(self):
        op = warm_operator(seed=5)
        state = snapshot(op, now=10.0)
        fresh = make_operator(seed=1234)
        restore(fresh, state)
        assert [op._rng.random() for _ in range(5)] == [
            fresh._rng.random() for _ in range(5)
        ]

    def test_delivery_restored(self):
        """A late-delivered tuple keeps its delivery time, through JSON
        too: restore(snapshot(op)) gives back the same window."""
        late = StreamTuple(0.0, 1.0, 0, 0, delivery=1.5)
        op = make_operator()
        op.windows[0].insert(late, now=1.5)
        state = snapshot(op, now=2.0)
        for loaded in (state, json.loads(json.dumps(state))):
            fresh = make_operator(seed=99)
            restore(fresh, loaded)
            assert list(fresh.windows[0].iter_unexpired(2.0)) == [late]

    def test_snapshot_without_delivery_loads(self):
        """Snapshots written before ``delivery`` was recorded still
        load, as on-time tuples."""
        op = make_operator()
        op.windows[0].insert(StreamTuple(0.0, 1.0, 0, 0), now=1.0)
        state = snapshot(op, now=2.0)
        del state["windows"][0][0]["delivery"]
        fresh = make_operator(seed=99)
        restore(fresh, state)
        (got,) = fresh.windows[0].iter_unexpired(2.0)
        assert got.delivery is None and got.timestamp == 1.0

    def test_version_checked(self):
        op = warm_operator()
        state = snapshot(op, now=10.0)
        state["version"] = 999
        with pytest.raises(ValueError, match="version"):
            restore(make_operator(), state)

    def test_stream_count_checked(self):
        op = warm_operator()
        state = snapshot(op, now=10.0)
        other = GrubJoinOperator(EpsilonJoin(1.0), [WINDOW] * 4, BASIC)
        with pytest.raises(ValueError, match="stream count"):
            restore(other, state)

    def test_restored_histograms_refresh_cached_scores(self):
        """Restoring bumps each histogram's version, so an operator that
        already cached Eq. 2/4 scores recomputes them from the restored
        counts instead of serving its own."""
        now = 10.0
        state = snapshot(warm_operator(duration=now), now=now)
        used = warm_operator(duration=now, trace_seed=8)
        used.build_profile(now)  # fills the score cache
        before = [h.version for h in used.histograms[1:]]
        restore(used, state)
        for h, version in zip(used.histograms[1:], before):
            assert h.version > version
        fresh = make_operator(seed=99)
        restore(fresh, state)
        got, want = used.build_profile(now), fresh.build_profile(now)
        for i in range(3):
            for j in range(2):
                assert np.array_equal(got.masses[i][j], want.masses[i][j])

    def test_histogram_shape_checked(self):
        op = warm_operator()
        state = snapshot(op, now=10.0)
        state["histograms"][1] = [1.0, 2.0]
        with pytest.raises(ValueError, match="bucket"):
            restore(make_operator(), state)


class TestPersistence:
    def test_json_roundtrip(self, tmp_path):
        op = warm_operator()
        state = snapshot(op, now=10.0)
        path = save_snapshot(state, tmp_path / "join.ckpt.json")
        loaded = load_snapshot(path)
        fresh = make_operator()
        restore(fresh, loaded)
        assert fresh.throttle.z == op.throttle.z
        assert np.allclose(fresh.harvest.counts, op.harvest.counts)
