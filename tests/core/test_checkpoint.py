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
from repro.engine import BufferStats, CpuModel, Simulation, SimulationConfig
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

    @pytest.mark.parametrize(
        "predicate, index",
        [(EpsilonJoin(1.0), None), (EpsilonJoin(0.0), "hash"),
         (EpsilonJoin(1.0), "range")],
        ids=["none", "hash", "range"],
    )
    def test_restored_operator_continues_identically(self, predicate, index):
        """A restored operator processes the rest of the workload exactly
        like the one it was snapshotted from: the same comparisons and
        the same results for every tuple, adaptation steps included."""
        half, adapt = 10.0, 2.0
        traces = make_traces(duration=3 * half)
        original, restored = (
            GrubJoinOperator(predicate, [WINDOW] * 3, BASIC, rng=seed,
                             index=index)
            for seed in (1, 42)  # the restore overwrites the RNG state
        )
        first = [
            TraceSource(i, [t for t in tr.tuples if t.timestamp < half])
            for i, tr in enumerate(traces)
        ]
        cfg = SimulationConfig(duration=half, warmup=0.0,
                               adaptation_interval=adapt)
        Simulation(first, original, CpuModel(3e4), cfg).run()
        restore(restored, snapshot(original, now=half))

        second = sorted(
            (t for tr in traces for t in tr.tuples if t.timestamp >= half),
            key=lambda t: (t.timestamp, t.stream),
        )
        pushed = [0] * 3
        next_adapt = half + adapt
        outputs = 0
        for t in second:
            while t.timestamp >= next_adapt:
                # 3/4 of each stream's arrivals consumed: the throttle
                # and the harvest stay in play
                stats = [BufferStats(pushed=p, popped=p - p // 4, dropped=0,
                                     depth=p // 4) for p in pushed]
                for op in (original, restored):
                    op.on_adapt(next_adapt, stats, adapt)
                pushed = [0] * 3
                next_adapt += adapt
            pushed[t.stream] += 1
            want = original.process(t, t.timestamp)
            got = restored.process(t, t.timestamp)
            assert got.comparisons == want.comparisons
            assert [r.key() for r in got.outputs] == [
                r.key() for r in want.outputs
            ]
            outputs += len(want.outputs)
        assert outputs > 0 or index == "hash"

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

    @pytest.mark.parametrize("window, basic", [(20.0, 2.0), (20.0, BASIC),
                                               (WINDOW, 2.0)])
    def test_window_sizes_checked(self, window, basic):
        """Lag histograms are bucketed by basic window: a snapshot only
        loads into an operator with the same window geometry."""
        state = snapshot(warm_operator(), now=10.0)
        other = GrubJoinOperator(EpsilonJoin(1.0), [window] * 3, basic)
        with pytest.raises(ValueError, match="window sizes"):
            restore(other, state)
        restore(make_operator(), json.loads(json.dumps(state)))

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
