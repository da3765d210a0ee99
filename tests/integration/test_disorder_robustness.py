"""Failure injection: the join stack under out-of-order deliveries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GrubJoinOperator
from repro.core.basic_windows import PartitionedWindow
from repro.engine import CpuModel, Simulation, SimulationConfig
from repro.joins import EpsilonJoin, MJoinOperator
from repro.streams import (
    ConstantRate,
    DisorderedSource,
    LinearDriftProcess,
    StreamSource,
    StreamTuple,
)


def tup(ts, value=None, seq=0):
    return StreamTuple(
        value=float(ts) if value is None else value,
        timestamp=float(ts), stream=0, seq=seq,
    )


def one_window():
    """A store whose rows all sit in the filling basic window."""
    return PartitionedWindow(1e6, 1e6)


class TestInsertSorted:
    def test_inserts_in_order_position(self):
        bw = one_window()
        for ts in (1.0, 3.0, 5.0):
            bw.insert(tup(ts), now=5.0)
        bw.insert(tup(2.0), now=5.0)
        assert list(bw.timestamps) == [1.0, 2.0, 3.0, 5.0]
        assert [t.timestamp for t in bw.tuples] == [1.0, 2.0, 3.0, 5.0]

    def test_values_follow(self):
        bw = one_window()
        bw.insert(tup(1.0, value=10.0), now=3.0)
        bw.insert(tup(3.0, value=30.0), now=3.0)
        bw.insert(tup(2.0, value=20.0), now=3.0)
        assert list(bw.values) == [10.0, 20.0, 30.0]
        assert list(bw.seqs) == [t.seq for t in bw.tuples]

    def test_append_fast_path(self):
        """An in-order tuple is written at the tail: no row moves and
        no column is reallocated."""
        bw = one_window()
        first = tup(1.0)
        bw.insert(first, now=2.0)
        columns = [bw._ts, bw._vals, bw._seq, bw._tups]
        slot = bw.derived(0)
        slot["marker"] = 1
        second = tup(2.0)
        bw.insert(second, now=2.0)
        assert list(bw.timestamps) == [1.0, 2.0]
        assert bw.derived(0) is slot and slot == {"marker": 1}
        assert all(a is b for a, b in zip(
            [bw._ts, bw._vals, bw._seq, bw._tups], columns))
        assert bw.tuples[0] is first and bw.tuples[1] is second

    @pytest.mark.parametrize("mode", ["scalar", "vector", "generic"])
    def test_rare_paths_shift_in_place(self, mode):
        """With spare capacity, a late insert and a mid-store eviction
        move rows inside the columns they already have: no column is
        copied into a new array or rebound, in any storage mode."""
        w = PartitionedWindow(4.0, 1.0, mode=mode,
                              dim=2 if mode == "vector" else None)
        value = {"scalar": lambda ts: ts, "vector": lambda ts: [ts, -ts],
                 "generic": lambda ts: {"k": ts}}[mode]
        inserted = [
            StreamTuple(value=value(0.25 * i), timestamp=0.25 * i,
                        stream=0, seq=i)
            for i in range(14)
        ]
        for t in inserted:
            w.insert(t, now=t.timestamp)
        assert len(w._ts) > len(w) + 1  # spare capacity
        columns = [w._ts, w._vals, w._seq, w._tups]
        late = StreamTuple(value=value(1.6), timestamp=1.6, stream=0,
                           seq=99)
        w.insert(late, now=3.25)
        start, stop = w.window_rows(1)
        assert w.evict_basic_window(1) == stop - start > 0
        assert w.window_rows(2)[1] == start  # the gap is closed
        assert all(a is b for a, b in zip(
            [w._ts, w._vals, w._seq, w._tups], columns))
        head, tail = w.live_rows
        kept = [t for t in [*inserted, late]
                if not 2.0 <= t.timestamp < 3.0]
        kept.sort(key=lambda t: t.timestamp)
        assert all(a is b for a, b in zip(w.tuples[head:tail], kept))
        assert len(w) == len(kept)
        # the vacated rows no longer hold the evicted tuples
        assert all(t is None for t in w._tups[tail:])

    def test_version_bumped(self):
        bw = one_window()
        bw.insert(tup(2.0), now=2.0)
        bw.derived(0)["marker"] = 1
        version = bw.frozen_version
        bw.insert(tup(3.0), now=3.0)
        # an append keeps row numbers: the slot survives
        assert bw.derived(0) == {"marker": 1}
        bw.insert(tup(1.0), now=3.0)
        # a shifting insert empties the slot: that is how append-only
        # consumers (partition-index delta reuse) lose a row mapping
        # that went stale
        assert bw.derived(0) == {}
        assert bw.frozen_version > version

    @settings(max_examples=40, deadline=None)
    @given(
        timestamps=st.lists(
            st.floats(min_value=0, max_value=10), min_size=1, max_size=40
        )
    )
    def test_property_any_order_stays_sorted(self, timestamps):
        bw = one_window()
        for i, ts in enumerate(timestamps):
            bw.insert(tup(ts, seq=i), now=10.0)
        got = list(bw.timestamps)
        assert got == sorted(got)
        assert len(bw) == len(timestamps)


class TestPartitionedWindowDisorder:
    def test_out_of_order_inserts_keep_invariants(self):
        win = PartitionedWindow(10.0, 2.0)
        rng = np.random.default_rng(0)
        now = 0.0
        for i in range(200):
            now += rng.uniform(0, 0.2)
            ts = max(0.0, now - rng.uniform(0, 1.5))  # late by up to 1.5 s
            win.insert(tup(ts, seq=i), now=now)
        head, tail = win.live_rows
        ts = list(win.timestamps[head:tail])
        assert ts == sorted(ts) and len(ts) > 100
        # and every row sits in the basic window covering its timestamp
        for k in range(win.n + 1):
            start, stop = win.window_rows(k)
            assert all(
                max(0, math.ceil((win.epoch_start - t) / 2.0)) == k
                for t in win.timestamps[start:stop]
            )


class TestJoinsUnderDisorder:
    def _sources(self, max_delay, seed=4):
        lags = (0.0, 2.0, 4.0)
        base = [
            StreamSource(
                i,
                ConstantRate(25.0, phase=i * 1e-3),
                LinearDriftProcess(lag=lags[i], deviation=1.0, rng=seed + i),
            )
            for i in range(3)
        ]
        if max_delay == 0:
            return base
        return [
            DisorderedSource(s, max_delay=max_delay, rng=seed + 10 + i)
            for i, s in enumerate(base)
        ]

    def test_mjoin_runs_and_produces_under_disorder(self):
        cfg = SimulationConfig(duration=20.0, warmup=5.0)
        op = MJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 1.0)
        res = Simulation(self._sources(1.5), op, CpuModel(1e12), cfg).run()
        assert res.output_count_total > 0

    def test_grubjoin_runs_under_disorder_and_shedding(self):
        cfg = SimulationConfig(duration=20.0, warmup=5.0,
                               adaptation_interval=2.0)
        op = GrubJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 1.0, rng=0)
        res = Simulation(self._sources(1.5), op, CpuModel(3e4), cfg).run()
        assert res.output_count_total > 0

    def test_mild_disorder_close_to_ordered_output(self):
        cfg = SimulationConfig(duration=20.0, warmup=5.0)

        def run(delay):
            op = MJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 1.0)
            return Simulation(
                self._sources(delay), op, CpuModel(1e12), cfg
            ).run().output_count_total

        ordered = run(0)
        disordered = run(0.2)
        assert disordered == pytest.approx(ordered, rel=0.2)
