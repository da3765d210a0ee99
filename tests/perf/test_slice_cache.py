"""Slice cutting: what `full_slices` / `logical_span_slices` cover and what
they cost (searches, `WindowSlice` objects, copies), and the
once-per-configuration run decomposition."""

from __future__ import annotations

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.basic_windows as basic_windows
from repro.core.basic_windows import SCALAR, PartitionedWindow
from repro.core.harvesting import HarvestConfiguration
from repro.core.windex import HASH, WindowIndexState
from repro.joins.columnar import run_pipeline_columnar
from repro.joins.pipeline import merge_slices
from repro.joins.predicates import EpsilonJoin, EquiJoin
from repro.streams.tuples import StreamTuple


def fill_window(seed: int, window=6.0, basic=1.0, count=200, now=9.3):
    rng = random.Random(seed)
    pw = PartitionedWindow(window, basic, mode=SCALAR)
    ts = sorted(rng.uniform(now - window - basic, now) for _ in range(count))
    for seq, t in enumerate(ts):
        pw.insert(
            StreamTuple(value=rng.random(), timestamp=t, seq=seq), now
        )
    return pw


def slice_key(s):
    return (id(s.store), s.lo, s.hi, s.step)


def rows_of(slices):
    """The store rows the slices select, in scan order."""
    return [r for s in slices for r in range(s.lo, s.hi, s.step)]


class TestFullSlicesCache:
    def test_insert_invalidates(self):
        now = 9.3
        pw = fill_window(3, now=now)
        before = pw.full_slices(now)
        pw.insert(StreamTuple(value=0.5, timestamp=now, seq=999), now)
        after = pw.full_slices(now)
        assert after is not before
        assert sum(len(s) for s in after) == sum(len(s) for s in before) + 1

    def test_rotation_invalidates(self):
        pw = fill_window(4)
        before = pw.full_slices(9.3)
        after = pw.full_slices(12.5)  # forces rotations
        assert after is not before

    def test_evict_invalidates(self):
        now = 9.3
        pw = fill_window(5, now=now)
        before = pw.full_slices(now)
        evicted = pw.evict_older_than(2.0, now)
        assert evicted > 0
        after = pw.full_slices(now)
        assert after is not before
        assert sum(len(s) for s in after) < sum(len(s) for s in before)

    def test_matches_uncached_semantics(self):
        """Slice contents equal a manual reconstruction at several times."""
        for seed in range(3):
            now = 9.3
            pw = fill_window(seed, now=now)
            for t in (now, now + 0.4, now + 1.7, now + 3.2):
                got = pw.full_slices(t)
                total = sum(len(s) for s in got)
                manual = sum(
                    1
                    for s in got
                    for ts in s.store.timestamps[s.lo : s.hi]
                    if t - pw.n * pw.basic_window_size < ts <= t
                )
                assert pw.count_unexpired(t) == total
                assert manual == total


class TestLogicalSpanSlices:
    def test_span_equals_merged_per_window_slices(self):
        for seed in range(4):
            now = 9.3
            pw = fill_window(seed, now=now)
            for ref in (now, now - 0.7):
                for j_lo in range(1, pw.n + 1):
                    for j_hi in range(j_lo, pw.n + 1):
                        span = pw.logical_span_slices(j_lo, j_hi, now, ref)
                        merged = merge_slices(
                            [
                                s
                                for j in range(j_lo, j_hi + 1)
                                for s in pw.logical_window_slices(
                                    j, now, ref
                                )
                            ]
                        )
                        assert [slice_key(s) for s in span] == [
                            slice_key(s) for s in merged
                        ]

    def test_rejects_bad_ranges(self):
        pw = fill_window(9)
        for bad in ((0, 1), (1, pw.n + 1), (3, 2)):
            try:
                pw.logical_span_slices(bad[0], bad[1], 9.3)
            except ValueError:
                continue
            raise AssertionError(f"range {bad} should be rejected")


def count_searches(fn):
    """Run ``fn`` and count the ``searchsorted`` C calls it makes."""
    calls = []

    def profiler(frame, event, arg):
        if event == "c_call" and arg.__name__ == "searchsorted":
            calls.append(arg)

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return len(calls)


class TestSearchesPerRun:
    """A harvested run is contiguous in the store: at most two searches
    and one slice, however many physical windows it covers."""

    @pytest.mark.parametrize("n", [4, 25, 100])
    def test_at_most_two_searches_per_span(self, n):
        now = n + 0.37
        pw = PartitionedWindow(float(n), 1.0, mode=SCALAR)
        for seq in range(int(now / 0.05)):  # 20 in-order rows per window
            t = seq * 0.05
            pw.insert(StreamTuple(value=0.0, timestamp=t, seq=seq), t)
        pw.rotate_to(now)
        assert all(pw.basic_window_sizes())
        for reference in (now, now - 0.6):
            for j_lo in range(1, n + 1):
                for j_hi in {j_lo, min(j_lo + 2, n), n}:
                    got = []
                    searches = count_searches(
                        lambda: got.extend(
                            pw.logical_span_slices(j_lo, j_hi, now, reference)
                        )
                    )
                    assert searches <= 2, (n, j_lo, j_hi, searches)
                    (run,) = got
                    assert len(pw.window_pieces(run.lo, run.hi)) >= (
                        j_hi - j_lo + 1
                    )


class TestOneSlicePerHop:
    """What the one-store layout buys, as counts: contiguous coverage is
    one ``WindowSlice`` — one view as the hop's candidate pool — and
    nothing is glued back together, values or ``seq``."""

    def _probe_counts(self, slices_for_hop, order=(1, 2),
                      predicate=EpsilonJoin(0.6), value=0.5):
        built = []
        init = basic_windows.WindowSlice.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        copies = []
        concatenate = np.concatenate
        tup = StreamTuple(value=value, timestamp=9.3, stream=0, seq=10_000)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(basic_windows.WindowSlice, "__init__", counting_init)
            mp.setattr(
                np, "concatenate",
                lambda *a, **kw: copies.append(a) or concatenate(*a, **kw),
            )
            result = run_pipeline_columnar(
                tup, order, slices_for_hop, predicate
            )
        assert len(result.outputs) > 0  # every hop ran, and materialized
        assert result.outputs.seqs.shape == (
            len(result.outputs), len(order) + 1
        )
        return len(built), len(copies)

    def test_full_probe(self):
        now = 9.3
        windows = [fill_window(30 + i, now=now) for i in range(3)]
        assert self._probe_counts(
            lambda hop, l: windows[l].full_slices(now)
        ) == (2, 0)

    def test_single_run_harvested_probe(self):
        now = 9.3
        windows = [fill_window(40 + i, now=now) for i in range(3)]
        n = windows[0].n
        # whole counts, consecutive ranks 2..4: one run, no strided tail
        cfg = HarvestConfiguration(
            np.full((3, 2), 3.0),
            [[np.roll(np.arange(n), -1)] * 2 for _ in range(3)],
        )
        assert cfg.selected_runs(0, 0) == [(2, 4)]
        assert self._probe_counts(
            lambda hop, l: cfg.run_slices_for_hop(
                windows[l], 0, hop, now, reference=now - 0.2
            ),
        ) == (2, 0)

    def test_indexed_single_run_hop(self, monkeypatch):
        """An active hash index prices the hop and leaves its pool alone:
        the pool is still the slice's view of the value column, and
        pricing it gathers and glues nothing."""
        monkeypatch.setattr(WindowIndexState, "min_index_rows", 8)
        now = 9.3
        rng = random.Random(50)
        windows = []
        for stream in range(2):
            pw = PartitionedWindow(6.0, 1.0, mode=SCALAR,
                                   index=WindowIndexState(HASH, 0.0))
            stamps = sorted(rng.uniform(now - 7.0, now) for _ in range(240))
            for seq, t in enumerate(stamps):
                pw.insert(StreamTuple(value=float(rng.randrange(4)),
                                      timestamp=t, stream=stream, seq=seq),
                          now)
            windows.append(pw)
        state = windows[1].windex

        def probe_counts():
            return self._probe_counts(
                lambda hop, l: windows[l].full_slices(now),
                order=(1,), predicate=EquiJoin(), value=1.0,
            )

        probe_counts()  # builds the tables: one argsort gather each
        assert state.rebuilds >= 3 and state.rows_pruned > 0
        gathers = []

        class Column(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, (np.ndarray, list)):
                    gathers.append(key)
                return super().__getitem__(key)

        windows[1]._vals = windows[1]._vals.view(Column)
        rebuilds = state.rebuilds
        assert probe_counts() == (1, 0)
        assert gathers == []
        assert state.rebuilds == rebuilds


class TestFrozenTablesOncePerRotation:
    """What pricing a hash hop costs, as counts: a frozen window's table
    is built at most once per rotation, not once per probe, and the
    filling window's table is rebuilt logarithmically often as it
    grows — ``table_for`` runs only to build a table."""

    def test_full_hash_probes(self, monkeypatch):
        monkeypatch.setattr(WindowIndexState, "min_index_rows", 8)
        calls = []
        table_for = WindowIndexState.table_for

        def counting(self, store, k):
            calls.append(k)
            return table_for(self, store, k)

        monkeypatch.setattr(WindowIndexState, "table_for", counting)
        rng = random.Random(70)
        pw = PartitionedWindow(6.0, 1.0, mode=SCALAR,
                               index=WindowIndexState(HASH, 0.0))
        probes = rows = 0
        per_rotation = []
        for rotation in range(12):
            calls.clear()
            rebuilds = pw.windex.rebuilds
            # 10 probes per basic window, each after 4 in-order arrivals
            for _ in range(10):
                for _ in range(4):
                    rows += 1
                    t = rows * 0.025
                    pw.insert(StreamTuple(value=float(rng.randrange(8)),
                                          timestamp=t, stream=1, seq=rows), t)
                probes += 1
                now = rows * 0.025
                run_pipeline_columnar(
                    StreamTuple(value=float(rng.randrange(8)), timestamp=now,
                                stream=0, seq=probes),
                    (1,), lambda hop, l: pw.full_slices(now), EquiJoin(),
                )
            per_rotation.append((len(calls) - calls.count(0),
                                 pw.windex.rebuilds - rebuilds))
        assert pw.windex.rows_pruned > 0  # the index priced the hops
        # steady state (the window is full from the 7th basic window on):
        # at most one ask per frozen window per rotation — where a
        # per-window walk asks every window on every probe (70
        # frozen-window calls per rotation) — and 9 builds per rotation
        # (the filling window's logarithmic rebuilds plus the newly
        # frozen window's one tail-free rebuild), as per-probe asking
        # built them
        for frozen, _ in per_rotation[pw.n + 1:]:
            assert frozen <= pw.n
        assert [built for _, built in per_rotation] == [9] * 12


# ----------------------------------------------------------------------
# the cuts against the implementation they replace
# ----------------------------------------------------------------------


def ring_index_of(pw, ts):
    """0-based ring index of the physical window covering ``ts``."""
    offset = pw.epoch_start - ts
    return 0 if offset <= 0 else math.ceil(offset / pw.basic_window_size)


def searched(pw, k, ts_lo, ts_hi):
    """The previous ``BasicWindow.slice_between`` on physical window
    ``k``: two searches, always; as store rows."""
    start, stop = pw.window_rows(k)
    ts = pw.timestamps[start:stop]
    return (start + int(np.searchsorted(ts, ts_lo, side="right")),
            start + int(np.searchsorted(ts, ts_hi, side="right")))


def reference_span(pw, j_lo, j_hi, now, reference):
    """The previous ``logical_span_slices`` (``logical_window_slices`` is
    the ``j_lo == j_hi`` case): search every physical window touched.
    Returns the rows it selected, ascending."""
    pw.rotate_to(now)
    b = pw.basic_window_size
    ts_hi = reference - (j_lo - 1) * b
    ts_lo = reference - j_hi * b
    k_first = ring_index_of(pw, ts_hi)
    k_last = min(ring_index_of(pw, ts_lo), pw.n)
    rows = []
    for k in range(k_last, k_first - 1, -1):
        rows.extend(range(*searched(pw, k, ts_lo, ts_hi)))
    return rows


def reference_full(pw, now):
    """The previous ``full_slices``, uncached, sliding or not: the rows
    it selected, ascending."""
    pw.rotate_to(now)
    horizon = pw.n * pw.basic_window_size
    if pw.policy.is_sliding:
        rows = list(range(*searched(pw, pw.n, now - horizon, now)))
        for k in range(pw.n - 1, -1, -1):
            rows.extend(range(*pw.window_rows(k)))
        return rows
    ranges = [
        searched(pw, k, now - horizon, now) for k in range(pw.n, -1, -1)
    ]
    live_ts = [
        t for lo, hi in ranges for t in pw.timestamps[lo:hi].tolist()
    ]
    cut = pw.policy.live_from(horizon, live_ts, now)
    rows = []
    for k, (lo, hi) in zip(range(pw.n, -1, -1), ranges):
        if cut != float("-inf"):
            start, stop = pw.window_rows(k)
            lo = max(lo, start + int(np.searchsorted(
                pw.timestamps[start:stop], cut, "left"
            )))
        rows.extend(range(lo, hi))
    return rows


#: with b = 1 these steps put timestamps exactly on rotation boundaries
#: and on ``reference - j*b`` (0.25 / 0.5 / 1.0 are exact in binary),
#: repeat timestamps (0.0) and leave gaps wider than a basic window
_STEPS = [0.0, 0.0, 0.25, 0.5, 1.0, 0.1, 0.3, 2.5]
#: late arrivals: into the filling window, onto a boundary (position 0 of
#: a frozen window unless a duplicate is already there), mid-window, deep
_LATENESS = [0.25, 0.5, 1.0, 1.25, 2.0, 3.7]

_OPS = st.lists(
    st.one_of(
        # listed twice: in-order arrivals are the common case
        st.tuples(st.just("advance"), st.sampled_from(_STEPS)),
        st.tuples(st.just("advance"), st.sampled_from(_STEPS)),
        st.tuples(st.just("late"), st.sampled_from(_LATENESS)),
        st.tuples(st.just("evict"), st.sampled_from([0.5, 2.0, 3.0])),
        # one ring window by index (memory-limited joins), taken mod n
        st.tuples(st.just("evict_k"), st.integers(0, 24)),
    ),
    min_size=1,
    max_size=60,
)


class TestCutsMatchSearchEveryWindow:
    @pytest.mark.parametrize("policy", [None, "tumbling", "session:0.6"])
    @pytest.mark.parametrize("n", [1, 4, 25])
    @settings(max_examples=25, deadline=None)
    @given(ops=_OPS, stale=st.sampled_from([0.0, 0.25, 1.0, 1.7]),
           ahead=st.sampled_from([0.0, 0.5, 1.0, 3.1]))
    def test_same_slices_as_the_replaced_implementation(
        self, n, policy, ops, stale, ahead
    ):
        pw = PartitionedWindow(float(n), 1.0, mode=SCALAR, policy=policy)
        now = 0.0
        for seq, (op, arg) in enumerate(ops):
            if op == "advance":
                now += arg
                pw.insert(StreamTuple(value=0.0, timestamp=now, seq=seq), now)
            elif op == "late":
                pw.insert(
                    StreamTuple(value=0.0, timestamp=now - arg, seq=seq), now
                )
            elif op == "evict":
                pw.evict_older_than(arg, now)
            else:
                pw.rotate_to(now)
                pw.evict_basic_window(1 + arg % n)
            # after every mutation, so every state the store can be left
            # in is read (growth, compaction and shifts included)
            assert rows_of(pw.full_slices(now)) == reference_full(pw, now)
        for at in (now, now + ahead):
            assert rows_of(pw.full_slices(at)) == reference_full(pw, at)
            reference = at - stale
            for j_lo in range(1, n + 1):
                assert rows_of(
                    pw.logical_window_slices(j_lo, at, reference)
                ) == reference_span(pw, j_lo, j_lo, at, reference)
                for j_hi in {j_lo, min(j_lo + 3, n), n}:
                    assert rows_of(
                        pw.logical_span_slices(j_lo, j_hi, at, reference)
                    ) == reference_span(pw, j_lo, j_hi, at, reference)


class TestSelectedRuns:
    def _config(self, counts, rankings_lists):
        m = len(counts)
        rankings = [
            [np.asarray(r) for r in per_dir] for per_dir in rankings_lists
        ]
        return HarvestConfiguration(np.asarray(counts, float), rankings)

    def test_consecutive_selection_is_one_run(self):
        cfg = self._config(
            [[3.0], [2.0]], [[[0, 1, 2, 3]], [[2, 3, 0, 1]]]
        )
        assert cfg.selected_runs(0, 0) == [(1, 3)]
        assert cfg.selected_runs(1, 0) == [(3, 4)]

    def test_gapped_selection_splits_runs(self):
        cfg = self._config([[3.0], [0.0]], [[[0, 2, 4, 1, 3]], [[0]]])
        assert cfg.selected_runs(0, 0) == [(1, 1), (3, 3), (5, 5)]

    def test_runs_are_cached(self):
        cfg = self._config([[2.0], [1.0]], [[[1, 0, 2]], [[0, 1]]])
        assert cfg.selected_runs(0, 0) is cfg.selected_runs(0, 0)

    def test_run_slices_scan_same_tuples_as_merged_slices(self):
        now = 9.3
        pw = fill_window(21, now=now)
        n = pw.n
        # a gapped ranking with a fractional tail
        counts = np.array([[2.6], [0.0]])
        rankings = [[np.asarray([0, 3, 1, 2, 4, 5][:n])], [np.arange(n)]]
        cfg = HarvestConfiguration(counts, rankings)
        for ref in (now, now - 1.3):
            fast = cfg.run_slices_for_hop(pw, 0, 0, now, ref)
            slow = merge_slices(cfg.slices_for_hop(pw, 0, 0, now, ref))
            def scanned(slices):
                rows = []
                for s in slices:
                    for idx in range(len(s)):
                        t = s.tuple_at(idx)
                        rows.append((t.seq, s.step))
                return sorted(rows)
            assert scanned(fast) == scanned(slow)
            assert sum(len(s) for s in fast) == sum(len(s) for s in slow)
