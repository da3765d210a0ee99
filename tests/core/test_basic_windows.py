"""Tests for basic-window partitioned join windows (paper Section 4.1.1)."""

import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

import repro.core.basic_windows as basic_windows
from repro.core import PartitionedWindow
from repro.core.basic_windows import WindowSlice
from repro.streams import StreamTuple


def tup(ts, value=None, seq=0):
    return StreamTuple(
        value=float(ts) if value is None else value,
        timestamp=float(ts),
        stream=0,
        seq=seq,
    )


def one_window(mode="scalar", dim=None):
    """A store whose every row (timestamps >= 0) lands in the filling
    basic window, so store rows count from 0 like a lone basic window's."""
    return PartitionedWindow(1e6, 1e6, mode=mode, dim=dim)


def append(store, t):
    store.insert(t, now=t.timestamp)


class TestBasicWindow:
    def test_append_and_views(self):
        bw = one_window()
        for i in range(5):
            append(bw, tup(i, value=10.0 * i))
        assert len(bw) == 5
        assert list(bw.timestamps) == [0, 1, 2, 3, 4]
        assert list(bw.values) == [0, 10, 20, 30, 40]
        assert bw.window_rows(0) == (0, 5)

    def test_growth_beyond_initial_capacity(self):
        bw = one_window()
        for i in range(200):
            append(bw, tup(i))
        assert len(bw) == 200
        assert bw.timestamps[-1] == 199

    def test_order_enforced(self):
        """The store keeps timestamp order itself: an older tuple is
        shifted into place, after its equals, instead of being refused."""
        bw = one_window()
        append(bw, tup(5, seq=0))
        append(bw, tup(5, seq=1))
        bw.insert(tup(4, seq=2), now=5.0)
        bw.insert(tup(5, seq=3), now=5.0)
        assert list(bw.timestamps) == [4, 5, 5, 5]
        assert list(bw.seqs) == [2, 0, 1, 3]
        assert [t.seq for t in bw.tuples] == [2, 0, 1, 3]

    def test_clear(self):
        w = PartitionedWindow(10.0, 2.0)
        first = tup(1.0)
        w.insert(first, now=1.0)
        w.rotate_to(2.5)
        (held,) = w.full_slices(2.5)
        taken = held.tuples
        assert w.evict_basic_window(1) == 1
        assert len(w) == 0
        # what a caller took from a slice is its own list
        assert len(taken) == 1 and taken[0] is first
        w.insert(tup(0.5), now=2.5)  # order restriction resets with it
        assert len(w) == 1 and w.basic_window_sizes()[1] == 1

    def test_slice_between_half_open(self):
        bw = one_window()
        for i in range(10):
            append(bw, tup(i))
        (s,) = bw._slices_between(2.0, 5.0)  # (2, 5] -> ts 3, 4, 5
        assert list(bw.timestamps[s.lo:s.hi]) == [3, 4, 5]

    def test_slice_between_follows_first_and_last_through_mutation(self):
        """The cut skips its upper search on the cached newest timestamp;
        every mutation that moves the newest row must move it too."""
        w = PartitionedWindow(8.0, 2.0)
        now = 5.0
        bounds = [-1.0, 0.5, 1.0, 2.0, 3.0, 4.0, 4.5, 9.0]

        def check():
            head, tail = w.live_rows
            ts = w.timestamps[head:tail].tolist()
            for ts_lo in bounds:
                for ts_hi in bounds:
                    rows = [
                        r for s in w._slices_between(ts_lo, ts_hi)
                        for r in range(s.lo, s.hi)
                    ]
                    assert rows == [
                        head + i for i, t in enumerate(ts)
                        if ts_lo < t <= ts_hi
                    ], (ts_lo, ts_hi)

        w.rotate_to(now)
        check()  # empty
        for ts in (2.0, 3.0, 3.0, 4.0):
            w.insert(tup(ts), now)
        check()
        w.insert(tup(1.0), now)  # late arrival at position 0
        assert w.timestamps[w.live_rows[0]] == 1.0
        check()
        w.insert(tup(3.5), now)  # mid
        w.insert(tup(4.0), now)  # ties the last row: appended
        check()
        now = 6.0
        w.rotate_to(now)
        assert w.evict_basic_window(1) == 2  # the newest rows (ts 4.0)
        assert w._last == 3.5
        check()
        w.evict_older_than(0.0, now)
        check()  # empty again
        w.insert(tup(0.5), now)  # older than the stale newest timestamp
        check()

    def test_vector_mode(self):
        bw = one_window(mode="vector", dim=2)
        append(bw, tup(0, value=np.array([1.0, 2.0])))
        append(bw, tup(1, value=np.array([3.0, 4.0])))
        assert bw.values.shape == (2, 2)

    def test_generic_mode(self):
        bw = one_window(mode="generic")
        append(bw, tup(0, value={"a": 1}))
        assert bw.values == [{"a": 1}]

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            one_window(mode="weird")
        with pytest.raises(ValueError):
            one_window(mode="vector")  # missing dim


class TestWindowSlice:
    def _window(self, n=10):
        bw = one_window()
        for i in range(n):
            append(bw, tup(i, value=float(i)))
        return bw

    def test_contiguous(self):
        s = WindowSlice(self._window(), 2, 6)
        assert len(s) == 4
        assert list(s.values) == [2, 3, 4, 5]
        assert s.tuple_at(1).timestamp == 3

    def test_strided(self):
        s = WindowSlice(self._window(), 0, 10, step=3)
        assert len(s) == 4  # indices 0, 3, 6, 9
        assert list(s.values) == [0, 3, 6, 9]
        assert s.tuple_at(2).timestamp == 6

    def test_empty(self):
        s = WindowSlice(self._window(), 4, 4)
        assert len(s) == 0

    @pytest.mark.parametrize("mode", ["scalar", "vector", "generic"])
    @pytest.mark.parametrize(
        "lo,hi,step", [(0, 12, 1), (3, 9, 1), (2, 11, 3), (5, 5, 1)]
    )
    def test_values_equal_the_sliced_window_column(self, mode, lo, hi, step):
        bw = one_window(mode=mode, dim=2 if mode == "vector" else None)
        for i in range(12):
            value = {"scalar": float(i), "vector": [i, -i],
                     "generic": {"k": i}}[mode]
            append(bw, tup(i, value=value))
        s = WindowSlice(bw, lo, hi, step)
        expected = bw.values[lo:hi:step]
        assert len(s.values) == len(s) == len(expected)
        if mode == "generic":
            assert s.values == expected
        else:
            assert np.array_equal(s.values, expected)

    def test_generic_values_read_only_the_selected_tuples(self):
        """A slice's values cost O(slice), not O(window)."""
        reads = []

        class Counting:
            def __init__(self, ts):
                self.timestamp = float(ts)
                self.seq = int(ts)  # insert() stores the seq column

            @property
            def value(self):
                reads.append(self.timestamp)
                return {"k": self.timestamp}

        bw = one_window(mode="generic")
        for i in range(1000):
            append(bw, Counting(i))
        assert reads == []
        contiguous = WindowSlice(bw, 100, 110)
        assert contiguous.values == [{"k": float(i)} for i in range(100, 110)]
        assert reads == [float(i) for i in range(100, 110)]
        del reads[:]
        strided = WindowSlice(bw, 0, 1000, step=250)
        assert len(strided.values) == len(strided) == 4
        assert reads == [0.0, 250.0, 500.0, 750.0]

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            WindowSlice(self._window(), 0, 5, step=0)


class TestPartitionedWindowStructure:
    def test_segment_count(self):
        assert PartitionedWindow(20.0, 2.0).n == 10
        assert PartitionedWindow(10.0, 3.0).n == 4  # ceil

    def test_physical_count_is_n_plus_one(self):
        w = PartitionedWindow(10.0, 2.0)
        assert len(w.basic_window_sizes()) == w.n + 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_size": 0, "basic_window_size": 1},
            {"window_size": 10, "basic_window_size": 0},
            {"window_size": 1, "basic_window_size": 2},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PartitionedWindow(**kwargs)


class TestRotation:
    def test_rotation_count(self):
        w = PartitionedWindow(10.0, 2.0)
        w.insert(tup(0.5), now=0.5)
        w.rotate_to(7.0)
        # three rotations carried the row from ring index 0 to 3
        assert w.basic_window_sizes() == [0, 0, 0, 1, 0, 0]
        assert w.epoch_start == 6.0

    def test_theta(self):
        w = PartitionedWindow(10.0, 2.0)
        assert w.theta(1.0) == pytest.approx(0.5)
        assert w.theta(6.5) == pytest.approx(0.25)

    def test_batch_expiration(self):
        w = PartitionedWindow(4.0, 1.0)
        for i in range(10):
            w.insert(tup(i * 0.5), now=i * 0.5)
        # advance far: everything expires via rotations
        w.rotate_to(100.0)
        assert w.count_unexpired(100.0) == 0

    def test_idle_period_multiple_rotations(self):
        w = PartitionedWindow(4.0, 1.0)
        w.insert(tup(0.0), now=0.0)
        w.rotate_to(2.5)  # two rotations at once
        assert w.basic_window_sizes() == [0, 0, 1, 0, 0]
        assert w.epoch_start == 2.0


class TestInsertPlacement:
    def test_fresh_tuple_goes_to_newest(self):
        w = PartitionedWindow(10.0, 2.0)
        w.insert(tup(0.5), now=0.5)
        assert w.basic_window_sizes()[0] == 1

    def test_delayed_tuple_goes_to_covering_window(self):
        w = PartitionedWindow(10.0, 2.0)
        w.rotate_to(6.0)  # epoch_start = 6
        w.insert(tup(3.5), now=6.0)  # 2.5 s old -> ring index 2
        assert w.basic_window_sizes()[2] == 1

    def test_too_old_tuple_ignored(self):
        w = PartitionedWindow(4.0, 1.0)
        w.rotate_to(50.0)
        w.insert(tup(1.0), now=50.0)
        assert len(w) == 0

    def test_interleaved_inserts_keep_sorted_windows(self):
        w = PartitionedWindow(10.0, 2.0)
        w.rotate_to(4.0)
        w.insert(tup(1.0), now=4.0)
        w.insert(tup(1.5), now=4.0)
        head, tail = w.live_rows
        ts = list(w.timestamps[head:tail])
        assert ts == sorted(ts) and len(ts) == 2


class TestLogicalWindows:
    def _filled(self, now=9.5, w=10.0, b=2.0, spacing=0.25):
        win = PartitionedWindow(w, b)
        t = 0.0
        while t <= now:
            win.insert(tup(t), now=t)
            t += spacing
        win.rotate_to(now)
        return win

    def test_logical_window_contains_exact_age_range(self):
        now = 9.5
        win = self._filled(now)
        b = 2.0
        for j in range(1, win.n + 1):
            got = sorted(
                t.timestamp
                for s in win.logical_window_slices(j, now)
                for t in s.tuples
            )
            expected = sorted(
                ts
                for ts in np.arange(0, now + 0.25, 0.25)
                if (j - 1) * b <= now - ts < j * b
            )
            assert got == pytest.approx(expected), f"logical window {j}"

    def test_logical_windows_partition_the_window(self):
        now = 9.5
        win = self._filled(now)
        seen = []
        for j in range(1, win.n + 1):
            for s in win.logical_window_slices(j, now):
                seen.extend(t.timestamp for t in s.tuples)
        assert len(seen) == len(set(seen))  # disjoint
        assert len(seen) == win.count_unexpired(now)

    def test_reference_time_shifts_selection(self):
        now = 9.5
        win = self._filled(now)
        ref = 7.5
        got = sorted(
            t.timestamp
            for s in win.logical_window_slices(1, now, reference=ref)
            for t in s.tuples
        )
        expected = [ts for ts in np.arange(0, now + 0.25, 0.25)
                    if 0 <= ref - ts < 2.0]
        assert got == pytest.approx(sorted(expected))

    def test_invalid_index(self):
        win = self._filled()
        with pytest.raises(ValueError):
            win.logical_window_slices(0, 10.0)
        with pytest.raises(ValueError):
            win.logical_window_slices(win.n + 1, 10.0)

    def test_full_slices_cover_all_unexpired(self):
        now = 9.5
        win = self._filled(now)
        total = sum(len(s) for s in win.full_slices(now))
        expected = sum(
            1 for ts in np.arange(0, now + 0.25, 0.25)
            if now - ts < win.n * win.basic_window_size
        )
        assert total == expected

    def test_iter_unexpired_matches_count(self):
        now = 9.5
        win = self._filled(now)
        assert len(list(win.iter_unexpired(now))) == win.count_unexpired(now)


@settings(max_examples=50, deadline=None)
@given(
    timestamps=st.lists(
        st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=60
    ),
    now=st.floats(min_value=30.0, max_value=40.0),
    b=st.sampled_from([1.0, 2.0, 2.5]),
)
def test_property_logical_windows_partition_unexpired(timestamps, now, b):
    """For any insert history, the logical windows partition exactly the
    tuples whose age is under n*b, each holding its own age range."""
    w = PartitionedWindow(10.0, b)
    for i, ts in enumerate(sorted(timestamps)):
        w.insert(StreamTuple(value=ts, timestamp=ts, stream=0, seq=i), now=ts)
    w.rotate_to(now)
    horizon = w.n * b
    collected = []
    for j in range(1, w.n + 1):
        for s in w.logical_window_slices(j, now):
            for t in s.tuples:
                age = now - t.timestamp
                assert (j - 1) * b <= age < j * b
                collected.append(t.seq)
    expected = [
        i
        for i, ts in enumerate(sorted(timestamps))
        if 0 <= now - ts < horizon
    ]
    assert sorted(collected) == expected


# ----------------------------------------------------------------------
# the store against a list-of-lists model
# ----------------------------------------------------------------------


class RingModel:
    """``n + 1`` python lists of ``(ts, seq)``, newest window first."""

    def __init__(self, n, b):
        self.n, self.b, self.epoch = n, b, 0.0
        self.ring = [[] for _ in range(n + 1)]

    def rotate(self, now):
        while now - self.epoch >= self.b:
            self.ring.pop()
            self.ring.insert(0, [])
            self.epoch += self.b

    def insert(self, ts, seq, now):
        self.rotate(now)
        offset = self.epoch - ts
        k = 0 if offset <= 0 else math.ceil(offset / self.b)
        if k <= self.n:
            rows = self.ring[k]
            stamps = [t for t, _ in rows]
            rows.insert(bisect.bisect_right(stamps, ts), (ts, seq))

    def evict_older_than(self, age, now):
        self.rotate(now)
        dropped = 0
        for k in range(1, self.n + 1):
            if self.epoch - (k - 1) * self.b <= now - age:
                dropped += len(self.ring[k])
                self.ring[k] = []
        return dropped

    def oldest_first(self):
        return [row for rows in reversed(self.ring) for row in rows]

    def between(self, ts_lo, ts_hi):
        return [seq for t, seq in self.oldest_first() if ts_lo < t <= ts_hi]


#: multiples of 1/8, and b = 1 or 1/2: every boundary comparison is
#: exact, so the model and the store agree on which side a row falls
_EIGHTHS = st.integers(0, 24).map(lambda i: i / 8.0)


class StoreMachine(RuleBasedStateMachine):
    """Random interleavings of every mutation, small initial capacity so
    growth *and* compaction both fire; after each step the store must
    show what the model shows, through every view.  A marker written
    into a window's derived slot and still there after later steps
    holds a prefix of that window's rows: the store empties the slot
    whenever anything but an append changes them."""

    mode = "scalar"

    def __init__(self):
        super().__init__()
        self._capacity = basic_windows._INITIAL_CAPACITY
        basic_windows._INITIAL_CAPACITY = 4

    def teardown(self):
        basic_windows._INITIAL_CAPACITY = self._capacity

    @initialize(n=st.sampled_from([1, 3, 6]), b=st.sampled_from([1.0, 0.5]))
    def build(self, n, b):
        self.store = PartitionedWindow(
            n * b, b, mode=self.mode, dim=2 if self.mode == "vector" else None
        )
        assert len(self.store._ts) == 4
        self.model = RingModel(n, b)
        self.now = self.newest = 0.0
        self.seq = 0
        #: seq -> the very object inserted
        self.inserted = {}

    def _insert(self, ts):
        value = {"scalar": ts, "vector": [ts, -ts], "generic": {"k": ts}}
        tup = StreamTuple(value=value[self.mode], timestamp=ts, stream=0,
                          seq=self.seq)
        self.inserted[self.seq] = tup
        self.store.insert(tup, self.now)
        self.model.insert(ts, self.seq, self.now)
        self.seq += 1

    @rule(step=st.sampled_from([0.0, 0.125, 0.125, 0.25, 0.5]))
    def arrives(self, step):
        """The common case: processed at its own timestamp."""
        self.now += step
        self.newest = self.now
        self._insert(self.now)

    @rule(step=_EIGHTHS, rotations=st.sampled_from([0, 1, 9]))
    def time_passes(self, step, rotations):
        """0, 1 or more than ``n + 1`` rotations, nothing inserted."""
        self.now += step + rotations * self.model.b

    @rule(gap=_EIGHTHS)
    def delayed(self, gap):
        """In order — never older than the newest row — but as old
        against ``now`` (any ring position) as time has passed since."""
        self.newest = min(self.now, self.newest + gap)
        self._insert(self.newest)

    @rule(back=_EIGHTHS.filter(bool))
    def late(self, back):
        self._insert(self.newest - back)

    @rule(k=st.integers(1, 6))
    def evict_basic_window(self, k):
        k = 1 + (k - 1) % self.model.n
        self.store.rotate_to(self.now)
        self.model.rotate(self.now)
        assert self.store.evict_basic_window(k) == len(self.model.ring[k])
        self.model.ring[k] = []

    @rule(age=_EIGHTHS)
    def evict_older_than(self, age):
        assert self.store.evict_older_than(age, self.now) == (
            self.model.evict_older_than(age, self.now)
        )

    @rule(k=st.integers(0, 6))
    def derive(self, k):
        """What an index does: derive an entry from window ``k``'s rows."""
        k %= self.model.n + 1
        self.store.rotate_to(self.now)
        self.store.derived(k)["marker"] = self._window_seqs(k)

    def _window_seqs(self, k):
        start, stop = self.store.window_rows(k)
        return self.store.seqs[start:stop].tolist()

    @invariant()
    def derived_entries_hold_a_prefix(self):
        self.store.rotate_to(self.now)
        for k in range(self.model.n + 1):
            marker = self.store.derived(k).get("marker")
            if marker is not None:
                assert self._window_seqs(k)[: len(marker)] == marker

    def _seqs(self, slices):
        assert len(slices) <= 1  # contiguous coverage is one slice
        tuples = [t for s in slices for t in s.tuples]
        self._are_the_inserted(tuples)
        return [t.seq for t in tuples]

    def _are_the_inserted(self, tuples):
        """Every row holds the object that was inserted, not a copy."""
        assert all(t is self.inserted[t.seq] for t in tuples)

    @invariant()
    def agrees_with_the_model(self):
        store, model, now = self.store, self.model, self.now
        n, b = model.n, model.b
        store.rotate_to(now)
        model.rotate(now)
        assert store.basic_window_sizes() == [len(w) for w in model.ring]
        stored = model.oldest_first()
        assert len(store) == len(stored)
        head, tail = store.live_rows
        assert store.timestamps[head:tail].tolist() == [t for t, _ in stored]
        assert store.seqs[head:tail].tolist() == [s for _, s in stored]
        assert [t.seq for t in store.tuples[head:tail]] == [
            s for _, s in stored
        ]
        self._are_the_inserted(store.tuples[head:tail])
        if self.mode == "scalar":
            assert store.values[head:tail].tolist() == [t for t, _ in stored]
        elif self.mode == "vector":
            assert store.values[head:tail, 1].tolist() == [
                -t for t, _ in stored
            ]
        pieces = []  # cutting at head + 1 leaves the oldest window partial
        for k in range(n, -1, -1):
            start, stop = store.window_rows(k)
            if stop > max(head + 1, start):
                pieces.append((k, start, max(head + 1, start), stop))
        assert store.window_pieces(head + 1, tail) == pieces
        live = model.between(now - n * b, math.inf)
        unexpired = list(store.iter_unexpired(now))
        self._are_the_inserted(unexpired)
        assert [t.seq for t in unexpired] == live
        assert store.count_unexpired(now) == len(live)
        assert self._seqs(store.full_slices(now)) == live
        for reference in (None, now - 0.375):
            ref = now if reference is None else reference
            for j_lo in range(1, n + 1):
                assert self._seqs(
                    store.logical_window_slices(j_lo, now, reference)
                ) == model.between(ref - j_lo * b, ref - (j_lo - 1) * b)
                for j_hi in range(j_lo, n + 1):
                    assert self._seqs(
                        store.logical_span_slices(j_lo, j_hi, now, reference)
                    ) == model.between(ref - j_hi * b, ref - (j_lo - 1) * b)


class VectorStoreMachine(StoreMachine):
    mode = "vector"


class GenericStoreMachine(StoreMachine):
    mode = "generic"


_MACHINE_SETTINGS = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
StoreMachine.TestCase.settings = _MACHINE_SETTINGS
VectorStoreMachine.TestCase.settings = _MACHINE_SETTINGS
GenericStoreMachine.TestCase.settings = _MACHINE_SETTINGS
TestStoreAgainstModelScalar = StoreMachine.TestCase
TestStoreAgainstModelVector = VectorStoreMachine.TestCase
TestStoreAgainstModelGeneric = GenericStoreMachine.TestCase
