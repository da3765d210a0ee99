"""Tests for basic-window partitioned join windows (paper Section 4.1.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PartitionedWindow
from repro.core.basic_windows import BasicWindow, WindowSlice
from repro.streams import StreamTuple


def tup(ts, value=None, seq=0):
    return StreamTuple(
        value=float(ts) if value is None else value,
        timestamp=float(ts),
        stream=0,
        seq=seq,
    )


class TestBasicWindow:
    def test_append_and_views(self):
        bw = BasicWindow()
        for i in range(5):
            bw.append(tup(i, value=10.0 * i))
        assert len(bw) == 5
        assert list(bw.timestamps) == [0, 1, 2, 3, 4]
        assert list(bw.values) == [0, 10, 20, 30, 40]

    def test_growth_beyond_initial_capacity(self):
        bw = BasicWindow()
        for i in range(200):
            bw.append(tup(i))
        assert len(bw) == 200
        assert bw.timestamps[-1] == 199

    def test_order_enforced(self):
        bw = BasicWindow()
        bw.append(tup(5))
        with pytest.raises(ValueError):
            bw.append(tup(4))

    def test_clear(self):
        bw = BasicWindow()
        bw.append(tup(1))
        bw.clear()
        assert len(bw) == 0
        assert bw.tuples == []
        bw.append(tup(0))  # order restriction resets with clear
        assert len(bw) == 1

    def test_slice_between_half_open(self):
        bw = BasicWindow()
        for i in range(10):
            bw.append(tup(i))
        lo, hi = bw.slice_between(2.0, 5.0)  # (2, 5] -> ts 3, 4, 5
        assert list(bw.timestamps[lo:hi]) == [3, 4, 5]

    def test_slice_between_follows_first_and_last_through_mutation(self):
        """The O(1) guards read cached end timestamps; every mutation
        that moves an end must move them too."""

        def searched(bw, ts_lo, ts_hi):
            ts = bw.timestamps
            return (int(np.searchsorted(ts, ts_lo, side="right")),
                    int(np.searchsorted(ts, ts_hi, side="right")))

        bounds = [-1.0, 0.5, 1.0, 2.0, 3.0, 4.0, 4.5, 9.0]
        bw = BasicWindow()

        def check():
            for ts_lo in bounds:
                for ts_hi in bounds:
                    assert bw.slice_between(ts_lo, ts_hi) == searched(
                        bw, ts_lo, ts_hi
                    )

        check()  # empty
        for ts in (2.0, 3.0, 3.0, 4.0):
            bw.append(tup(ts))
        check()
        bw.insert_sorted(tup(1.0))  # late arrival at position 0
        assert bw.timestamps[0] == 1.0
        check()
        bw.insert_sorted(tup(3.5))  # mid
        bw.insert_sorted(tup(4.0))  # ties the last row: appended
        check()
        bw.clear()
        check()
        bw.append(tup(0.5))  # recycled: the ends restart
        check()

    def test_vector_mode(self):
        bw = BasicWindow(mode="vector", dim=2)
        bw.append(tup(0, value=np.array([1.0, 2.0])))
        bw.append(tup(1, value=np.array([3.0, 4.0])))
        assert bw.values.shape == (2, 2)

    def test_generic_mode(self):
        bw = BasicWindow(mode="generic")
        bw.append(tup(0, value={"a": 1}))
        assert bw.values == [{"a": 1}]

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            BasicWindow(mode="weird")
        with pytest.raises(ValueError):
            BasicWindow(mode="vector")  # missing dim


class TestWindowSlice:
    def _window(self, n=10):
        bw = BasicWindow()
        for i in range(n):
            bw.append(tup(i, value=float(i)))
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
        bw = BasicWindow(mode=mode, dim=2 if mode == "vector" else None)
        for i in range(12):
            value = {"scalar": float(i), "vector": [i, -i],
                     "generic": {"k": i}}[mode]
            bw.append(tup(i, value=value))
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
                self.seq = int(ts)  # append() stores the seq column

            @property
            def value(self):
                reads.append(self.timestamp)
                return {"k": self.timestamp}

        bw = BasicWindow(mode="generic")
        for i in range(1000):
            bw.append(Counting(i))
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
        assert len(w._ring) == w.n + 1

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
        w.rotate_to(7.0)
        assert w.rotations == 3
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
        assert w.rotations == 2
        assert w.epoch_start == 2.0


class TestInsertPlacement:
    def test_fresh_tuple_goes_to_newest(self):
        w = PartitionedWindow(10.0, 2.0)
        w.insert(tup(0.5), now=0.5)
        assert len(w._ring[0]) == 1

    def test_delayed_tuple_goes_to_covering_window(self):
        w = PartitionedWindow(10.0, 2.0)
        w.rotate_to(6.0)  # epoch_start = 6
        w.insert(tup(3.5), now=6.0)  # 2.5 s old -> ring index 2
        assert len(w._ring[2]) == 1

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
        for bw in w._ring:
            ts = list(bw.timestamps)
            assert ts == sorted(ts)


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
