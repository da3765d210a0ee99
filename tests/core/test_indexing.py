"""Tests for the sorted per-basic-window indexes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.basic_windows import PartitionedWindow, WindowSlice
from repro.core.indexing import SortedWindowIndex
from repro.streams import StreamTuple


def window_with(values, mode="scalar"):
    """A store whose rows all sit in one basic window, rows from 0."""
    bw = PartitionedWindow(1e6, 1e6, mode=mode)
    for i, v in enumerate(values):
        bw.insert(
            StreamTuple(value=v, timestamp=float(i), stream=0, seq=i),
            now=float(i),
        )
    return bw


class TestRangeProbe:
    def test_matches_linear_scan(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 100, 50)
        bw = window_with(values)
        index = SortedWindowIndex()
        s = WindowSlice(bw, 0, len(bw))
        hits, cost = index.range_probe(s, 20.0, 40.0)
        expected = {i for i, v in enumerate(values) if 20 <= v <= 40}
        assert set(int(h) for h in hits) == expected
        assert cost >= 1

    def test_partial_slice_filtered(self):
        values = list(range(20))
        bw = window_with(values)
        index = SortedWindowIndex()
        s = WindowSlice(bw, 5, 15)
        hits, _ = index.range_probe(s, 0.0, 100.0)
        assert sorted(int(h) for h in hits) == list(range(10))
        assert all(5 <= s.lo + h < 15 for h in hits)

    def test_strided_slice(self):
        values = list(range(20))
        bw = window_with(values)
        index = SortedWindowIndex()
        s = WindowSlice(bw, 0, 20, step=4)  # picks 0, 4, 8, 12, 16
        hits, _ = index.range_probe(s, 3.0, 13.0)
        picked = {int(s.tuple_at(int(h)).value) for h in hits}
        assert picked == {4, 8, 12}

    def test_empty_window(self):
        bw = window_with([])
        index = SortedWindowIndex()
        hits, cost = index.range_probe(WindowSlice(bw, 0, 0), 0, 1)
        assert len(hits) == 0
        assert cost == 1

    def test_inverted_interval(self):
        bw = window_with([1, 2, 3])
        index = SortedWindowIndex()
        hits, _ = index.range_probe(WindowSlice(bw, 0, 3), 5.0, 2.0)
        assert len(hits) == 0

    def test_cost_is_logarithmic_plus_matches(self):
        bw = window_with(range(1024))
        index = SortedWindowIndex()
        hits, cost = index.range_probe(
            WindowSlice(bw, 0, 1024), 100.0, 103.0
        )
        assert len(hits) == 4
        assert cost == 10 + 4  # log2(1024) + matches


class TestCaching:
    def test_rebuild_only_on_change(self):
        bw = window_with([3, 1, 2])
        index = SortedWindowIndex()
        s = WindowSlice(bw, 0, 3)
        index.range_probe(s, 0, 10)
        index.range_probe(s, 0, 10)
        assert index.rebuilds == 1
        bw.insert(StreamTuple(value=9.0, timestamp=99.0, stream=0, seq=9),
                  now=99.0)
        index.range_probe(WindowSlice(bw, 0, 4), 0, 10)
        assert index.rebuilds == 2

    def test_clear_invalidates(self):
        bw = window_with([1, 2])
        index = SortedWindowIndex()
        index.range_probe(WindowSlice(bw, 0, 2), 0, 10)
        bw.rotate_to(1e6)
        assert bw.evict_basic_window(1) == 2
        hits, _ = index.range_probe(WindowSlice(bw, *bw.live_rows), 0, 10)
        assert len(hits) == 0
        bw.insert(StreamTuple(value=5.0, timestamp=7.0, stream=0, seq=7),
                  now=1e6)
        hits, _ = index.range_probe(WindowSlice(bw, *bw.live_rows), 0, 10)
        assert len(hits) == 1 and index.rebuilds == 2

    def test_non_scalar_rejected(self):
        bw = window_with([{"a": 1}], mode="generic")
        index = SortedWindowIndex()
        with pytest.raises(ValueError):
            index.range_probe(WindowSlice(bw, 0, 1), 0, 1)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-100, max_value=100), min_size=1, max_size=40
    ),
    low=st.floats(min_value=-120, max_value=120),
    span=st.floats(min_value=0, max_value=100),
    lo_idx=st.integers(min_value=0, max_value=10),
)
def test_property_index_equals_linear_scan(values, low, span, lo_idx):
    bw = window_with(values)
    lo = min(lo_idx, len(bw))
    s = WindowSlice(bw, lo, len(bw))
    index = SortedWindowIndex()
    hits, _ = index.range_probe(s, low, low + span)
    vals = s.values
    expected = {i for i, v in enumerate(vals) if low <= v <= low + span}
    assert set(int(h) for h in hits) == expected
