"""Tests for the shared NLJ probe pipeline."""

import itertools

import numpy as np

from repro.core import PartitionedWindow
from repro.core.basic_windows import PartitionedWindow, WindowSlice
from repro.joins import EpsilonJoin, merge_slices, run_pipeline
from repro.streams import StreamTuple


def tup(ts, value, stream=0, seq=None):
    return StreamTuple(
        value=float(value),
        timestamp=float(ts),
        stream=stream,
        seq=int(ts * 100) if seq is None else seq,
    )


def fill_window(values, stream, now=5.0):
    win = PartitionedWindow(10.0, 2.0)
    for k, v in enumerate(values):
        ts = k * 0.3
        win.insert(tup(ts, v, stream=stream, seq=k), now=ts)
    win.rotate_to(now)
    return win


class TestRunPipeline:
    def test_matches_naive_nested_loops(self):
        rng = np.random.default_rng(0)
        vals1 = rng.uniform(0, 10, 15)
        vals2 = rng.uniform(0, 10, 15)
        w1 = fill_window(vals1, stream=1)
        w2 = fill_window(vals2, stream=2)
        windows = {1: w1, 2: w2}
        probe = tup(5.0, 5.0, stream=0)
        pred = EpsilonJoin(2.0)
        result = run_pipeline(
            probe, [1, 2], lambda hop, l: windows[l].full_slices(5.0), pred
        )
        expected = set()
        for t1 in w1.iter_unexpired(5.0):
            for t2 in w2.iter_unexpired(5.0):
                if (
                    pred.matches(probe.value, t1.value)
                    and pred.matches(probe.value, t2.value)
                    and pred.matches(t1.value, t2.value)
                ):
                    expected.add(
                        ((0, probe.seq), (1, t1.seq), (2, t2.seq))
                    )
        got = {r.key() for r in result.outputs}
        assert got == expected

    def test_comparisons_counted(self):
        w1 = fill_window([5.0] * 10, stream=1)
        w2 = fill_window([5.0] * 10, stream=2)
        windows = {1: w1, 2: w2}
        probe = tup(5.0, 5.0, stream=0)
        result = run_pipeline(
            probe,
            [1, 2],
            lambda hop, l: windows[l].full_slices(5.0),
            EpsilonJoin(1.0),
        )
        # hop1 scans 10, all match; hop2 scans 10 per partial
        assert result.comparisons == 10 + 10 * 10
        assert len(result.outputs) == 100

    def test_early_exit_when_no_matches(self):
        w1 = fill_window([100.0] * 10, stream=1)
        w2 = fill_window([5.0] * 10, stream=2)
        windows = {1: w1, 2: w2}
        probe = tup(5.0, 5.0, stream=0)
        result = run_pipeline(
            probe,
            [1, 2],
            lambda hop, l: windows[l].full_slices(5.0),
            EpsilonJoin(1.0),
        )
        assert result.comparisons == 10  # hop 2 never scanned
        assert result.outputs == []

    def test_hop_stats(self):
        w1 = fill_window([5.0, 5.0, 99.0], stream=1)
        w2 = fill_window([5.0], stream=2)
        windows = {1: w1, 2: w2}
        result = run_pipeline(
            tup(5.0, 5.0, stream=0),
            [1, 2],
            lambda hop, l: windows[l].full_slices(5.0),
            EpsilonJoin(1.0),
        )
        assert result.hop_stats[0].scanned == 3
        assert result.hop_stats[0].matched == 2
        assert result.hop_stats[1].scanned == 2
        assert result.hop_stats[1].matched == 2

    def test_outputs_sorted_by_stream(self):
        w1 = fill_window([5.0], stream=2)
        w0 = fill_window([5.0], stream=0)
        windows = {2: w1, 0: w0}
        result = run_pipeline(
            tup(5.0, 5.0, stream=1),
            [2, 0],
            lambda hop, l: windows[l].full_slices(5.0),
            EpsilonJoin(1.0),
        )
        assert [t.stream for t in result.outputs[0].constituents] == [0, 1, 2]

    def test_clique_condition_enforced(self):
        """Two window tuples that both match the probe but not each other
        must not appear in the same output."""
        w1 = fill_window([4.2], stream=1)
        w2 = fill_window([5.8], stream=2)  # matches probe, not w1's 4.2
        windows = {1: w1, 2: w2}
        result = run_pipeline(
            tup(5.0, 5.0, stream=0),
            [1, 2],
            lambda hop, l: windows[l].full_slices(5.0),
            EpsilonJoin(1.0),
        )
        assert result.outputs == []


class TestMergeSlices:
    def _bw(self, n=20):
        bw = PartitionedWindow(100.0, 100.0)  # rows 0..n-1, one window
        for i in range(n):
            bw.insert(tup(i * 0.1, i, seq=i), now=i * 0.1)
        return bw

    def test_adjacent_merged(self):
        bw = self._bw()
        merged = merge_slices(
            [WindowSlice(bw, 0, 5), WindowSlice(bw, 5, 9)]
        )
        assert len(merged) == 1
        assert (merged[0].lo, merged[0].hi) == (0, 9)

    def test_gap_not_merged(self):
        bw = self._bw()
        merged = merge_slices(
            [WindowSlice(bw, 0, 3), WindowSlice(bw, 5, 9)]
        )
        assert len(merged) == 2

    def test_overlap_merged(self):
        bw = self._bw()
        merged = merge_slices(
            [WindowSlice(bw, 2, 8), WindowSlice(bw, 5, 10)]
        )
        assert len(merged) == 1
        assert (merged[0].lo, merged[0].hi) == (2, 10)

    def test_different_windows_kept_apart(self):
        a, b = self._bw(), self._bw()
        merged = merge_slices([WindowSlice(a, 0, 5), WindowSlice(b, 5, 9)])
        assert len(merged) == 2

    def test_strided_passthrough(self):
        bw = self._bw()
        merged = merge_slices(
            [WindowSlice(bw, 0, 10, step=2), WindowSlice(bw, 10, 20)]
        )
        assert len(merged) == 2

    def test_out_of_order_input(self):
        bw = self._bw()
        merged = merge_slices(
            [WindowSlice(bw, 8, 12), WindowSlice(bw, 0, 8)]
        )
        assert len(merged) == 1

    def test_merge_preserves_total_coverage(self):
        bw = self._bw()
        pieces = [WindowSlice(bw, a, b) for a, b in
                  [(0, 4), (4, 7), (10, 12), (7, 10)]]
        merged = merge_slices(pieces)
        covered = sorted(
            itertools.chain.from_iterable(
                range(s.lo, s.hi) for s in merged
            )
        )
        assert covered == list(range(12))

    def test_strided_interleaved_with_mergeable(self):
        # a strided slice between two abutting unit slices must not
        # break their merge, and must itself survive untouched
        bw = self._bw()
        merged = merge_slices([
            WindowSlice(bw, 0, 5),
            WindowSlice(bw, 5, 15, step=2),
            WindowSlice(bw, 5, 9),
        ])
        assert len(merged) == 2
        strided = [s for s in merged if s.step != 1]
        assert [(s.lo, s.hi, s.step) for s in strided] == [(5, 15, 2)]
        unit = [s for s in merged if s.step == 1]
        assert [(s.lo, s.hi) for s in unit] == [(0, 9)]

    def test_contained_range_absorbed(self):
        bw = self._bw()
        merged = merge_slices(
            [WindowSlice(bw, 0, 10), WindowSlice(bw, 2, 5)]
        )
        assert [(s.lo, s.hi) for s in merged] == [(0, 10)]

    def test_duplicate_slices_collapse(self):
        bw = self._bw()
        merged = merge_slices(
            [WindowSlice(bw, 3, 7), WindowSlice(bw, 3, 7)]
        )
        assert [(s.lo, s.hi) for s in merged] == [(3, 7)]

    def test_chain_of_overlaps_collapses_to_one(self):
        bw = self._bw()
        merged = merge_slices([
            WindowSlice(bw, 6, 11),
            WindowSlice(bw, 0, 4),
            WindowSlice(bw, 3, 8),
        ])
        assert [(s.lo, s.hi) for s in merged] == [(0, 11)]

    # ------------------------------------------------------------------
    # the fast-skip prefix: inputs that cannot coalesce return a plain
    # copy without the sort-and-merge pass, with identical semantics
    # ------------------------------------------------------------------

    def test_empty_input(self):
        assert merge_slices([]) == []

    def test_singleton_returned_as_fresh_list(self):
        bw = self._bw()
        slices = [WindowSlice(bw, 2, 7)]
        merged = merge_slices(slices)
        assert merged == slices
        assert merged is not slices
        assert merged[0] is slices[0]

    def test_singleton_strided_passthrough(self):
        bw = self._bw()
        s = WindowSlice(bw, 0, 9, step=3)
        merged = merge_slices([s])
        assert merged == [s]

    def test_distinct_windows_skip_preserves_order(self):
        windows = [self._bw() for _ in range(4)]
        slices = [WindowSlice(w, 1, 6) for w in windows]
        merged = merge_slices(slices)
        assert [s.store for s in merged] == windows
        assert all(a is b for a, b in zip(merged, slices))

    def test_skip_does_not_mutate_input(self):
        bw = self._bw()
        slices = [WindowSlice(bw, 0, 3)]
        merged = merge_slices(slices)
        merged.append(WindowSlice(bw, 5, 9))
        assert len(slices) == 1

    def test_repeated_window_still_coalesces(self):
        # the skip must not trigger when a window appears twice, even
        # when the slices cannot merge — the sorted-output contract of
        # the slow pass still applies
        bw = self._bw()
        merged = merge_slices(
            [WindowSlice(bw, 6, 9), WindowSlice(bw, 0, 3)]
        )
        assert [(s.lo, s.hi) for s in merged] == [(0, 3), (6, 9)]

    def test_strided_before_unstrided_still_processed(self):
        # a strided slice breaks the skip scan; the full pass must still
        # merge the unstrided remainder
        bw = self._bw()
        merged = merge_slices(
            [
                WindowSlice(bw, 0, 9, step=4),
                WindowSlice(bw, 0, 4),
                WindowSlice(bw, 4, 8),
            ]
        )
        strided = [s for s in merged if s.step != 1]
        plain = [s for s in merged if s.step == 1]
        assert len(strided) == 1
        assert [(s.lo, s.hi) for s in plain] == [(0, 8)]

    def test_multiple_windows_first_seen_order(self):
        # groups come out in the order their window first appeared in
        # the input, regardless of how their slices interleave
        a, b = self._bw(), self._bw()
        merged = merge_slices([
            WindowSlice(b, 4, 8),
            WindowSlice(a, 0, 5),
            WindowSlice(b, 0, 4),
            WindowSlice(a, 5, 9),
        ])
        assert [s.store for s in merged] == [b, a]
        assert [(s.lo, s.hi) for s in merged] == [(0, 8), (0, 9)]
