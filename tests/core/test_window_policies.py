"""PartitionedWindow under the WindowPolicy seam.

The policy only restricts the sliding substrate — rotation, retention
and slicing are untouched — so these tests pin the seam itself: live
sets at exact epoch boundaries, session expiry on empty/stale windows,
and ``merge_slices`` over policy-cut slices.
"""

from repro.core import PartitionedWindow
from repro.joins.pipeline import merge_slices
from repro.streams import StreamTuple
from repro.streams.windows import SessionWindow


def tup(ts, seq=0):
    return StreamTuple(value=float(ts), timestamp=float(ts), stream=0,
                       seq=seq)


def build(policy=None, window=4.0, basic=1.0, timestamps=()):
    win = PartitionedWindow(window, basic, policy=policy)
    for i, ts in enumerate(timestamps):
        win.rotate_to(ts)
        win.insert(tup(ts, seq=i), ts)
    return win


def live_timestamps(win, now):
    out = []
    for s in win.full_slices(now):
        out.extend(float(t) for t in s.store.timestamps[s.lo:s.hi])
    return sorted(out)


class TestSlidingDefault:
    def test_policy_sliding_matches_default_path(self):
        stamps = [0.5, 1.5, 2.5, 3.5, 4.2]
        default = build(None, timestamps=stamps)
        explicit = build("sliding", timestamps=stamps)
        for now in (4.2, 4.5, 5.0, 7.9):
            assert (live_timestamps(default, now)
                    == live_timestamps(explicit, now))

    def test_policy_attribute_resolved(self):
        assert build(None).policy.is_sliding
        assert not build("tumbling").policy.is_sliding


class TestTumbling:
    def test_epoch_members_only(self):
        win = build("tumbling", timestamps=[0.5, 1.5, 2.5, 3.5])
        # horizon 4 -> epochs [0,4), [4,8): everything lives until the
        # boundary...
        assert live_timestamps(win, 3.9) == [0.5, 1.5, 2.5, 3.5]

    def test_whole_epoch_empties_at_exact_boundary(self):
        # slide == window: at now == 4.0 the previous epoch's tuples all
        # leave at once, even though the sliding substrate still retains
        # them (their ages are < 4)
        win = build("tumbling", timestamps=[0.5, 1.5, 2.5, 3.5])
        assert live_timestamps(win, 4.0) == []

    def test_new_epoch_fills_independently(self):
        win = build("tumbling",
                    timestamps=[0.5, 1.5, 2.5, 3.5, 4.2, 4.8])
        assert live_timestamps(win, 4.9) == [4.2, 4.8]

    def test_boundary_tuple_opens_its_epoch(self):
        win = build("tumbling", timestamps=[3.5, 4.0])
        assert live_timestamps(win, 4.0) == [4.0]


class TestSession:
    def test_open_session_spans_chained_arrivals(self):
        win = build(SessionWindow(gap=1.0),
                    timestamps=[0.5, 1.2, 1.9])
        assert live_timestamps(win, 2.3) == [0.5, 1.2, 1.9]

    def test_expired_session_is_empty_despite_retention(self):
        win = build(SessionWindow(gap=1.0), timestamps=[0.5, 1.2])
        # now - newest = 1.3 > gap: the session closed, but the sliding
        # substrate still retains both tuples (ages < 4)
        assert live_timestamps(win, 2.5) == []
        assert len(win) == 2  # physically retained, just not live

    def test_empty_window_stays_empty(self):
        win = build(SessionWindow(gap=1.0))
        assert win.full_slices(5.0) == []

    def test_gap_break_cuts_older_session(self):
        win = build(SessionWindow(gap=1.0),
                    timestamps=[0.5, 1.2, 3.0, 3.6])
        assert live_timestamps(win, 3.8) == [3.0, 3.6]

    def test_session_still_bounded_by_horizon(self):
        # a dense chain longer than the window: the policy would keep it
        # all, but retention (ages < 4) still trims the old end
        stamps = [0.5 * i for i in range(13)]  # 0.0 .. 6.0
        win = build(SessionWindow(gap=1.0), timestamps=stamps)
        assert live_timestamps(win, 6.0) == [
            0.5 * i for i in range(5, 13)  # (2.0, 6.0]
        ]


class TestMergeSlices:
    def test_policy_slices_merge_cleanly(self):
        win = build(SessionWindow(gap=1.0),
                    timestamps=[0.5, 1.2, 1.9, 2.6, 3.3])
        slices = win.full_slices(3.5)
        merged = merge_slices(slices)
        assert sum(len(s) for s in merged) == sum(len(s) for s in slices)
        kept = sorted(
            float(t) for s in merged
            for t in s.store.timestamps[s.lo:s.hi]
        )
        assert kept == [0.5, 1.2, 1.9, 2.6, 3.3]

    def test_tumbling_cut_survives_merge(self):
        win = build("tumbling", timestamps=[3.5, 4.2, 4.8])
        merged = merge_slices(win.full_slices(5.0))
        kept = sorted(
            float(t) for s in merged
            for t in s.store.timestamps[s.lo:s.hi]
        )
        assert kept == [4.2, 4.8]
