"""Basic-window partitioned join windows (paper Section 4.1.1).

Each join window ``W_i`` of size ``w`` seconds is divided into basic
windows of ``b`` seconds.  Basic windows are integral units, so the window
physically consists of ``n + 1`` of them, where ``n = ceil(w / b)``: the
first (newest) is still open and the last contains some expired tuples.
Every ``b`` seconds the structure *rotates* — the oldest basic window is
dropped wholesale (batch expiration) and a new, empty first one opens.

At any instant the unexpired tuples can be viewed as ``n`` **logical basic
windows**: logical window ``j`` holds exactly the tuples whose age lies in
``[(j-1)*b, j*b)``.  Because of the rotation phase ``theta = delta/b``
(``delta`` = time since the last rotation), logical window ``j`` straddles
physical windows ``j`` and ``j+1``; the split point is found with a binary
search on the timestamp column, so no linear scan is ever needed.

The store.  A :class:`PartitionedWindow` keeps its stream's tuples in
**one** set of columns — ``ts``, value, ``seq`` and the tuple objects
themselves — in ascending timestamp order; the physical basic windows
are the ``n + 1`` row ranges between the entries of an ``n + 2``-entry
boundary table that starts at the head and ends at the tail.  An
in-order tuple is one append at the tail whichever basic window covers
it, a rotation moves
boundaries and copies nothing, and any contiguous selection — the whole
unexpired window, a run of logical windows — is one
:class:`WindowSlice`, i.e. one array view, found with at most two
searches.  The layout is linear, not circular: when the tail reaches
capacity the live rows are copied to the front (into arrays twice the
size if they take more than half), which costs the same amortised one
copy per row as a ring and leaves no wrap-around case anywhere.  The
rare mutations — a late tuple, evicting a basic window from the middle —
shift the rows above them, in every column alike.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import count
from typing import Iterator, Sequence

import numpy as np

from repro.streams.tuples import StreamTuple
from repro.streams.windows import WindowPolicy, resolve_policy

#: storage modes for the join-attribute values
SCALAR, VECTOR, GENERIC = "scalar", "vector", "generic"
_MODES = (SCALAR, VECTOR, GENERIC)

_INITIAL_CAPACITY = 64

#: every per-row column a store keeps (``_vals`` is None in generic mode)
_COLUMNS = ("_ts", "_vals", "_seq", "_tups")


class WindowSlice:
    """Rows ``lo, lo + step, ... < hi`` of one stream's store, selected
    for probing.

    Normally contiguous (``step == 1``); window shredding uses ``step > 1``
    to scan an evenly distributed sample (see
    :meth:`PartitionedWindow.strided`).
    """

    __slots__ = ("store", "lo", "hi", "step", "_len")

    def __init__(
        self, store: "PartitionedWindow", lo: int, hi: int, step: int = 1
    ) -> None:
        if step < 1:
            raise ValueError("step must be at least 1")
        self.store = store
        self.lo = lo
        self.hi = hi
        self.step = step
        span = hi - lo
        self._len = (span + step - 1) // step if span > 0 else 0

    def __len__(self) -> int:
        return self._len

    @property
    def values(self) -> np.ndarray | list:
        """The selected rows' join-attribute values: a view of the value
        column (scalar / vector storage) or a list built from the selected
        tuples only (generic storage) — ``O(len(self))`` either way."""
        vals = self.store._vals
        if vals is not None:
            return vals[self.lo : self.hi : self.step]
        return [t.value for t in self.tuples]

    @property
    def seqs(self) -> np.ndarray:
        """The selected rows' sequence numbers (a view)."""
        return self.store._seq[self.lo : self.hi : self.step]

    @property
    def tuples(self) -> list[StreamTuple]:
        return self.store._tups[self.lo : self.hi : self.step].tolist()

    def tuple_at(self, idx: int) -> StreamTuple:
        """The idx-th *selected* tuple (accounting for the stride)."""
        return self.store._tups[self.lo + idx * self.step]


class PartitionedWindow:
    """A join window: one column store cut into ``n + 1`` basic windows.

    Args:
        window_size: ``w`` in seconds.
        basic_window_size: ``b`` in seconds; the paper recommends small
            enough to capture the time correlations but not so small that
            per-segment overhead dominates.
        mode: value storage mode — ``scalar`` keeps a float column,
            ``vector`` a 2-D one (both enable vectorized predicate
            probes), ``generic`` only ``ts`` / ``seq`` and the tuples.
        dim: vector dimension for ``vector`` mode.
        policy: membership policy (:class:`~repro.streams.windows
            .WindowPolicy` instance, spec string, or ``None`` for the
            bit-identical sliding default).  Non-sliding policies only
            further restrict :meth:`full_slices`; retention, rotation,
            and the harvesting views are policy-independent.

    Every column, the tuple objects included, is indexed by store row
    and moved by the same code: a row's contents are only valid while it
    is live, so anything that must outlive a later mutation (the
    columnar kernel's :class:`~repro.joins.columnar.ResultBlock`)
    gathers what it needs at the rows when it runs.
    """

    __slots__ = (
        "window_size", "basic_window_size", "n", "mode", "policy", "windex",
        "_tups", "_ts", "_vals", "_seq", "_bounds", "_derived", "_last",
        "_epoch_start", "frozen_version",
    )

    def __init__(
        self,
        window_size: float,
        basic_window_size: float,
        mode: str = SCALAR,
        dim: int | None = None,
        policy: "WindowPolicy | str | None" = None,
        index=None,
    ) -> None:
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        if basic_window_size <= 0:
            raise ValueError("basic_window_size must be positive")
        if basic_window_size > window_size:
            raise ValueError("basic window cannot exceed the join window")
        if mode not in _MODES:
            raise ValueError(f"unknown storage mode {mode!r}")
        if mode == VECTOR and (dim is None or dim <= 0):
            raise ValueError("vector mode requires a positive dim")
        if index is not None and mode != SCALAR:
            raise ValueError("partition indexes require scalar storage")
        self.window_size = float(window_size)
        self.basic_window_size = float(basic_window_size)
        self.n = math.ceil(window_size / basic_window_size)
        self.mode = mode
        self.policy = resolve_policy(policy)
        #: per-stream partition-index state
        #: (:class:`repro.core.windex.WindowIndexState` or ``None``)
        self.windex = index
        self._ts = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        if mode == SCALAR:
            self._vals: np.ndarray | None = np.empty(
                _INITIAL_CAPACITY, dtype=np.float64
            )
        elif mode == VECTOR:
            self._vals = np.empty((_INITIAL_CAPACITY, dim), dtype=np.float64)
        else:
            self._vals = None
        self._seq = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        #: the inserted StreamTuple objects themselves, by store row
        self._tups = np.empty(_INITIAL_CAPACITY, dtype=object)
        #: ascending row boundaries, head first and tail last: physical
        #: basic window ``k`` (ring index, 0 = newest, still open)
        #: is rows ``[_bounds[-k - 2], _bounds[-k - 1])`` (the hash
        #: index's charge reads this and ``_derived`` directly: it runs
        #: once per hop, where a method call costs more than its work)
        self._bounds = [0] * (self.n + 2)
        #: per physical window (``_derived[-k - 1]``, like the
        #: boundaries): what an index derived from its rows (see
        #: :meth:`derived`)
        self._derived: list[dict] = [{} for _ in range(self.n + 1)]
        #: timestamp of the newest row as a python float, so the in-order
        #: check never reads the array; meaningless while nothing is stored
        self._last = 0.0
        self._epoch_start = 0.0
        #: moves whenever the frozen windows (ring index >= 1) may differ
        #: from before: a rotation, a shift or expiry that empties a
        #: window's derived slot, or an in-order append into a frozen
        #: window.  Compaction moves no window-relative row and leaves
        #: it alone
        self.frozen_version = 0

    # ------------------------------------------------------------------
    # time management
    # ------------------------------------------------------------------

    @property
    def epoch_start(self) -> float:
        """Start time of the basic window still open."""
        return self._epoch_start

    def theta(self, now: float) -> float:
        """The rotation phase ``theta = delta / b`` in ``[0, 1)``."""
        self.rotate_to(now)
        return (now - self._epoch_start) / self.basic_window_size

    def rotate_to(self, now: float) -> None:
        """Apply all rotations due by time ``now``.

        Each rotation advances the head past the oldest basic window
        (batch-expiring its tuples) and opens an empty one at the tail;
        no row moves.  The expired window's derived slot goes with it.
        """
        b = self.basic_window_size
        while now - self._epoch_start >= b:
            self._bounds = [*self._bounds[1:], self._bounds[-1]]
            self._derived = [*self._derived[1:], {}]
            self._epoch_start += b
            self.frozen_version += 1

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def insert(self, tup: StreamTuple, now: float) -> None:
        """Insert a tuple at virtual time ``now``.

        The tuple belongs to the physical basic window covering its own
        timestamp, which may not be the newest one when the tuple waited in
        an input buffer for more than ``b`` seconds; in timestamp order it
        is still the newest row, so it is appended at the tail and the
        (empty) newer windows' ranges move up behind it.  Tuples older
        than the whole window are silently ignored (already expired).
        Out-of-order arrivals (network reordering, merge skew) are shifted
        into their timestamp position so the store-wide timestamp order —
        which every binary search relies on — is always preserved.
        """
        if now - self._epoch_start >= self.basic_window_size:
            self.rotate_to(now)
        ts = tup.timestamp
        offset = self._epoch_start - ts
        k = 0 if offset <= 0 else math.ceil(offset / self.basic_window_size)
        if k > self.n:
            return
        bounds = self._bounds
        row = bounds[-1]
        if row > bounds[0] and ts < self._last:
            row = self._open_gap(ts, k)
        else:
            if row == len(self._ts):
                self._make_room()
                bounds = self._bounds
                row = bounds[-1]
            self._last = ts
            if k:
                # row order has the last word: a window with newer rows
                # above it cannot take the tail row (window 0 ends there)
                while bounds[-k - 1] != row:
                    k -= 1
                if k:
                    self.frozen_version += 1
                for j in range(1, k + 1):
                    bounds[-j - 1] = row + 1
            bounds[-1] = row + 1
        self._ts[row] = ts
        if self._vals is not None:
            self._vals[row] = tup.value
        self._seq[row] = tup.seq
        self._tups[row] = tup
        if self.windex is not None and self.windex.needs_sensor:
            self.windex.observe(tup.value)

    def _open_gap(self, ts: float, k: int) -> int:
        """Make room for a late tuple at its timestamp position — after
        any rows with the same timestamp — and return that row.  Only
        the rows above it move (docs/PERFORMANCE.md section 7, "The rare
        paths")."""
        if self._bounds[-1] == len(self._ts):
            self._make_room()
        bounds = self._bounds
        head = bounds[0]
        pos = head + int(self._ts[head : bounds[-1]].searchsorted(ts, "right"))
        # ring arithmetic proposed window k; the row order disposes
        while pos > bounds[-k - 1]:
            k -= 1
        while pos < bounds[-k - 2]:
            k += 1
        self._shift_rows(pos, 1, k)
        return pos

    def _shift_rows(self, src: int, delta: int, k: int) -> None:
        """Move rows ``[src, tail)`` by ``delta``: open a gap inside
        physical window ``k`` (``delta > 0``; the caller writes it) or
        close the one its eviction leaves (``delta < 0``)."""
        bounds = self._bounds
        tail = bounds[-1]
        for name in _COLUMNS:
            col = getattr(self, name)
            if col is not None:
                # .copy(): the two ranges overlap
                col[src + delta : tail + delta] = col[src:tail].copy()
        if delta < 0:
            # the vacated rows stop holding the evicted tuples
            self._tups[tail + delta : tail] = None
        for j in range(k + 1):
            bounds[-j - 1] += delta
        self._derived[-k - 1].clear()
        self.frozen_version += 1
        if delta < 0 and bounds[-1] > bounds[0]:
            self._last = float(self._ts[bounds[-1] - 1])

    def _make_room(self) -> None:
        """The tail is at capacity: copy the live rows to the front, into
        arrays twice the size if they take more than half."""
        bounds = self._bounds
        head, tail = bounds[0], bounds[-1]
        live = tail - head
        capacity = len(self._ts)
        grow = 2 * live > capacity
        for name in _COLUMNS:
            col = getattr(self, name)
            if col is None:
                continue
            # in place the ranges cannot overlap: live <= capacity / 2 and
            # the tail is at capacity, so head >= live
            new = (
                np.empty((2 * capacity, *col.shape[1:]), dtype=col.dtype)
                if grow else col
            )
            new[:live] = col[head:tail]
            setattr(self, name, new)
        # the rows the live ones were copied out of stop holding tuples
        self._tups[live:tail] = None
        self._bounds = [row - head for row in bounds]

    # ------------------------------------------------------------------
    # the store, by row and by physical basic window
    # ------------------------------------------------------------------

    @property
    def timestamps(self) -> np.ndarray:
        """Timestamp column by store row (a view; do not mutate).  Rows
        ``live_rows[0]`` and up are live and ascending."""
        return self._ts[: self._bounds[-1]]

    @property
    def values(self) -> np.ndarray | list:
        """Join-attribute values aligned with :attr:`timestamps`."""
        if self._vals is not None:
            return self._vals[: self._bounds[-1]]
        return [t.value for t in self.tuples]

    @property
    def tuples(self) -> np.ndarray:
        """The inserted :class:`StreamTuple` objects aligned with
        :attr:`timestamps` (an object-array view; do not mutate)."""
        return self._tups[: self._bounds[-1]]

    @property
    def seqs(self) -> np.ndarray:
        """Per-stream sequence numbers aligned with :attr:`timestamps`."""
        return self._seq[: self._bounds[-1]]

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``seq`` numbers and the tuple objects at store ``rows``:
        copies, which no later change to the store reaches."""
        return self._seq[rows], self._tups[rows]

    @property
    def live_rows(self) -> tuple[int, int]:
        """``(head, tail)``: the stored rows, expired stragglers of the
        oldest basic window included."""
        return self._bounds[0], self._bounds[-1]

    def window_rows(self, k: int) -> tuple[int, int]:
        """Row range ``[start, stop)`` of physical basic window ``k``
        (ring index: 0 = still open, ``n`` = oldest)."""
        return self._bounds[-k - 2], self._bounds[-k - 1]

    def derived(self, k: int) -> dict:
        """The slot for data derived from physical window ``k``'s rows
        (ring index), one entry per consumer under a fixed string key
        (``"windex"``, ``"sorted"``).

        The store empties the slot whenever a row's offset from the
        window's start moves — a late insert's or an eviction's shift,
        an early expiry — and drops it when the window rotates out.
        Appends leave it alone, so an entry built over the window's
        first ``len`` rows stays valid for them; compaction moves the
        window's start, not its rows' offsets.
        """
        return self._derived[-k - 1]

    def window_pieces(
        self, lo: int, hi: int
    ) -> list[tuple[int, int, int, int]]:
        """Rows ``[lo, hi)`` cut at the physical basic window boundaries:
        ``(ring index, the window's first row, lo, hi)`` per non-empty
        piece, oldest first."""
        if hi <= lo:
            return []
        bounds = self._bounds
        # from the window holding row lo (the last boundary at or below
        # it) to the last one starting below hi: every non-empty window
        # in that span overlaps [lo, hi), and only the end ones can
        # stick out of it
        first = max(bisect_right(bounds, lo) - 1, 0)
        last = bisect_left(bounds, hi, first)
        n = self.n
        pieces = [
            (n - p, start, start, stop)
            for p, start, stop in zip(
                count(first), bounds[first:last], bounds[first + 1 : last + 1]
            )
            if stop > start
        ]
        if pieces:
            k, start, _, stop = pieces[0]
            pieces[0] = (k, start, max(lo, start), stop)
            k, start, piece_lo, stop = pieces[-1]
            pieces[-1] = (k, start, piece_lo, min(hi, stop))
        return pieces

    def strided(
        self, slices: Sequence[WindowSlice], step: int
    ) -> list[WindowSlice]:
        """Every ``step``-th row of ``slices``, the stride **restarting at
        every physical basic window boundary**: one strided slice per
        basic window touched, each starting at its first selected row.
        That is what keeps a sample even per basic window, and which rows
        a sampled probe scans is part of the virtual-time contract."""
        if step == 1:
            return list(slices)
        return [
            WindowSlice(self, lo, hi, step)
            for s in slices
            for _, _, lo, hi in self.window_pieces(s.lo, s.hi)
        ]

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def _expiry_row(self, now: float) -> int:
        """First unexpired row (age under ``n*b``): one search, in the
        only window that can hold expired rows — the oldest."""
        head, stop = self._bounds[0], self._bounds[1]
        if stop == head:
            return head
        cut = now - self.n * self.basic_window_size
        return head + int(self._ts[head:stop].searchsorted(cut, "right"))

    def _slices_between(
        self, ts_lo: float, ts_hi: float
    ) -> list[WindowSlice]:
        """The rows with timestamp in ``(ts_lo, ts_hi]``: at most one
        slice, from one search per bound.

        Ring arithmetic only picks which physical windows to search;
        membership is decided on actual timestamps, because a row was
        placed against the ``_epoch_start`` of its insertion, not today's.
        """
        epoch, b, n = self._epoch_start, self.basic_window_size, self.n
        k_first = 0 if ts_hi >= epoch else math.ceil((epoch - ts_hi) / b)
        if k_first > n:
            return []
        k_last = (
            0 if ts_lo >= epoch else min(math.ceil((epoch - ts_lo) / b), n)
        )
        start, stop = self._bounds[-k_last - 2], self._bounds[-k_first - 1]
        if stop == start:
            return []
        ts = self._ts[start:stop]
        lo = start + int(ts.searchsorted(ts_lo, "right"))
        hi = (
            stop if ts_hi >= self._last
            else start + int(ts.searchsorted(ts_hi, "right"))
        )
        return [WindowSlice(self, lo, hi)] if hi > lo else []

    def logical_window_slices(
        self, j: int, now: float, reference: float | None = None
    ) -> list[WindowSlice]:
        """The slice (none if empty) holding logical basic window ``j``
        (1-based).

        Logical window ``j`` contains exactly the tuples with age in
        ``[(j-1)*b, j*b)`` relative to ``reference`` (default ``now``).

        The window-harvesting scores rank offsets relative to the *probing
        tuple's* timestamp, so probes pass the tuple's own timestamp as the
        reference; when the operator keeps up the two coincide, but under
        backlog a stale probing tuple must still scan the segments aligned
        with its own timestamp or the concentrated matches are missed.
        """
        if not 1 <= j <= self.n:
            raise ValueError(f"logical window index {j} out of [1, {self.n}]")
        self.rotate_to(now)
        if reference is None:
            reference = now
        b = self.basic_window_size
        return self._slices_between(reference - j * b, reference - (j - 1) * b)

    def full_slices(self, now: float) -> list[WindowSlice]:
        """The slice covering the entire unexpired window (ages in
        ``[0, n*b)``) — what a full, non-harvested join probes — found by
        one search for the expiry cut.

        Under a non-sliding :attr:`policy` the live set is the sliding
        set further restricted by the policy's inclusive lower timestamp
        bound.
        """
        if now - self._epoch_start >= self.basic_window_size:  # runs per hop
            self.rotate_to(now)
        if not self.policy.is_sliding:
            return self._policy_slices(now)
        lo, stop, tail = self._bounds[0], self._bounds[1], self._bounds[-1]
        if stop > lo:  # _expiry_row(), inline
            cut = now - self.n * self.basic_window_size
            lo += int(self._ts[lo:stop].searchsorted(cut, "right"))
        return [WindowSlice(self, lo, tail)] if tail > lo else []

    def _policy_slices(self, now: float) -> list[WindowSlice]:
        """Policy-restricted live slice (non-sliding policies only).

        Takes the sliding-live rows (timestamps in ``(now - n*b, now]``),
        hands the policy their ascending timestamps plus ``now``, and
        recuts at the returned inclusive lower bound — the same bound
        the testkit oracle applies with ``bisect_left``.
        """
        horizon = self.n * self.basic_window_size
        head, tail = self.live_rows
        ts = self._ts[head:tail]
        lo = int(ts.searchsorted(now - horizon, "right"))
        hi = int(ts.searchsorted(now, "right"))
        cut = self.policy.live_from(horizon, ts[lo:hi].tolist(), now)
        if cut != float("-inf"):
            lo = max(lo, int(ts.searchsorted(cut, "left")))
        return [WindowSlice(self, head + lo, head + hi)] if hi > lo else []

    def logical_span_slices(
        self,
        j_lo: int,
        j_hi: int,
        now: float,
        reference: float | None = None,
    ) -> list[WindowSlice]:
        """The slice (none if empty) holding logical basic windows
        ``j_lo..j_hi`` (1-based, inclusive) — the tuples with age in
        ``[(j_lo-1)*b, j_hi*b)`` relative to ``reference``.

        A run is contiguous in the store, so it costs at most two binary
        searches whatever ``n`` and its length are: with the
        once-per-configuration run decomposition of
        :meth:`repro.core.harvesting.HarvestConfiguration.selected_runs`
        the searching a harvested probe does is linear in the number of
        runs.
        """
        if not 1 <= j_lo <= j_hi <= self.n:
            raise ValueError(
                f"logical run [{j_lo}, {j_hi}] out of [1, {self.n}]"
            )
        self.rotate_to(now)
        if reference is None:
            reference = now
        b = self.basic_window_size
        return self._slices_between(
            reference - j_hi * b, reference - (j_lo - 1) * b
        )

    # ------------------------------------------------------------------
    # early eviction
    # ------------------------------------------------------------------

    def _expire_from(self, k: int) -> int:
        """Advance the head past physical windows ``k..n``; returns the
        number of rows dropped."""
        bounds = self._bounds
        dropped = bounds[-k - 1] - bounds[0]
        if dropped:
            older = self.n + 1 - k  # windows k..n: the first entries
            bounds[:older] = [bounds[-k - 1]] * older
            for slot in self._derived[:older]:
                slot.clear()
            self.frozen_version += 1
        return dropped

    def evict_older_than(self, age: float, now: float) -> int:
        """Early-evict every basic window wholly older than ``age`` seconds.

        This is the memory-saving use of window harvesting (paper
        Section 7): segments that no join direction will probe under the
        current configuration need not be retained until their natural
        expiration.  Returns the number of tuples evicted.
        """
        if age < 0:
            raise ValueError("age must be non-negative")
        self.rotate_to(now)
        cutoff = now - age
        # window k's newest possible timestamp falls with k, so the
        # wholly-old windows are the oldest ones: a prefix of the store
        for k in range(1, self.n + 1):
            if self._epoch_start - (k - 1) * self.basic_window_size <= cutoff:
                return self._expire_from(k)
        return 0

    def evict_basic_window(self, k: int) -> int:
        """Early-evict physical basic window ``k`` (ring index, ``1..n``;
        the open window ``0`` is not evictable) and return the number
        of tuples dropped.  The way for an outside policy (memory-limited
        joins) to empty a single window; unless it is the oldest stored
        one, the rows above it shift down to close the gap."""
        if not 1 <= k <= self.n:
            raise ValueError(f"ring index {k} out of [1, {self.n}]")
        start, stop = self.window_rows(k)
        if start == self._bounds[0]:
            return self._expire_from(k)
        if stop > start:
            self._shift_rows(stop, start - stop, k)
        return stop - start

    # ------------------------------------------------------------------
    # counts
    # ------------------------------------------------------------------

    def basic_window_sizes(self) -> list[int]:
        """Stored tuples per physical basic window, ring index 0 (the
        open one) first."""
        bounds = self._bounds
        return [bounds[-k - 1] - bounds[-k - 2] for k in range(self.n + 1)]

    def count_unexpired(self, now: float) -> int:
        """Number of tuples :meth:`full_slices` would cover."""
        self.rotate_to(now)
        if not self.policy.is_sliding:
            return sum(len(s) for s in self._policy_slices(now))
        return self._bounds[-1] - self._expiry_row(now)

    def iter_unexpired(self, now: float) -> Iterator[StreamTuple]:
        """All unexpired tuples in ascending timestamp order, arrival
        order among equal timestamps (until the one-store layout it was
        newest basic window first; a float reduction over this sequence,
        such as :class:`~repro.core.aggregate.ThrottledAggregate`'s
        ``sum`` / ``mean``, therefore adds in a different order and may
        differ from older runs in the last bit)."""
        for s in self.full_slices(now):
            yield from s.tuples

    def __len__(self) -> int:
        """Total stored tuples, including not-yet-expired stragglers."""
        return self._bounds[-1] - self._bounds[0]
