"""Basic-window partitioned join windows (paper Section 4.1.1).

Each join window ``W_i`` of size ``w`` seconds is divided into basic
windows of ``b`` seconds.  Basic windows are integral units, so the window
physically consists of ``n + 1`` of them, where ``n = ceil(w / b)``: the
first (newest) is still filling and the last contains some expired tuples.
Every ``b`` seconds the structure *rotates* — the oldest basic window is
emptied wholesale (batch expiration) and becomes the new first one.

At any instant the unexpired tuples can be viewed as ``n`` **logical basic
windows**: logical window ``j`` holds exactly the tuples whose age lies in
``[(j-1)*b, j*b)``.  Because of the rotation phase ``theta = delta/b``
(``delta`` = time since the last rotation), logical window ``j`` straddles
physical windows ``j`` and ``j+1``; the split point is found with a binary
search on the timestamp arrays, so no linear scan is ever needed.

Tuples inside one join window come from a single stream and are inserted in
timestamp order, so every physical basic window keeps its timestamps
sorted, which is what makes the binary-search slicing valid.

What a cut costs.  Each basic window also keeps its first and last
timestamp as plain floats, and :meth:`BasicWindow.slice_between` answers a
bound that falls outside them by comparison alone.  A harvested run over
many logical windows covers its interior physical windows whole, so it
pays at most two searches — in the windows its two bounds fall inside —
whatever ``n`` is; membership is still decided on actual timestamps in
every window visited, never inferred from ring positions.
:meth:`PartitionedWindow.full_slices` caches the whole-window slices of
the frozen windows until one of *them* changes (rotation, late insert,
eviction), not until the next insert into the filling window.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import islice
from typing import Iterator

import numpy as np

from repro.streams.tuples import StreamTuple
from repro.streams.windows import WindowPolicy, resolve_policy

#: storage modes for the join-attribute values inside a basic window
SCALAR, VECTOR, GENERIC = "scalar", "vector", "generic"
_MODES = (SCALAR, VECTOR, GENERIC)

_INITIAL_CAPACITY = 64


class BasicWindow:
    """One basic window: a growable, timestamp-sorted tuple block.

    Timestamps always live in a numpy array so slicing is a binary search.
    Values live in a numpy array too when the mode allows (``scalar`` for
    floats, ``vector`` for fixed-dimension float vectors), enabling
    vectorized predicate probes; ``generic`` mode keeps only the python
    tuple list.  Sequence numbers live in an int64 column, so a probe
    kernel can name its results (``(stream, seq)`` identities) with array
    gathers, without touching a tuple object.

    :attr:`tuples` is **append-only**: :meth:`clear` and
    :meth:`insert_sorted` bind a new list instead of mutating the old
    one, so a ``(list, row)`` reference taken at probe time (the columnar
    kernel's :class:`~repro.joins.columnar.ResultBlock`) keeps naming the
    same tuple after the window rotates, takes a late insert or is
    evicted.
    """

    __slots__ = (
        "mode", "dim", "tuples", "_ts", "_vals", "_seq", "_count", "_first",
        "_last", "version", "windex",
    )

    def __init__(self, mode: str = SCALAR, dim: int | None = None) -> None:
        if mode not in _MODES:
            raise ValueError(f"unknown storage mode {mode!r}")
        if mode == VECTOR and (dim is None or dim <= 0):
            raise ValueError("vector mode requires a positive dim")
        self.mode = mode
        self.dim = dim
        self.tuples: list[StreamTuple] = []
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
        self._count = 0
        #: ``_ts[0]`` and ``_ts[_count - 1]`` as python floats, so ordering
        #: checks and :meth:`slice_between`'s guards never read the array;
        #: meaningless while the window is empty
        self._first = self._last = 0.0
        #: bumped on every mutation; lets external indexes detect staleness
        self.version = 0
        #: shared per-stream partition-index state
        #: (:class:`repro.core.windex.WindowIndexState`) attached by the
        #: owning :class:`PartitionedWindow`; ``None`` keeps the flat path
        self.windex = None

    def __len__(self) -> int:
        return self._count

    @property
    def timestamps(self) -> np.ndarray:
        """Sorted timestamp array (a view; do not mutate)."""
        return self._ts[: self._count]

    @property
    def values(self) -> np.ndarray | list:
        """Join-attribute values aligned with :attr:`timestamps`."""
        if self._vals is not None:
            return self._vals[: self._count]
        return [t.value for t in self.tuples]

    @property
    def seqs(self) -> np.ndarray:
        """Per-stream sequence numbers aligned with :attr:`timestamps`
        (a view; do not mutate)."""
        return self._seq[: self._count]

    def append(self, tup: StreamTuple) -> None:
        """Add a tuple; its timestamp must not precede the last one."""
        ts = float(tup.timestamp)
        count = self._count
        if count == 0:
            self._first = ts
        elif ts < self._last:
            raise ValueError(
                "basic window appends must be timestamp-ordered "
                f"({ts} < {self._last}); "
                "use insert_sorted for out-of-order arrivals"
            )
        if count == len(self._ts):
            self._grow()
        self._ts[count] = ts
        self._last = ts
        if self.mode == SCALAR:
            self._vals[count] = tup.value
        elif self.mode == VECTOR:
            self._vals[count] = np.asarray(tup.value, dtype=np.float64)
        self._seq[count] = tup.seq
        self.tuples.append(tup)
        self._count = count + 1
        self.version += 1

    def insert_sorted(self, tup: StreamTuple) -> None:
        """Insert a tuple at its timestamp position (late arrivals).

        ``O(n)`` in the basic window's size due to the shift — acceptable
        because disorder is bounded to one basic window's worth of tuples
        and late arrivals are the exception, not the rule.
        """
        if self._count == 0 or tup.timestamp >= self._last:
            self.append(tup)
            return
        ts = float(tup.timestamp)
        pos = int(self._ts[: self._count].searchsorted(ts, "right"))
        if pos == 0:
            self._first = ts
        if self._count == len(self._ts):
            self._grow()
        # .copy() the shifted block: numpy overlapping slice assignment
        # within one array is not guaranteed to behave like memmove
        self._ts[pos + 1 : self._count + 1] = self._ts[
            pos : self._count
        ].copy()
        self._ts[pos] = ts
        if self.mode == SCALAR:
            self._vals[pos + 1 : self._count + 1] = self._vals[
                pos : self._count
            ].copy()
            self._vals[pos] = tup.value
        elif self.mode == VECTOR:
            self._vals[pos + 1 : self._count + 1] = self._vals[
                pos : self._count
            ].copy()
            self._vals[pos] = np.asarray(tup.value, dtype=np.float64)
        self._seq[pos + 1 : self._count + 1] = self._seq[
            pos : self._count
        ].copy()
        self._seq[pos] = tup.seq
        # insert into a copy, never shift in place: see the class docstring
        tuples = self.tuples.copy()
        tuples.insert(pos, tup)
        self.tuples = tuples
        self._count += 1
        # bump twice: a shift moves existing rows, so version advancing
        # faster than the row count tells append-only consumers (the
        # partition-index delta reuse) their cached row mapping is stale
        self.version += 2

    def _grow(self) -> None:
        new_cap = len(self._ts) * 2
        ts = np.empty(new_cap, dtype=np.float64)
        ts[: self._count] = self._ts[: self._count]
        self._ts = ts
        if self._vals is not None:
            shape = (new_cap,) if self.mode == SCALAR else (new_cap, self.dim)
            vals = np.empty(shape, dtype=np.float64)
            vals[: self._count] = self._vals[: self._count]
            self._vals = vals
        seq = np.empty(new_cap, dtype=np.int64)
        seq[: self._count] = self._seq[: self._count]
        self._seq = seq

    def clear(self) -> None:
        """Empty the window in O(1) (batch expiration)."""
        self._count = 0
        # rebind, never clear in place: see the class docstring
        self.tuples = []
        self.version += 1

    def slice_between(self, ts_lo: float, ts_hi: float) -> tuple[int, int]:
        """Index range ``[lo, hi)`` of tuples with timestamp in
        ``(ts_lo, ts_hi]`` (half-open on the old side, matching the logical
        basic window definition).

        Each side is ``searchsorted(timestamps, bound, "right")``, but a
        bound outside ``[first, last)`` is answered from the two cached
        end timestamps without a search: ``first > bound`` means no row
        is ``<= bound`` (index 0), ``last <= bound`` means every row is
        (index ``count``) — by definition what the search would return.
        A run over many physical windows therefore searches only the (at
        most two) windows its bounds actually fall inside.
        """
        count = self._count
        if count == 0:
            return 0, 0
        first, last = self._first, self._last
        if first > ts_lo:
            lo = 0
        elif last <= ts_lo:
            lo = count
        else:
            lo = int(self._ts[:count].searchsorted(ts_lo, "right"))
        if last <= ts_hi:
            hi = count
        elif first > ts_hi:
            hi = 0
        else:
            hi = int(self._ts[:count].searchsorted(ts_hi, "right"))
        return lo, hi


class WindowSlice:
    """A piece of one basic window selected for probing.

    Normally contiguous (``step == 1``); window shredding uses ``step > 1``
    to scan an evenly distributed sample of the window.
    """

    __slots__ = ("window", "lo", "hi", "step", "_len")

    def __init__(
        self, window: BasicWindow, lo: int, hi: int, step: int = 1
    ) -> None:
        if step < 1:
            raise ValueError("step must be at least 1")
        self.window = window
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
        window = self.window
        if window._vals is not None:
            return window._vals[self.lo : self.hi : self.step]
        return [
            t.value for t in window.tuples[self.lo : self.hi : self.step]
        ]

    @property
    def seqs(self) -> np.ndarray:
        """The selected rows' sequence numbers (a view)."""
        return self.window._seq[self.lo : self.hi : self.step]

    @property
    def tuples(self) -> list[StreamTuple]:
        return self.window.tuples[self.lo : self.hi : self.step]

    def tuple_at(self, idx: int) -> StreamTuple:
        """The idx-th *selected* tuple (accounting for the stride)."""
        return self.window.tuples[self.lo + idx * self.step]


class PartitionedWindow:
    """A join window organized as ``n + 1`` rotating basic windows.

    Args:
        window_size: ``w`` in seconds.
        basic_window_size: ``b`` in seconds; the paper recommends small
            enough to capture the time correlations but not so small that
            per-segment overhead dominates.
        mode: value storage mode (``scalar`` / ``vector`` / ``generic``).
        dim: vector dimension for ``vector`` mode.
        start_time: virtual time at which the window begins.
        policy: membership policy (:class:`~repro.streams.windows
            .WindowPolicy` instance, spec string, or ``None`` for the
            bit-identical sliding default).  Non-sliding policies only
            further restrict :meth:`full_slices`; retention, rotation,
            and the harvesting views are policy-independent.
    """

    __slots__ = (
        "window_size", "basic_window_size", "n", "mode", "policy", "_ring",
        "_epoch_start", "rotations", "version", "_frozen_version", "windex",
        "_fs_key", "_fs_frozen", "_fs_live_version", "_fs_live",
        "_fs_now", "_fs_full",
    )

    def __init__(
        self,
        window_size: float,
        basic_window_size: float,
        mode: str = SCALAR,
        dim: int | None = None,
        start_time: float = 0.0,
        policy: "WindowPolicy | str | None" = None,
        index=None,
    ) -> None:
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        if basic_window_size <= 0:
            raise ValueError("basic_window_size must be positive")
        if basic_window_size > window_size:
            raise ValueError("basic window cannot exceed the join window")
        if index is not None and mode != SCALAR:
            raise ValueError("partition indexes require scalar storage")
        self.window_size = float(window_size)
        self.basic_window_size = float(basic_window_size)
        self.n = math.ceil(window_size / basic_window_size)
        self.mode = mode
        self.policy = resolve_policy(policy)
        #: shared per-stream partition-index state
        #: (:class:`repro.core.windex.WindowIndexState` or ``None``);
        #: ring windows are recycled, never replaced, so attaching the
        #: state once here covers every future rotation
        self.windex = index
        #: physical basic windows, index 0 = newest (currently filling)
        self._ring: deque[BasicWindow] = deque(
            BasicWindow(mode, dim) for _ in range(self.n + 1)
        )
        if index is not None:
            for bw in self._ring:
                bw.windex = index
        self._epoch_start = float(start_time)
        #: rotation-epoch counter: increments once per basic-window rotation
        self.rotations = 0
        #: bumped on every content mutation that is not a rotation
        #: (insert, early eviction)
        self.version = 0
        #: bumped only by the mutations that can touch a window other than
        #: the filling one: a late insert into ring ``k >= 1``, an eviction
        self._frozen_version = 0
        # full_slices cache, in three parts keyed on what changes each:
        # ring 1..n-1 (whole frozen windows) per (rotations,
        # _frozen_version); the filling window's slice per version; the
        # assembled list, whose oldest-window cut moves with ``now``, per
        # distinct call time.
        self._fs_key: tuple[int, int] | None = None
        self._fs_frozen: list[WindowSlice] = []
        self._fs_live_version = -1
        self._fs_live: list[WindowSlice] = []
        self._fs_now: float | None = None
        self._fs_full: list[WindowSlice] = []

    # ------------------------------------------------------------------
    # time management
    # ------------------------------------------------------------------

    @property
    def epoch_start(self) -> float:
        """Start time of the currently filling basic window."""
        return self._epoch_start

    def theta(self, now: float) -> float:
        """The rotation phase ``theta = delta / b`` in ``[0, 1)``."""
        self.rotate_to(now)
        return (now - self._epoch_start) / self.basic_window_size

    def rotate_to(self, now: float) -> None:
        """Apply all rotations due by time ``now``.

        Each rotation empties the oldest basic window (batch-expiring its
        tuples) and recycles it as the new first basic window.
        """
        b = self.basic_window_size
        while now - self._epoch_start >= b:
            oldest = self._ring.pop()
            oldest.clear()
            self._ring.appendleft(oldest)
            self._epoch_start += b
            self.rotations += 1
            if self.windex is not None:
                # the previously filling window just froze: drop its
                # cached partition table so the next probe rebuilds it
                # once more, with a zero delta tail, and the append-only
                # reuse rule then holds that table for the window's
                # whole remaining lifetime
                self.windex.mark_frozen(self._ring[1])

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def insert(self, tup: StreamTuple, now: float) -> None:
        """Insert a tuple at virtual time ``now``.

        The tuple lands in the physical basic window covering its own
        timestamp, which may not be the newest one when the tuple waited in
        an input buffer for more than ``b`` seconds.  Tuples older than the
        whole window are silently ignored (already expired).  Out-of-order
        arrivals (network reordering, merge skew) fall back to a sorted
        insert so the per-window timestamp order — which the logical
        basic window binary searches rely on — is always preserved.
        """
        self.rotate_to(now)
        offset = self._epoch_start - tup.timestamp
        if offset <= 0:
            k = 0
        else:
            k = math.ceil(offset / self.basic_window_size)
        if k > self.n:
            return
        target = self._ring[k]
        if target._count and tup.timestamp < target._last:
            target.insert_sorted(tup)
        else:
            target.append(tup)
        self.version += 1
        if k:
            self._frozen_version += 1
        if self.windex is not None and self.windex.needs_sensor:
            self.windex.observe(tup.value)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def _ring_index_of(self, ts: float) -> int:
        """0-based ring index of the physical window covering ``ts``."""
        offset = self._epoch_start - ts
        if offset <= 0:
            return 0
        return math.ceil(offset / self.basic_window_size)

    def _slices_between(
        self, ts_lo: float, ts_hi: float
    ) -> list[WindowSlice]:
        """Non-empty slices of the rows with timestamp in ``(ts_lo, ts_hi]``,
        newest physical window first.

        Ring arithmetic only picks which windows to visit; membership is
        decided inside each by :meth:`BasicWindow.slice_between` on actual
        timestamps, because a row was placed against the ``_epoch_start``
        of its insertion (or of a checkpoint restore), not today's.
        """
        k_first = self._ring_index_of(ts_hi)
        k_last = min(self._ring_index_of(ts_lo), self.n)
        slices = []
        for window in islice(self._ring, k_first, k_last + 1):
            lo, hi = window.slice_between(ts_lo, ts_hi)
            if hi > lo:
                slices.append(WindowSlice(window, lo, hi))
        return slices

    def logical_window_slices(
        self, j: int, now: float, reference: float | None = None
    ) -> list[WindowSlice]:
        """Slices jointly holding logical basic window ``j`` (1-based).

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
        """Slices covering the entire unexpired window (ages in
        ``[0, n*b)``) — what a full, non-harvested join probes.

        The slices over the ``n`` non-oldest physical windows always span
        their full contents, and each part is cached on what can change
        it: the frozen windows (ring ``1..n-1``) until the next rotation,
        late insert or eviction — *not* per insert into the filling
        window, which is what most probes of an m-way join follow — the
        filling window's slice until the next insert, and the assembled
        list per call time, since only the oldest window's expiration cut
        depends on ``now``.  Treat the returned list as immutable.

        Under a non-sliding :attr:`policy` the live set is the sliding
        set further restricted by the policy's inclusive lower timestamp
        bound; that cut moves with ``now`` and the live contents, so the
        policy path bypasses the sliding cache entirely.
        """
        self.rotate_to(now)
        if not self.policy.is_sliding:
            return self._policy_slices(now)
        ring = self._ring
        key = (self.rotations, self._frozen_version)
        if key != self._fs_key:
            self._fs_key = key
            self._fs_frozen = [
                WindowSlice(window, 0, window._count)
                for window in islice(ring, 1, self.n)
                if window._count
            ]
            # no version is negative: falls through to a fresh assembly
            self._fs_live_version = -1
        if self.version != self._fs_live_version:
            self._fs_live_version = self.version
            live = ring[0]
            self._fs_live = (
                [WindowSlice(live, 0, live._count)] if live._count else []
            )
        elif now == self._fs_now:
            return self._fs_full
        slices = self._fs_live + self._fs_frozen
        oldest = ring[self.n]
        lo, hi = oldest.slice_between(
            now - self.n * self.basic_window_size, now
        )
        if hi > lo:
            slices.append(WindowSlice(oldest, lo, hi))
        self._fs_now = now
        self._fs_full = slices
        return slices

    def _policy_slices(self, now: float) -> list[WindowSlice]:
        """Policy-restricted live slices (non-sliding policies only).

        Collects the sliding-live ranges (ages in ``[0, n*b)``), hands
        the policy their ascending timestamps plus ``now``, and recuts
        each range at the returned inclusive lower bound — the same
        bound the testkit oracle applies with ``bisect_left``.
        """
        b = self.basic_window_size
        horizon = self.n * b
        ts_lo = now - horizon
        # ring index 0 is the newest window, so ranges come out newest
        # first; reverse to feed the policy a globally ascending series
        ranges: list[tuple[BasicWindow, int, int]] = []
        for k in range(self.n + 1):
            window = self._ring[k]
            if len(window) == 0:
                continue
            lo, hi = window.slice_between(ts_lo, now)
            if hi > lo:
                ranges.append((window, lo, hi))
        live_ts: list[float] = []
        for window, lo, hi in reversed(ranges):
            live_ts.extend(window.timestamps[lo:hi].tolist())
        cut = self.policy.live_from(horizon, live_ts, now)
        slices: list[WindowSlice] = []
        for window, lo, hi in ranges:
            if cut != float("-inf"):
                lo = max(
                    lo,
                    int(np.searchsorted(
                        window.timestamps, cut, side="left"
                    )),
                )
            if hi > lo:
                slices.append(WindowSlice(window, lo, hi))
        return slices

    def logical_span_slices(
        self,
        j_lo: int,
        j_hi: int,
        now: float,
        reference: float | None = None,
    ) -> list[WindowSlice]:
        """Slices jointly holding logical basic windows ``j_lo..j_hi``
        (1-based, inclusive) — the tuples with age in
        ``[(j_lo-1)*b, j_hi*b)`` relative to ``reference``.

        Equivalent to concatenating :meth:`logical_window_slices` for each
        ``j`` in the run and coalescing touching slices (adjacent logical
        windows always abut inside a shared physical window), but pays at
        most two binary searches per *run* — one in each physical window
        a bound of the run falls inside; the windows between them are
        taken whole on a comparison of their end timestamps — instead of
        two per logical window: with the once-per-configuration run
        decomposition of
        :meth:`repro.core.harvesting.HarvestConfiguration.selected_runs`
        the searching a harvested probe does is linear in the number of
        runs, not in ``n``.
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
        evicted = 0
        for k in range(1, self.n + 1):
            window = self._ring[k]
            if len(window) == 0:
                continue
            newest = self._epoch_start - (k - 1) * self.basic_window_size
            if newest <= cutoff:
                evicted += len(window)
                window.clear()
        if evicted:
            self.version += 1
            self._frozen_version += 1
        return evicted

    def evict_basic_window(self, k: int) -> int:
        """Early-evict physical basic window ``k`` (ring index, ``1..n``;
        the filling window ``0`` is not evictable) and return the number
        of tuples dropped.

        The one way for an outside policy (memory-limited joins) to empty
        a single window: clearing a ring window directly would leave the
        :meth:`full_slices` cache holding a slice past its new length.
        """
        if not 1 <= k <= self.n:
            raise ValueError(f"ring index {k} out of [1, {self.n}]")
        window = self._ring[k]
        evicted = len(window)
        if evicted:
            window.clear()
            self.version += 1
            self._frozen_version += 1
        return evicted

    def basic_window_sizes(self) -> list[int]:
        """Stored tuples per physical basic window, ring index 0 (the
        filling one) first."""
        return [len(w) for w in self._ring]

    def count_unexpired(self, now: float) -> int:
        """Number of tuples with age under ``n*b``."""
        return sum(len(s) for s in self.full_slices(now))

    def iter_unexpired(self, now: float) -> Iterator[StreamTuple]:
        """All unexpired tuples, oldest physical window last."""
        for s in self.full_slices(now):
            yield from s.tuples

    def __len__(self) -> int:
        """Total stored tuples, including not-yet-expired stragglers."""
        return sum(len(w) for w in self._ring)
