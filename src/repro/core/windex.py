"""Adaptive per-basic-window partition indexes (PanJoin-style).

Flat basic windows make every probe scan all tuples in each selected
slice, so probe cost grows linearly with window size regardless of how
the join-attribute values are distributed.  PanJoin (*PanJoin: A
Partition-based Adaptive Stream Join*) observes that partitioning each
subwindow by the join attribute — hash partitions for equi-dominant
keys, range partitions for interval/band predicates — lets a probe
touch only the partitions its probe interval can possibly hit.

This module supplies that layer for :class:`~repro.core.basic_windows
.PartitionedWindow` without changing its storage:

* :class:`PartitionTable` — an immutable partition layout over one
  physical basic window's stretch of the store's value column: a
  stable ``argsort`` of per-row partition codes plus segment offsets
  and per-partition ``(min, max)`` summaries.  Rows stay where they
  are; the table is a permutation view in window-relative row numbers
  (the window's start moves when the store compacts), so slice
  semantics (and the reference path) are untouched.  Each table is
  kept in its window's derived slot (:meth:`~repro.core.basic_windows
  .PartitionedWindow.derived`, as :class:`~repro.core.indexing
  .SortedWindowIndex` keeps its sorted values), which the store
  empties when the window's row offsets move and drops when the
  window rotates out.
* :class:`WindowIndexState` — the per-stream mutable state: which
  index kind is active (``flat`` / ``hash`` / ``range``), a value
  histogram (:class:`~repro.core.histograms.EquiWidthHistogram`
  reused as the distribution sensor, fed per tick with the values
  inserted since the last one), the rule for when a window's
  table is rebuilt, and the adaptive kind-selection policy with
  hysteresis so the kind does not flap between adaptation ticks.

The index **prices a hop, it does not find its hits**: the columnar
kernel always finds a hop's hits by scanning the hop's slice view, and
an active index only decides how many rows the hop is charged —
:meth:`WindowIndexState.charge`, the rows of the partitions the probe
can reach (plus each window's delta tail and the windows too small to
index).  Those rows are a superset of the hits (:meth:`WindowIndexState
.candidate_rows` is lossless), so outputs and their order never depend
on the index; only the comparisons a probe is billed — the simulated
CPU's currency — do.  Gathering the pruned rows into a pool of their
own costs more wall time than scanning the whole view at every window
size the repo runs (docs/PERFORMANCE.md §4).  A switch mid-run is
output-identical to running without an index
(``tests/core/test_windex.py`` asserts this).
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from .basic_windows import PartitionedWindow, WindowSlice
from .histograms import EquiWidthHistogram

#: index kinds — FLAT is the inactive state (no tables built)
FLAT, HASH, RANGE = "flat", "hash", "range"
#: spec value asking the policy to pick the kind from the observed
#: distribution at adaptation ticks
ADAPTIVE = "adaptive"
INDEX_SPECS = (HASH, RANGE, ADAPTIVE)

#: gauge encoding of the active kind for the obs plane
KIND_CODES = {FLAT: 0, HASH: 1, RANGE: 2}

#: Fibonacci-hash multiplier (2^64 / phi); multiply-shift over the raw
#: float64 bit pattern gives a fast, well-mixing bucket code
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)
_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")

_EMPTY_ROWS = np.empty(0, dtype=np.intp)


def check_index_compat(
    spec: str | None,
    *,
    columnar_ok: bool,
    radius: float | None,
) -> str | None:
    """Validate an ``index=`` spec against the predicate's capabilities.

    This is the single compatibility contract, checked by the operator
    constructors (``MJoinOperator`` and every subclass): an operator
    that exists has a spec its predicate can serve.

    Args:
        spec: the requested index kind (``None`` disables indexing and
            is always valid).
        columnar_ok: whether the predicate satisfies the columnar
            kernel's contract (:func:`repro.joins.columnar
            .supports_columnar`) — partition pruning reuses its
            interval-envelope machinery, so non-columnar predicates
            cannot be indexed.
        radius: the predicate's ``interval_radius`` (``None`` when it
            has no interval context).  Hash partitioning is only
            lossless for exact equi probes (radius 0): a nonzero
            radius makes the probe an interval that can straddle
            buckets.

    Returns:
        the validated spec (``None`` passes through).

    Raises:
        ValueError: on an unknown spec or an incompatible combination.
    """
    if spec is None:
        return None
    if spec not in INDEX_SPECS:
        raise ValueError(
            f"unknown index spec {spec!r}; expected one of {INDEX_SPECS}"
        )
    if not columnar_ok:
        raise ValueError(
            f"index={spec!r} requires a columnar-capable predicate "
            "(scalar storage, interval context); "
            "pass index=None"
        )
    if spec == HASH and (radius is None or radius != 0.0):
        raise ValueError(
            "index='hash' requires an exact equi predicate (interval "
            f"radius 0, got {radius}); use index='range' or 'adaptive'"
        )
    return spec


def _code_dtype(n_parts: int) -> type:
    """The narrowest unsigned dtype that holds partition codes
    ``0 .. n_parts - 1``."""
    if n_parts <= 1 << 8:
        return np.uint8
    if n_parts <= 1 << 16:
        return np.uint16
    return np.intp


def _reusable(cached, epoch: int, k: int, size: int, min_rows: int) -> bool:
    """Whether a derived slot's ``(epoch, built_frozen, table)`` entry
    still serves physical window ``k`` of ``size`` rows (see
    :meth:`WindowIndexState.table_for`)."""
    # tolerate a delta tail of 1/16 of the window (plus a small absolute
    # slack): every tail row is an unpruned candidate on every probe, so
    # a lax bound silently erodes pruning, while a tight one rebuilds the
    # actively filling window so often that rebuild cost eats the
    # pruning win
    return (
        cached is not None
        and cached[0] == epoch
        and (cached[1] or k == 0)
        and size - cached[2].build_n <= max(min_rows >> 2, size >> 4)
    )


class PartitionTable:
    """Partition layout of one basic window's value column prefix.

    ``order[starts[p]:starts[p+1]]`` lists partition ``p``'s row
    positions — relative to the window's first row — in ascending row
    order (the ``argsort`` over codes is stable, and codes are computed
    in row order).  ``starts`` and ``order_list`` (``order`` as a list)
    are plain python ints for the hash charge, which reads two entries
    of one and bisects a bucket's few rows of the other: numpy scalars
    and calls cost more than that work.  ``pmins``/``pmaxs``
    hold per-partition extrema of the non-NaN values (``+inf``/``-inf``
    for empty partitions, NaN for NaN-only ones, which then never pass
    a summary test) for summary-based pruning.

    The table covers the window's first ``build_n`` rows.
    Basic windows are append-only between rotations, so a table stays
    valid for its prefix while the window merely grows — probes treat
    the appended tail ``[build_n, len)`` as always-candidate rows and
    the state only rebuilds once the tail exceeds a fixed fraction of
    the window (amortized ``O(log)`` rebuilds per window fill instead
    of one per insert).
    """

    __slots__ = ("kind", "n_parts", "order", "order_list", "starts",
                 "counts", "pmins", "pmaxs", "nonempty_parts", "build_n")

    def __init__(
        self,
        kind: str,
        n_parts: int,
        order: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
        nonempty_parts: int,
        pmins: np.ndarray,
        pmaxs: np.ndarray,
        build_n: int,
    ) -> None:
        self.kind = kind
        self.n_parts = n_parts
        self.order = order
        self.order_list = order.tolist()
        self.starts = starts.tolist()
        #: rows per partition (int64; ``diff(starts)``)
        self.counts = counts
        self.pmins = pmins
        self.pmaxs = pmaxs
        self.nonempty_parts = nonempty_parts
        self.build_n = build_n


class _FrozenPlan:
    """What frozen windows (ring index ``1..n``) covered whole are charged
    by an exact match probe, valid while the store's ``frozen_version``
    stands (the state drops its plan on an epoch switch).

    ``rows`` / ``hits`` / ``parts`` are prefix sums over the ring, read
    only for spans inside ``lo..hi`` (ring indexes whose tables have been
    asked for): with ``w = n + 2``, ``rows[p * w + k]`` is what windows
    ``< k`` are charged whole for bucket ``p`` (bucket plus delta tail,
    or every row of a window without a table), ``hits[p * w + k]`` how
    many of their tables have bucket ``p`` nonempty, ``parts[k]`` their
    nonempty partitions.  Flat lists: a span's charge is two reads of
    each, and the plan is a handful of objects whatever the partition
    count.
    """

    __slots__ = ("version", "lo", "hi", "rows", "hits", "parts")

    def __init__(self, version: int = -1) -> None:
        self.version = version
        self.lo, self.hi = 1, 0
        self.rows: list[int] = []
        self.hits: list[int] = []
        self.parts: list[int] = []


class WindowIndexState:
    """Per-stream partition-index state of one
    :class:`~repro.core.basic_windows.PartitionedWindow`.  The state
    owns:

    * the **sensor** — a warmup sample buffer that seeds an
      :class:`~repro.core.histograms.EquiWidthHistogram` over the
      observed value domain, fed per tick (the store queues each
      inserted value with :meth:`observe`; :meth:`tick` drains them) and
      decayed per tick;
    * the **policy** — at each :meth:`tick` (the operator's adaptation
      step) the desired kind is derived from the sensor and applied
      only after ``hysteresis`` consecutive agreeing ticks;
    * the **tables** — per-basic-window :class:`PartitionTable`\\ s,
      kept in the windows' derived slots and rebuilt lazily when the
      slot was emptied, the state's epoch (bumped on every
      kind/boundary switch) moved, or the window stopped filling;
    * the **plan** — the per-bucket prefix sums a hash probe prices
      whole frozen windows from (:class:`_FrozenPlan`), kept while the
      store's ``frozen_version`` and the epoch stand.  A state prices
      only the store that owns it.

    Args:
        spec: ``"hash"`` / ``"range"`` pin the kind; ``"adaptive"``
            lets the policy choose (validated by
            :func:`check_index_compat`).
        radius: the predicate's interval radius (drives the hash/range
            decision; hash requires 0).
    """

    #: partition count per basic window (a power of two: the hash code
    #: is a multiply-shift)
    n_partitions = 256
    #: histogram resolution of the sensor
    sensor_buckets = 64
    #: sensor weight below which the policy stays flat
    min_samples = 256
    #: consecutive agreeing ticks required to switch
    hysteresis = 2
    #: the adaptive policy picks range when the probe envelope width
    #: ``2 * radius`` is at most this fraction of the observed span
    span_ratio = 0.25
    #: warmup buffer size used to fix the sensor domain
    warmup = 512
    #: per-tick aging factor of the sensor
    sensor_decay = 0.9
    #: basic windows smaller than this are charged in full even under
    #: an active index — below it the per-table bookkeeping costs more
    #: than the pruning saves, and the still-filling newest window
    #: churns through sizes in this range on every insert
    min_index_rows = 256

    def __init__(self, spec: str = ADAPTIVE, radius: float = 0.0) -> None:
        if radius < 0:
            raise ValueError("radius must be non-negative")
        self.spec = spec
        self.radius = float(radius)
        self._hash_shift = 64 - self.n_partitions.bit_length() + 1
        #: the currently applied kind; hash needs no boundaries so a
        #: pinned hash spec activates immediately, pinned range waits
        #: for the sensor (boundaries), adaptive starts flat
        self.active = HASH if spec == HASH else FLAT
        #: only the adaptive policy and pinned range (which derives its
        #: partition boundaries from the sensor) ever read the sensor;
        #: the store feeds it nothing otherwise
        self.needs_sensor = spec in (ADAPTIVE, RANGE)
        #: values inserted since the last tick, not yet fed to the sensor
        #: (:meth:`observe` queues them; :meth:`tick` drains them)
        self.feed: list[float] = []
        #: bumped on every kind/boundary switch; a table built at another
        #: epoch is rebuilt
        self.epoch = 0
        self.sensor: EquiWidthHistogram | None = None
        self._warm = np.empty(self.warmup, dtype=np.float64)
        self._warm_n = 0
        self._boundaries: np.ndarray | None = None
        self._pending: str | None = None
        self._pending_ticks = 0
        # the frozen windows as a hash probe prices them (_bucket_rows)
        self._plan = _FrozenPlan()
        # telemetry (flushed into obs as deltas at adaptation ticks)
        self.rebuilds = 0
        self.switches = 0
        self.partitions_scanned = 0
        self.partitions_pruned = 0
        self.rows_scanned = 0
        self.rows_pruned = 0

    # ------------------------------------------------------------------
    # sensing
    # ------------------------------------------------------------------

    def observe(self, value: float) -> None:
        """Queue one inserted value for the sensor (the store calls this
        per insert); the next :meth:`tick` feeds it."""
        self.feed.append(value)

    def _drain(self) -> None:
        """Feed the sensor the values queued since the last tick, in
        insert order: into the warmup buffer until it holds
        :attr:`warmup` values (which fixes the sensor's domain), the
        rest in one :meth:`~repro.core.histograms.EquiWidthHistogram
        .add_many`.

        NaN and infinities are skipped: they say nothing about the
        distribution, and pricing is lossless by table construction,
        whatever the sensor saw.
        """
        vals = np.array(self.feed, dtype=np.float64)
        self.feed = []
        vals = vals[np.isfinite(vals)]
        if self.sensor is None:
            n = self._warm_n
            take = min(len(vals), len(self._warm) - n)
            self._warm[n : n + take] = vals[:take]
            self._warm_n = n + take
            if self._warm_n < len(self._warm):
                return
            self._init_sensor()
            vals = vals[take:]
        if len(vals):
            self.sensor.add_many(vals)

    def _init_sensor(self) -> None:
        vals = self._warm[: self._warm_n]
        lo = float(vals.min())
        hi = float(vals.max())
        span = hi - lo
        margin = 0.05 * span if span > 0 else max(1.0, abs(lo) * 0.05)
        self.sensor = EquiWidthHistogram(
            lo - margin, hi + margin, self.sensor_buckets
        )
        self.sensor.add_many(vals)

    # ------------------------------------------------------------------
    # policy
    # ------------------------------------------------------------------

    @property
    def is_active(self) -> bool:
        """True when probes should consult partition tables."""
        return self.active != FLAT

    @property
    def kind_code(self) -> int:
        """Gauge encoding of :attr:`active` (0 flat, 1 hash, 2 range)."""
        return KIND_CODES[self.active]

    def tick(self) -> str:
        """One adaptation step: feed the sensor the values inserted since
        the last step, age it, re-derive the kind.

        Pinned specs apply immediately once derivable (hash at
        construction, range as soon as boundaries exist); the adaptive
        policy switches only after :attr:`hysteresis` consecutive
        ticks agree on a kind different from the active one.  Returns
        the active kind after the step.
        """
        if self.feed:
            self._drain()
        if self.sensor is None:
            if self._warm_n >= min(self.min_samples, len(self._warm)):
                self._init_sensor()
        else:
            self.sensor.decay(self.sensor_decay)
        if self.spec == HASH:
            return self.active
        if self.spec == RANGE:
            if self.active != RANGE and self.sensor is not None:
                self._switch(RANGE)
            return self.active
        desired = self._decide()
        if desired == self.active:
            self._pending = None
            self._pending_ticks = 0
            return self.active
        if desired != self._pending:
            self._pending = desired
            self._pending_ticks = 1
        else:
            self._pending_ticks += 1
        if self._pending_ticks >= self.hysteresis:
            self._switch(desired)
        return self.active

    def _decide(self) -> str:
        """Desired kind under the adaptive policy (no hysteresis)."""
        if self.sensor is None or self.sensor.total < self.min_samples:
            return FLAT
        if self.radius == 0.0:
            return HASH
        span = self.sensor.high - self.sensor.low
        if span > 0 and 2.0 * self.radius <= self.span_ratio * span:
            return RANGE
        return FLAT

    def _switch(self, kind: str) -> None:
        if kind == RANGE:
            boundaries = self._quantile_boundaries()
            if boundaries is None:
                self._pending = None
                self._pending_ticks = 0
                return
            self._boundaries = boundaries
        self.active = kind
        self.epoch += 1
        self._plan = _FrozenPlan()
        self.switches += 1
        self._pending = None
        self._pending_ticks = 0

    def _quantile_boundaries(self) -> np.ndarray | None:
        """Equi-depth partition boundaries from the sensor's CDF.

        Boundary quality only affects probe cost, never correctness —
        every value lands in exactly one ``searchsorted`` bin whatever
        the cut points are.
        """
        if self.sensor is None:
            return None
        probs = self.sensor.probabilities()
        cum = np.concatenate(([0.0], np.cumsum(probs)))
        cum[-1] = 1.0
        edges = self.sensor.low + (
            np.arange(self.sensor.buckets + 1) * self.sensor.width
        )
        qs = np.arange(1, self.n_partitions) / self.n_partitions
        boundaries = np.unique(np.interp(qs, cum, edges))
        if len(boundaries) == 0:
            return None
        return boundaries

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------

    def table_for(
        self, store: PartitionedWindow, k: int
    ) -> PartitionTable | None:
        """The (lazily rebuilt) partition table of ``store``'s physical
        basic window ``k``.

        Returns ``None`` when the window is too small to be worth
        indexing (charge it in full).  The table lives in the window's
        derived slot as ``(epoch, built_frozen, table)``; the store
        empties the slot when anything but an append changes the window.
        It is reused at the same epoch while the appended tail stays
        within its tolerated fraction of the window, so a filling window
        rebuilds logarithmically often instead of once per insert.  A
        table built while the window was filling (``k == 0``) is rebuilt
        once when asked for at ``k >= 1``: no more appends are coming,
        so the new table has no tail for the window's remaining lifetime.
        """
        start, stop = store.window_rows(k)
        n = stop - start
        slot = store.derived(k)
        cached = slot.get("windex")
        if _reusable(cached, self.epoch, k, n, self.min_index_rows):
            return cached[2]
        if n < self.min_index_rows:
            return None
        table = self._build(store.values[start:stop])
        slot["windex"] = (self.epoch, k > 0, table)
        self.rebuilds += 1
        return table

    def _hash_codes(self, vals: np.ndarray, dtype=np.intp) -> np.ndarray:
        # +0.0 canonicalizes -0.0 so equal floats share a bit pattern
        bits = (vals + 0.0).view(np.uint64)
        return ((bits * _HASH_MULT) >> np.uint64(self._hash_shift)).astype(
            dtype
        )

    def hash_part(self, key: float) -> int:
        """Bucket of a single probe key (scalar :meth:`_hash_codes`).

        Equi probes resolve exactly one bucket per probing tuple, so
        the hot path calls this once per probe instead of building a
        one-element array; pure-Python bit mixing is reproduced
        exactly (uint64 wraparound via the explicit mask).
        """
        bits = _U64.unpack(_F64.pack(key + 0.0))[0]
        code = (bits * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        return code >> self._hash_shift

    def _build(self, vals: np.ndarray) -> PartitionTable:
        # codes in the narrowest unsigned type that holds them: numpy's
        # stable sort is a radix sort for integers of 16 bits or less,
        # and a stable sort's permutation does not depend on the dtype
        if self.active == HASH:
            kind = HASH
            n_parts = self.n_partitions
            codes = self._hash_codes(vals, _code_dtype(n_parts))
        else:
            kind = RANGE
            boundaries = self._boundaries
            n_parts = len(boundaries) + 1
            codes = np.searchsorted(
                boundaries, vals, side="right"
            ).astype(_code_dtype(n_parts))
        order = np.argsort(codes, kind="stable")
        counts = np.bincount(codes, minlength=n_parts)
        starts = np.zeros(n_parts + 1, dtype=np.intp)
        np.cumsum(counts, out=starts[1:])
        pmins = np.full(n_parts, np.inf)
        pmaxs = np.full(n_parts, -np.inf)
        sv = vals[order]
        nonempty = np.flatnonzero(counts)
        if len(nonempty):
            # fmin / fmax: a NaN row must not poison its partition's
            # summary (a NaN-only one stays NaN and prunes: NaN matches
            # nothing)
            pmins[nonempty] = np.fmin.reduceat(sv, starts[nonempty])
            pmaxs[nonempty] = np.fmax.reduceat(sv, starts[nonempty])
        return PartitionTable(kind, n_parts, order, starts, counts,
                              len(nonempty), pmins, pmaxs, len(vals))

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------

    def probe_parts(
        self, glo: float, ghi: float, keys: np.ndarray | None = None
    ) -> np.ndarray:
        """Candidate partition numbers for a probe envelope.

        Partition codes depend only on the state (hash function or
        range boundaries), never on an individual table, so one probe's
        partition set is shared by every slice it scans — callers
        compute it once per hop and pass it to :meth:`candidate_rows`.
        """
        if self.active == HASH:
            if keys is None or len(keys) == 0:
                return _EMPTY_ROWS
            return np.unique(self._hash_codes(
                np.asarray(keys, dtype=np.float64)
            ))
        boundaries = self._boundaries
        n_parts = len(boundaries) + 1
        p_lo = int(np.searchsorted(boundaries, glo, side="left"))
        p_hi = int(np.searchsorted(boundaries, ghi, side="right"))
        return np.arange(p_lo, min(p_hi, n_parts - 1) + 1)

    def candidate_rows(
        self,
        window_slice: WindowSlice,
        glo: float,
        ghi: float,
        keys: np.ndarray | None = None,
        parts: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Ascending store rows in the slice that can match a probe.

        ``[glo, ghi]`` is the union envelope of every live partial
        match's probe interval; for an active hash index ``keys`` must
        additionally carry the distinct probe keys (exact equi probes
        only — enforced by :func:`check_index_compat`).  ``parts`` is
        an optional precomputed :meth:`probe_parts` result (one per
        hop).  The result is a superset of the matching rows restricted
        to the slice's ``[lo, hi)`` range and stride — the rows
        :meth:`charge` bills.  Each physical basic window the slice
        touches answers from its own table; rows appended after the
        table build (the delta tail) and the rows of a window too small
        to index are always candidates.  Returns ``None`` when no window
        touched has a table — the whole slice is charged.
        """
        store = window_slice.store
        s_lo, s_hi = window_slice.lo, window_slice.hi
        found = []
        indexed = False
        for k, start, lo, hi in store.window_pieces(s_lo, s_hi):
            table = self.table_for(store, k)
            if table is None:
                found.append(np.arange(lo, hi, dtype=np.intp))
                continue
            indexed = True
            if parts is None:
                parts = self.probe_parts(glo, ghi, keys)
            keep = (table.pmins[parts] <= ghi) & (table.pmaxs[parts] >= glo)
            kept = parts[keep]
            self.partitions_scanned += len(kept)
            self.partitions_pruned += table.nonempty_parts - len(kept)
            built = start + table.build_n
            if len(kept):
                starts = table.starts
                if len(kept) == 1:
                    # one partition's segment is already in ascending row
                    # order: the build argsort is stable over row-ordered
                    # codes, so ties (same partition) keep their row order
                    p = int(kept[0])
                    rows = table.order[starts[p] : starts[p + 1]]
                else:
                    rows = np.sort(np.concatenate(
                        [table.order[starts[p] : starts[p + 1]] for p in kept]
                    ))
                if lo > start or hi < built:
                    rows = rows[
                        np.searchsorted(rows, lo - start, side="left") :
                        np.searchsorted(
                            rows, min(hi, built) - start, side="left"
                        )
                    ]
                found.append(rows + start)
            if max(lo, built) < hi:
                found.append(np.arange(max(lo, built), hi, dtype=np.intp))
        if not indexed:
            return None if found else _EMPTY_ROWS
        rows = np.concatenate(found) if found else _EMPTY_ROWS
        if window_slice.step != 1:
            rows = rows[(rows - s_lo) % window_slice.step == 0]
        return rows

    def charge(
        self,
        slices: Sequence[WindowSlice],
        total: int,
        glo: float,
        ghi: float,
        key: float,
        part: int | None = None,
    ) -> int:
        """Rows one hop is charged under the active index, out of the
        ``total`` rows its ``slices`` select; ``rows_scanned`` /
        ``rows_pruned`` move by the charge and the rest.

        ``[glo, ghi]`` is the union envelope of the live partials' probe
        intervals and ``key`` the probing tuple's value; ``part`` is its
        :meth:`hash_part` when the caller has it (every state shares
        :attr:`n_partitions`, so one probe's bucket holds for all its
        hops).  Charged are the rows :meth:`candidate_rows` keeps,
        except that a hash probe over a step-1 slice takes the key's
        bucket from each table with no summary test
        (:meth:`_bucket_rows`).  A charge of 0 means the hop has no hits.
        """
        charged = 0
        hashed = self.active == HASH
        if not hashed:
            parts = self.probe_parts(glo, ghi)
        elif key != key:  # a NaN key matches nothing
            self.rows_pruned += total
            return 0
        else:
            # radius 0 (check_index_compat): a partial only survives a
            # hop by extending with an exactly equal value, so every live
            # partial's values equal the probing tuple's — one probe key,
            # one bucket
            if part is None:
                part = self.hash_part(key)
            parts = None  # only a strided slice needs it as an array
            glo = ghi = key
        for s in slices:
            if hashed and s.step == 1:
                charged += self._bucket_rows(s, part)
            elif len(s):
                if parts is None:
                    parts = np.array([part], dtype=np.intp)
                rows = self.candidate_rows(s, glo, ghi, parts=parts)
                charged += len(s) if rows is None else len(rows)
        self.rows_scanned += charged
        self.rows_pruned += total - charged
        return charged

    def _bucket_rows(self, s: WindowSlice, part: int) -> int:
        """Rows of the step-1 slice ``s`` in hash bucket ``part``, plus
        each window's delta tail and the windows too small to index.

        One call prices the slice, and its Python work does not grow
        with the number of basic windows: the slice can only cut its
        oldest and its newest window (two bisects of the store's window
        bounds find them; a bucket's rows are ascending, so one bisect
        pair each cuts them), and the whole frozen windows between them
        are two reads of the store's :class:`_FrozenPlan`.  Each edge
        window's table is read off its derived slot while
        :func:`_reusable`; :meth:`table_for` only runs to build one.  No
        ``(min, max)``-summary test here: thousands of keys share each
        bucket, so a nonempty bucket's value span practically always
        covers the probe key.
        """
        lo, hi = s.lo, s.hi
        if hi <= lo:
            return 0
        store = s.store
        plan = self._plan
        if plan.version != store.frozen_version:
            plan = self._plan = _FrozenPlan(store.frozen_version)
        # ring index k is rows [bounds[-k - 2], bounds[-k - 1]); w = n + 2
        bounds = store._bounds
        w = len(bounds)
        k_old = w - 1 - bisect_right(bounds, lo)
        k_new = w - 1 - bisect_right(bounds, hi - 1)
        epoch = self.epoch
        min_rows = self.min_index_rows
        # partitions are counted as the indexed windows' nonempty ones
        # (``parts``) of which ``scanned`` hold the bucket; the rest are
        # pruned
        count = scanned = parts = 0
        for k in (k_old, k_new) if k_old != k_new else (k_old,):
            start = bounds[-k - 2]
            stop = bounds[-k - 1]
            first = lo if lo > start else start
            last = hi if hi < stop else stop
            size = stop - start
            cached = store._derived[-k - 1].get("windex")
            if _reusable(cached, epoch, k, size, min_rows):
                table = cached[2]
            elif size < min_rows:
                count += last - first
                continue
            else:
                table = self.table_for(store, k)
            parts += table.nonempty_parts
            built = start + table.build_n
            a = table.starts[part]
            b = table.starts[part + 1]
            if b > a:
                scanned += 1
                if first > start or last < built:
                    # the bucket's rows are ascending: cut them to the
                    # slice's part of the table's prefix
                    rows = table.order_list
                    a, b = (bisect_left(rows, first - start, a, b),
                            bisect_left(rows, min(last, built) - start, a, b))
                if b > a:
                    count += b - a
            if built < last:
                count += last - (first if first > built else built)
        if k_old - k_new > 1:
            a, b = k_new + 1, k_old - 1
            if not plan.lo <= a <= b <= plan.hi:
                self._sum_plan(plan, store, a, b)
            i, j = part * w + a, part * w + b + 1
            scanned += plan.hits[j] - plan.hits[i]
            parts += plan.parts[b + 1] - plan.parts[a]
            count += plan.rows[j] - plan.rows[i]
        self.partitions_scanned += scanned
        self.partitions_pruned += parts - scanned
        return count

    def _sum_plan(
        self, plan: _FrozenPlan, store: PartitionedWindow, a: int, b: int
    ) -> None:
        """Extend the plan's span to cover frozen windows ``a..b`` and
        rebuild its prefix sums.  Tables are asked for lazily, as the
        per-window walk used to ask: an empty window never is, so no
        table is built that the walk would not have built; asking again
        for a window already in the span hands back the same table."""
        if a <= plan.hi + 1 and plan.lo <= b + 1:
            a, b = min(a, plan.lo), max(b, plan.hi)
        plan.lo, plan.hi = a, b
        n_windows = store.n + 1
        counts = np.zeros((n_windows, self.n_partitions), dtype=np.int64)
        whole = np.zeros(n_windows, dtype=np.int64)
        parts = np.zeros(n_windows, dtype=np.int64)
        for k in range(a, b + 1):
            start, stop = store.window_rows(k)
            if stop == start:
                continue
            table = self.table_for(store, k)
            if table is None:
                whole[k] = stop - start
            else:
                counts[k] = table.counts
                whole[k] = stop - start - table.build_n
                parts[k] = table.nonempty_parts

        def prefix(per_window: np.ndarray) -> np.ndarray:
            return np.concatenate((
                np.zeros((1, *per_window.shape[1:]), dtype=np.int64),
                np.cumsum(per_window, axis=0),
            ))

        # bucket-major: bucket p's prefix sums are entries p * (n + 2) ...
        plan.rows = prefix(counts + whole[:, None]).T.ravel().tolist()
        plan.hits = prefix((counts > 0).astype(np.int64)).T.ravel().tolist()
        plan.parts = prefix(parts).tolist()


class WindexTelemetry:
    """Obs instruments for a join operator's per-stream index states.

    Registered unconditionally by the operators' ``_obs_setup`` so the
    ``windex_*`` metric families appear in every export (zero-valued
    at the flat default); values are flushed as deltas at adaptation
    ticks and at end-of-run, keeping the per-tuple hot path free of
    instrument calls.  ``record`` only *writes*
    instruments: an operator never reads telemetry back into its
    results (obs on and obs off give the same ids).
    """

    def __init__(self, obs, labels: dict, num_streams: int) -> None:
        self._kind = [
            obs.gauge("windex_kind", stream=i, **labels)
            for i in range(num_streams)
        ]
        self._parts = [
            {
                result: obs.counter(
                    "windex_partitions_total",
                    stream=i, result=result, **labels,
                )
                for result in ("scanned", "pruned")
            }
            for i in range(num_streams)
        ]
        self._rows = [
            {
                result: obs.counter(
                    "windex_rows_total",
                    stream=i, result=result, **labels,
                )
                for result in ("scanned", "pruned")
            }
            for i in range(num_streams)
        ]
        self._rebuilds = [
            obs.counter("windex_rebuilds_total", stream=i, **labels)
            for i in range(num_streams)
        ]
        self._switches = [
            obs.counter("windex_switch_total", stream=i, **labels)
            for i in range(num_streams)
        ]
        self._last = [(0, 0, 0, 0, 0, 0)] * num_streams

    def record(self, states: "list[WindowIndexState] | None") -> None:
        """Publish counter deltas and the kind gauges."""
        if states is None:
            return
        for i, state in enumerate(states):
            self._kind[i].set(float(state.kind_code))
            snap = (
                state.partitions_scanned, state.partitions_pruned,
                state.rows_scanned, state.rows_pruned,
                state.rebuilds, state.switches,
            )
            last = self._last[i]
            if snap == last:
                continue
            self._parts[i]["scanned"].inc(snap[0] - last[0])
            self._parts[i]["pruned"].inc(snap[1] - last[1])
            self._rows[i]["scanned"].inc(snap[2] - last[2])
            self._rows[i]["pruned"].inc(snap[3] - last[3])
            self._rebuilds[i].inc(snap[4] - last[4])
            self._switches[i].inc(snap[5] - last[5])
            self._last[i] = snap


def make_index_states(
    spec: str | None, num_streams: int, radius: float | None
) -> "list[WindowIndexState] | None":
    """Per-stream states for a validated spec (``None`` stays ``None``)."""
    if spec is None:
        return None
    return [
        WindowIndexState(spec, radius if radius is not None else 0.0)
        for _ in range(num_streams)
    ]
