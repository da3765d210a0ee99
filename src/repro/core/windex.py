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
  semantics (and the reference path) are untouched.
* :class:`WindowIndexState` — the per-stream mutable state: which
  index kind is active (``flat`` / ``hash`` / ``range``), a value
  histogram (:class:`~repro.core.histograms.EquiWidthHistogram`
  reused as the distribution sensor), lazily rebuilt partition tables
  keyed on :meth:`~repro.core.basic_windows.PartitionedWindow
  .window_key` (the :class:`~repro.core.indexing.SortedWindowIndex`
  pattern), and the
  adaptive kind-selection policy with hysteresis so the kind does not
  flap between adaptation ticks.

The probe contract is **pruning only**: :meth:`WindowIndexState
.candidate_rows` returns an *ascending superset* of the rows in a
slice that can match a probe envelope, so the columnar kernel
enumerates hits over the pruned pool in exactly the order the flat
scan would — identical outputs and output order, fewer comparisons.
Correctness never depends on the partition boundaries, only probe
cost does; a switch mid-run is therefore output-identical to a pinned
:data:`FLAT` index (``tests/core/test_windex.py`` asserts this).
"""

from __future__ import annotations

import struct

import numpy as np

from .basic_windows import PartitionedWindow, WindowSlice
from .histograms import EquiWidthHistogram

#: index kinds — FLAT is bit-for-bit today's behavior (no tables built)
FLAT, HASH, RANGE = "flat", "hash", "range"
#: spec value asking the policy to pick the kind from the observed
#: distribution at adaptation ticks
ADAPTIVE = "adaptive"
INDEX_SPECS = (FLAT, HASH, RANGE, ADAPTIVE)

#: gauge encoding of the active kind for the obs plane
KIND_CODES = {FLAT: 0, HASH: 1, RANGE: 2}

#: Fibonacci-hash multiplier (2^64 / phi); multiply-shift over the raw
#: float64 bit pattern gives a fast, well-mixing bucket code
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)

_EMPTY_ROWS = np.empty(0, dtype=np.intp)


def check_index_compat(
    spec: str | None,
    *,
    columnar_ok: bool,
    radius: float | None,
) -> str | None:
    """Validate an ``index=`` spec against the predicate's capabilities.

    This is the single compatibility contract shared by the operator
    constructors (``MJoinOperator``/``GrubJoinOperator``), ``Query.build``,
    and the static plan-analyzer rule P133.

    Args:
        spec: the requested index kind (``None`` disables indexing and
            is always valid; ``"flat"`` pins today's behavior and is
            also always valid).
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
    if spec == FLAT:
        return spec
    if not columnar_ok:
        raise ValueError(
            f"index={spec!r} requires a columnar-capable predicate "
            "(scalar storage, interval context, not stream-aware); "
            "pass index=None or index='flat'"
        )
    if spec == HASH and (radius is None or radius != 0.0):
        raise ValueError(
            "index='hash' requires an exact equi predicate (interval "
            f"radius 0, got {radius}); use index='range' or 'adaptive'"
        )
    return spec


class PartitionTable:
    """Partition layout of one basic window's value column prefix.

    ``order[starts[p]:starts[p+1]]`` lists partition ``p``'s row
    positions — relative to the window's first row — in ascending row
    order (the ``argsort`` over codes is stable, and codes are computed
    in row order).  ``pmins``/``pmaxs``
    hold per-partition value extrema (``+inf``/``-inf`` for empty
    partitions) for summary-based pruning.

    The table covers the window's first ``build_n`` rows.
    Basic windows are append-only between rotations, so a table stays
    valid for its prefix while the window merely grows — probes treat
    the appended tail ``[build_n, len)`` as always-candidate rows and
    the state only rebuilds once the tail exceeds a fixed fraction of
    the window (amortized ``O(log)`` rebuilds per window fill instead
    of one per insert).
    """

    __slots__ = ("kind", "n_parts", "order", "starts", "pmins", "pmaxs",
                 "ovals", "nonempty_parts", "build_n")

    def __init__(
        self,
        kind: str,
        n_parts: int,
        order: np.ndarray,
        starts: np.ndarray,
        pmins: np.ndarray,
        pmaxs: np.ndarray,
        ovals: np.ndarray,
        build_n: int,
    ) -> None:
        self.kind = kind
        self.n_parts = n_parts
        self.order = order
        self.starts = starts
        self.pmins = pmins
        self.pmaxs = pmaxs
        #: the value column permuted into partition order — one
        #: partition's values are the contiguous view
        #: ``ovals[starts[p]:starts[p+1]]``, so single-partition probes
        #: need no gather at all
        self.ovals = ovals
        self.nonempty_parts = int(np.count_nonzero(np.diff(starts)))
        self.build_n = build_n


class WindowIndexState:
    """Per-stream partition-index state of one
    :class:`~repro.core.basic_windows.PartitionedWindow`.  The state
    owns:

    * the **sensor** — a warmup sample buffer that seeds an
      :class:`~repro.core.histograms.EquiWidthHistogram` over the
      observed value domain, updated per insert and decayed per tick;
    * the **policy** — at each :meth:`tick` (the operator's adaptation
      step) the desired kind is derived from the sensor and applied
      only after ``hysteresis`` consecutive agreeing ticks;
    * the **tables** — per-basic-window :class:`PartitionTable`\\ s
      rebuilt lazily when the window's rows moved or the state's epoch
      (bumped on every kind/boundary switch) did.

    Args:
        spec: ``"flat"`` / ``"hash"`` / ``"range"`` pin the kind;
            ``"adaptive"`` lets the policy choose.
        radius: the predicate's interval radius (drives the hash/range
            decision; hash requires 0).
        n_partitions: partition count per basic window (hash bucket
            count must be a power of two for the multiply-shift code).
        sensor_buckets: histogram resolution of the sensor.
        min_samples: sensor weight below which the policy stays flat.
        hysteresis: consecutive agreeing ticks required to switch.
        span_ratio: adaptive policy picks range when the probe
            envelope width ``2 * radius`` is at most this fraction of
            the observed value span.
        warmup: warmup buffer size used to fix the sensor domain.
        sensor_decay: per-tick aging factor of the sensor.
        min_index_rows: basic windows smaller than this are probed
            flat even under an active index — below it the per-table
            bookkeeping costs more than the pruning saves, and the
            still-filling newest window churns through sizes in this
            range on every insert.
    """

    def __init__(
        self,
        spec: str = ADAPTIVE,
        radius: float = 0.0,
        *,
        n_partitions: int = 256,
        sensor_buckets: int = 64,
        min_samples: int = 256,
        hysteresis: int = 2,
        span_ratio: float = 0.25,
        warmup: int = 512,
        sensor_decay: float = 0.9,
        min_index_rows: int = 256,
    ) -> None:
        if spec not in INDEX_SPECS:
            raise ValueError(
                f"unknown index spec {spec!r}; "
                f"expected one of {INDEX_SPECS}"
            )
        if n_partitions < 2 or n_partitions & (n_partitions - 1):
            raise ValueError("n_partitions must be a power of two >= 2")
        if radius < 0:
            raise ValueError("radius must be non-negative")
        if spec == HASH and radius != 0.0:
            raise ValueError(
                "index='hash' requires an exact equi predicate "
                "(interval radius 0); see check_index_compat"
            )
        if hysteresis < 1:
            raise ValueError("hysteresis must be at least 1")
        if warmup < 2:
            raise ValueError("warmup must be at least 2")
        self.spec = spec
        self.radius = float(radius)
        self.n_partitions = int(n_partitions)
        self._hash_shift = np.uint64(64 - int(n_partitions).bit_length() + 1)
        self.sensor_buckets = int(sensor_buckets)
        self.min_samples = int(min_samples)
        self.hysteresis = int(hysteresis)
        self.span_ratio = float(span_ratio)
        self.sensor_decay = float(sensor_decay)
        #: the currently applied kind; hash needs no boundaries so a
        #: pinned hash spec activates immediately, pinned range waits
        #: for the sensor (boundaries), adaptive starts flat
        self.active = HASH if spec == HASH else FLAT
        #: only the adaptive policy and pinned range (which derives its
        #: partition boundaries from the sensor) ever read the sensor;
        #: the ring skips the per-insert observe call otherwise
        self.needs_sensor = spec in (ADAPTIVE, RANGE)
        #: bumped on every kind/boundary switch; part of the table key
        self.epoch = 0
        self.sensor: EquiWidthHistogram | None = None
        self._warm = np.empty(int(warmup), dtype=np.float64)
        self._warm_n = 0
        self._boundaries: np.ndarray | None = None
        self._pending: str | None = None
        self._pending_ticks = 0
        self.min_index_rows = int(min_index_rows)
        # table cache: window identity -> (epoch, generation, table);
        # mark_frozen drops the expired window's, so it stays at n + 1
        self._tables: dict[int, tuple[int, int, PartitionTable]] = {}
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
        """Feed one inserted value to the distribution sensor."""
        if self.sensor is not None:
            self.sensor.add(value)
            return
        self._warm[self._warm_n] = value
        self._warm_n += 1
        if self._warm_n == len(self._warm):
            self._init_sensor()

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
        """One adaptation step: age the sensor, re-derive the kind.

        Pinned specs apply immediately once derivable (hash at
        construction, range as soon as boundaries exist); the adaptive
        policy switches only after :attr:`hysteresis` consecutive
        ticks agree on a kind different from the active one.  Returns
        the active kind after the step.
        """
        if self.sensor is None:
            if self._warm_n >= min(self.min_samples, len(self._warm)):
                self._init_sensor()
        else:
            self.sensor.decay(self.sensor_decay)
        if self.spec == FLAT or self.spec == HASH:
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
        indexing (probe it flat).  A cached table is reused while the
        window has only *appended* since the build — its
        :meth:`~repro.core.basic_windows.PartitionedWindow.window_key`
        is unchanged; a late insert's shift or an eviction moves it —
        and the appended tail stays within its tolerated fraction of
        the window.  Either failing triggers a rebuild, so a filling
        window rebuilds logarithmically often instead of once per
        insert.
        """
        start, stop = store.window_rows(k)
        n = stop - start
        key, generation = store.window_key(k)
        cached = self._tables.get(key)
        if (
            cached is not None
            and cached[0] == self.epoch
            and cached[1] == generation
        ):
            table = cached[2]
            # tolerate a delta tail of 1/16 of the window (plus a small
            # absolute slack): every tail row is an unpruned candidate
            # on every probe, so a lax bound silently erodes pruning,
            # while a tight one rebuilds the actively filling window so
            # often that rebuild cost eats the pruning win
            if n - table.build_n <= max(self.min_index_rows >> 2, n >> 4):
                return table
        if n < self.min_index_rows:
            return None
        table = self._build(store.values[start:stop])
        self._tables[key] = (self.epoch, generation, table)
        self.rebuilds += 1
        return table

    def _hash_codes(self, vals: np.ndarray) -> np.ndarray:
        # +0.0 canonicalizes -0.0 so equal floats share a bit pattern
        bits = (vals + 0.0).view(np.uint64)
        return ((bits * _HASH_MULT) >> self._hash_shift).astype(np.intp)

    def hash_part(self, key: float) -> int:
        """Bucket of a single probe key (scalar :meth:`_hash_codes`).

        Equi probes resolve exactly one bucket per probing tuple, so
        the hot path calls this once per probe instead of building a
        one-element array; pure-Python bit mixing is reproduced
        exactly (uint64 wraparound via the explicit mask).
        """
        bits = struct.unpack("<Q", struct.pack("<d", key + 0.0))[0]
        code = (bits * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        return int(code >> int(self._hash_shift))

    def _build(self, vals: np.ndarray) -> PartitionTable:
        if self.active == HASH:
            kind = HASH
            n_parts = self.n_partitions
            codes = self._hash_codes(vals)
        else:
            kind = RANGE
            boundaries = self._boundaries
            n_parts = len(boundaries) + 1
            codes = np.searchsorted(
                boundaries, vals, side="right"
            ).astype(np.intp)
        order = np.argsort(codes, kind="stable").astype(np.intp, copy=False)
        starts = np.searchsorted(
            codes[order], np.arange(n_parts + 1), side="left"
        ).astype(np.intp, copy=False)
        pmins = np.full(n_parts, np.inf)
        pmaxs = np.full(n_parts, -np.inf)
        sv = vals[order]
        nonempty = np.flatnonzero(np.diff(starts) > 0)
        if len(nonempty):
            pmins[nonempty] = np.minimum.reduceat(sv, starts[nonempty])
            pmaxs[nonempty] = np.maximum.reduceat(sv, starts[nonempty])
        return PartitionTable(kind, n_parts, order, starts, pmins, pmaxs,
                              sv, len(vals))

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
        to the slice's ``[lo, hi)`` range and stride, so downstream
        exact comparison over it reproduces the flat scan's hits in the
        flat scan's order.  Each physical basic window the slice touches
        answers from its own table; rows appended after the table build
        (the delta tail) and the rows of a window too small to index
        are always candidates.  Returns ``None`` when no window touched
        has a table — the caller scans the slice flat.
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

    def mark_frozen(self, store: PartitionedWindow) -> None:
        """``store`` just rotated: drop the cached table of the window
        that stopped growing, and of the one that expired.

        The window that was filling until now carries a delta tail of
        unpruned candidate rows in its table, and since no more appends
        are coming, one more rebuild (on the next probe) yields a
        tail-free table that the append-only reuse rule then keeps for
        the window's whole remaining lifetime.
        """
        frozen = store.window_key(1)[0]
        self._tables.pop(frozen, None)
        self._tables.pop(frozen - store.n, None)

    def invalidate(self) -> None:
        """Drop all cached tables (e.g. between runs)."""
        self._tables.clear()


class WindexTelemetry:
    """Obs instruments for a join operator's per-stream index states.

    Registered unconditionally by the operators' ``_obs_setup`` so the
    ``windex_*`` metric families appear in every export (zero-valued
    at the flat default); values are flushed as deltas at adaptation
    ticks and at end-of-run, keeping the per-tuple hot path free of
    instrument calls.  The publishing entry point is named ``record``
    (not ``flush``) deliberately: it only *writes* instruments, and the
    effect certifier's P122 allowlist admits it as write-only telemetry.
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
    spec: str | None, num_streams: int, radius: float | None, **kwargs
) -> "list[WindowIndexState] | None":
    """Per-stream states for a validated spec (``None`` stays ``None``)."""
    if spec is None:
        return None
    return [
        WindowIndexState(spec, radius if radius is not None else 0.0,
                         **kwargs)
        for _ in range(num_streams)
    ]
