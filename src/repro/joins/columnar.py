"""Columnar probe kernel: the wall-clock fast path for interval predicates.

:func:`repro.joins.pipeline.run_pipeline` walks the join order one partial
match at a time, materializing a ``list[StreamTuple]`` per partial and one
``probe_block`` call per (partial, slice) pair.  For the predicates whose
probe context is a value *interval* — the epsilon-join and equi-join, which
declare :attr:`~repro.joins.predicates.JoinPredicate.interval_context` —
the partial match is fully summarized by a running ``(min, max)`` over its
constituent values, so the whole frontier of partial matches can be kept as
a handful of numpy vectors:

* ``vmin/vmax`` — per-partial running value extrema (the probe context is
  ``[vmax - r, vmin + r]`` with ``r`` the predicate's interval radius);
* ``parents/rows`` back-pointer chains — which prior partial and which
  pooled window row each partial extends.

Each hop pools the selected slices' value columns into one array and tests
the entire ``(partials x candidates)`` grid with two broadcast comparisons;
``np.nonzero`` enumerates hits in (partial-major, candidate-ascending)
order, which is exactly the order the nested loops of the slow path visit
them in.  After the final hop the back-pointer chains of the surviving
partials are resolved — with array gathers — into a :class:`ResultBlock`:
the results' ``seq`` identities as one int64 matrix, and the
``JoinResult`` objects themselves only if a consumer iterates.

The kernel is **bit-identical in virtual time** to ``run_pipeline``: same
outputs in the same order, same ``comparisons``, same per-hop
``HopStats`` — the running extrema reproduce ``probe_context`` exactly
(``max(values) - r`` is the same IEEE subtraction either way) and the
candidate pool preserves slice order and stride.  The differential tests in
``tests/perf/test_kernel.py`` and the testkit matrix assert this equality.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate, repeat
from typing import Callable

import numpy as np

from repro.core.basic_windows import SCALAR, WindowSlice
from repro.core.windex import HASH
from repro.streams.tuples import JoinResult, StreamTuple

from .pipeline import HopStats, PipelineResult, run_pipeline
from .predicates import JoinPredicate

#: broadcast mask budget (elements) — hops with more partials than fit are
#: processed in partial-major chunks, which preserves hit order.
_CHUNK_ELEMS = 1 << 22


def supports_columnar(predicate: JoinPredicate) -> bool:
    """True when ``predicate`` satisfies the columnar kernel's contract:
    scalar storage, interval-shaped probe contexts, no stream-aware
    context construction."""
    return (
        bool(getattr(predicate, "interval_context", False))
        and predicate.storage_mode == SCALAR
        and not getattr(predicate, "stream_aware", False)
    )


def select_kernel(
    predicate: JoinPredicate,
) -> Callable[..., PipelineResult]:
    """The probe kernel for ``predicate``: the columnar kernel exactly
    when :func:`supports_columnar` holds, else the reference nested-loop
    :func:`~repro.joins.pipeline.run_pipeline` (band/theta/jaccard/
    vector predicates, whose probe context is not an interval).

    Kernel choice is a fact about the predicate, not an option: both
    kernels share one signature and are bit-identical in virtual time
    wherever both apply.
    """
    if supports_columnar(predicate):
        return run_pipeline_columnar
    return run_pipeline


def run_pipeline_columnar(
    tup: StreamTuple,
    order: Sequence[int],
    slices_for_hop: Callable[[int, int], Sequence[WindowSlice]],
    predicate: JoinPredicate,
) -> PipelineResult:
    """Columnar drop-in for :func:`repro.joins.pipeline.run_pipeline`.

    Requires :func:`supports_columnar` — callers normally obtain this
    function through :func:`select_kernel`, which checks.
    """
    radius = float(predicate.interval_radius)
    result = PipelineResult(hop_stats=[HopStats() for _ in order])
    v0 = float(tup.value)
    vmin = np.array([v0], dtype=np.float64)
    vmax = np.array([v0], dtype=np.float64)
    # per-hop slice pools and back-pointer chains for final materialization
    hop_pools: list[tuple[Sequence[WindowSlice], Sequence[int], bool]] = []
    parents_chain: list[np.ndarray] = []
    rows_chain: list[np.ndarray] = []
    completed = True
    for hop, window_stream in enumerate(order):
        slices = slices_for_hop(hop, window_stream)
        stats = result.hop_stats[hop]
        lens = [len(s) for s in slices]
        total = sum(lens)
        num_partials = len(vmin)
        if total == 0:
            completed = False
            break
        # at radius 0 the probe interval is [vmax, vmin] itself; alias
        # instead of allocating (IEEE: the only value changed by -/+ 0.0
        # is the sign of a zero, which compares equal either way)
        if radius == 0.0:
            lo, hi = vmax, vmin
        else:
            lo = vmax - radius
            hi = vmin + radius
        state = slices[0].window.windex
        sel: np.ndarray | None = None
        if state is not None and state.is_active:
            pool, sel = _indexed_pool(state, slices, lens, lo, hi, v0)
            eff_total = len(pool)
            state.rows_scanned += eff_total
            state.rows_pruned += total - eff_total
            if eff_total == 0:
                completed = False
                break
        else:
            # SCALAR storage (supports_columnar): every slice's values
            # are already a float64 view of its window's value column
            if len(slices) == 1:
                pool = slices[0].values
            else:
                pool = np.concatenate([s.values for s in slices])
            eff_total = total
        stats.scanned = num_partials * eff_total
        result.comparisons += stats.scanned
        max_rows = max(1, _CHUNK_ELEMS // eff_total)
        if num_partials <= max_rows:
            mask = (pool >= lo[:, None]) & (pool <= hi[:, None])
            prow, pcol = np.nonzero(mask)
        else:
            row_parts = []
            col_parts = []
            for start in range(0, num_partials, max_rows):
                stop = min(start + max_rows, num_partials)
                mask = (pool >= lo[start:stop, None]) & (
                    pool <= hi[start:stop, None]
                )
                rows, cols = np.nonzero(mask)
                row_parts.append(rows + start)
                col_parts.append(cols)
            prow = np.concatenate(row_parts)
            pcol = np.concatenate(col_parts)
        stats.matched = int(len(prow))
        if stats.matched == 0:
            completed = False
            break
        candidates = pool[pcol]
        vmin = np.minimum(vmin[prow], candidates)
        vmax = np.maximum(vmax[prow], candidates)
        # slice offsets are only needed to resolve hits at the final
        # materialization, which runs once per completed probe — far
        # less often than this per-hop path
        hop_pools.append((slices, lens, sel is not None))
        parents_chain.append(prow)
        # with an indexed pool, map pruned-pool hits back to their
        # positions in the full (unpruned) pool so materialization is
        # oblivious to pruning
        rows_chain.append(pcol if sel is None else sel[pcol])
    if completed:
        result.outputs = _materialize(
            tup, order, hop_pools, parents_chain, rows_chain
        )
    return result


_EMPTY_F64 = np.empty(0, dtype=np.float64)
_EMPTY_IDX = np.empty(0, dtype=np.intp)


def _indexed_pool(
    state,
    slices: Sequence[WindowSlice],
    lens: Sequence[int],
    lo: np.ndarray,
    hi: np.ndarray,
    v0: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Partition-pruned candidate pool for one hop.

    Returns ``(pool, sel)`` where ``pool`` holds the candidate values
    and ``sel`` their positions in the full concatenated pool the flat
    path would build.  Candidates come back in ascending full-pool
    position (ascending rows within each slice, slices in order), so
    ``np.nonzero`` over the pruned mask enumerates hits in exactly the
    flat scan's order.  Pruning is lossless: the per-slice candidates
    are a superset of every row whose value falls in the union probe
    envelope ``[min(lo), max(hi)]`` (for hash indexes, of every row
    whose value equals the probe key — exact equi probes only,
    enforced at construction via ``check_index_compat``).
    """
    if state.active == HASH:
        # radius == 0 here, so lo == vmax and hi == vmin: every partial
        # contains the probing tuple, and a partial only survives a hop
        # by extending with an exactly-equal value — so every live
        # partial's values all equal v0, the only possible probe key is
        # v0 itself, and its bucket can be resolved once.  The sole
        # degenerate case is a NaN probe value (no interval is ever
        # nonempty), caught by the self-inequality test.
        if v0 != v0:
            return _EMPTY_F64, _EMPTY_IDX
        return _hash_pool(state, slices, lens, v0)
    glo = float(lo.min())
    ghi = float(hi.max())
    parts = state.probe_parts(glo, ghi)
    pool_parts = []
    sel_parts = []
    pos = 0
    for s, ln in zip(slices, lens):
        if ln:
            rows = state.candidate_rows(s, glo, ghi, parts=parts)
            if rows is None:
                # window too small to index: the whole slice competes
                pool_parts.append(s.values)
                sel_parts.append(np.arange(pos, pos + ln, dtype=np.intp))
            elif len(rows):
                pool_parts.append(s.window.values[rows])
                if s.step == 1:
                    sel_parts.append(pos + rows - s.lo)
                else:
                    sel_parts.append(pos + (rows - s.lo) // s.step)
        pos += ln
    if not pool_parts:
        return _EMPTY_F64, _EMPTY_IDX
    if len(pool_parts) == 1:
        return pool_parts[0], sel_parts[0]
    return np.concatenate(pool_parts), np.concatenate(sel_parts)


def _hash_pool(
    state,
    slices: Sequence[WindowSlice],
    lens: Sequence[int],
    key: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-bucket candidate pool for an exact equi probe.

    The hot path of the hash index: the key's partition is resolved
    once, and each indexed slice contributes its bucket segment as two
    array *views* (``ovals``/``order`` are laid out in partition
    order), so per-slice work is a table lookup plus pointer
    arithmetic — no gathers, no sorts.
    """
    part = state.hash_part(key)
    parts = None  # lazily materialized for the strided general path
    pool_parts = []
    sel_parts = []
    pos = 0
    scanned = pruned = 0
    table_for = state.table_for
    for s, ln in zip(slices, lens):
        if ln and s.step == 1:
            t = table_for(s.window)
            if t is None:
                # window too small to index: the whole slice competes
                pool_parts.append(s.values)
                sel_parts.append(np.arange(pos, pos + ln, dtype=np.intp))
                pos += ln
                continue
            starts = t.starts
            a = starts[part]
            b = starts[part + 1]
            bn = t.build_n
            s_lo, s_hi = s.lo, s.hi
            if b > a:
                # no (min, max)-summary test here: thousands of keys
                # share each bucket, so a nonempty bucket's value span
                # practically always covers the probe key and the test
                # would only add two scalar reads per slice
                scanned += 1
                pruned += t.nonempty_parts - 1
                rows = t.order[a:b]
                vals = t.ovals[a:b]
                if s_lo > 0 or s_hi < bn:
                    lo_pos = int(np.searchsorted(rows, s_lo, "left"))
                    hi_pos = int(np.searchsorted(
                        rows, min(s_hi, bn), "left"
                    ))
                    rows = rows[lo_pos:hi_pos]
                    vals = vals[lo_pos:hi_pos]
                if len(rows):
                    pool_parts.append(vals)
                    sel_parts.append(
                        rows if pos == s_lo else (pos - s_lo) + rows
                    )
            else:
                pruned += t.nonempty_parts
            tail_lo = max(s_lo, bn)
            if tail_lo < s_hi:
                # rows appended after the table build are always
                # candidates; they are contiguous, so views again
                pool_parts.append(s.window.values[tail_lo:s_hi])
                sel_parts.append(np.arange(
                    pos + tail_lo - s_lo, pos + s_hi - s_lo,
                    dtype=np.intp,
                ))
        elif ln:
            # strided (shredded) slice: general path
            if parts is None:
                parts = np.array([part], dtype=np.intp)
            rows = state.candidate_rows(
                s, key, key, parts=parts
            )
            if rows is None:
                pool_parts.append(s.values)
                sel_parts.append(np.arange(pos, pos + ln, dtype=np.intp))
            elif len(rows):
                pool_parts.append(s.window.values[rows])
                sel_parts.append(pos + (rows - s.lo) // s.step)
        pos += ln
    state.partitions_scanned += scanned
    state.partitions_pruned += pruned
    if not pool_parts:
        return _EMPTY_F64, _EMPTY_IDX
    if len(pool_parts) == 1:
        sel = sel_parts[0]
        return pool_parts[0], (
            sel if sel.dtype == np.intp else sel.astype(np.intp)
        )
    return np.concatenate(pool_parts), np.concatenate(sel_parts)


def _locate(
    slices: Sequence[WindowSlice], lens: Sequence[int], cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve positions ``cols`` in a hop's full candidate pool to
    ``(index into slices, row in that slice's basic window)``."""
    if len(slices) == 1:
        s = slices[0]
        return np.zeros(len(cols), dtype=np.intp), s.lo + cols * s.step
    offsets = np.fromiter(
        accumulate(lens, initial=0), dtype=np.intp, count=len(lens) + 1
    )
    ids = offsets.searchsorted(cols, "right") - 1
    los = np.array([s.lo for s in slices], dtype=np.intp)
    steps = np.array([s.step for s in slices], dtype=np.intp)
    return ids, los[ids] + (cols - offsets[ids]) * steps[ids]


class ResultBlock(Sequence):
    """One completed probe's results, kept columnar.

    To every consumer it *is* the ``list[JoinResult]`` the reference
    pipeline returns — sized, truthy when non-empty, iterable, indexable,
    equal to a list of the same results — but the
    :class:`~repro.streams.tuples.JoinResult` objects are only built the
    first time somebody looks at one (and then kept, so a timestamp
    stamped on a result is seen by every later reader).  What is built
    eagerly is :attr:`seqs`: an ``(n, m)`` int64 matrix whose column
    ``s`` holds the sequence number of each result's constituent from
    stream ``s`` — the results' identities, which is all the process
    runtime ships.

    Until then the constituents are held, per hop, as positions in the
    hop's candidate pool plus the probed slices' tuple lists.
    :attr:`BasicWindow.tuples <repro.core.basic_windows.BasicWindow.tuples>`
    is append-only, so those stay valid however the windows change
    afterwards.
    """

    __slots__ = ("seqs", "_tup", "_perm", "_levels", "_results")

    def __init__(
        self,
        seqs: np.ndarray,
        tup: StreamTuple,
        perm: Sequence[int],
        levels: list[tuple],
    ) -> None:
        self.seqs = seqs
        self._tup = tup
        #: constituent positions (0 = the probing tuple, ``h + 1`` = hop
        #: ``h``) in ascending stream order
        self._perm = perm
        #: per hop ``(slices, lens, lists, cols)``: :func:`_locate`'s
        #: arguments and each slice's tuple list as of the probe
        self._levels = levels
        self._results: list[JoinResult] | None = None

    @property
    def materialized(self) -> bool:
        """Whether the ``JoinResult`` objects have been built yet."""
        return self._results is not None

    def _rows(self) -> list[JoinResult]:
        results = self._results
        if results is None:
            columns: list = [repeat(self._tup)]
            for slices, lens, lists, cols in self._levels:
                ids, rows = _locate(slices, lens, cols)
                columns.append([
                    lists[i][r] for i, r in zip(ids.tolist(), rows.tolist())
                ])
            # every block has a hop, so zip() ends with the level lists
            results = self._results = [
                JoinResult(constituents)
                for constituents in zip(*(columns[k] for k in self._perm))
            ]
            self._levels = None  # release the expired windows' lists
        return results

    def __len__(self) -> int:
        return len(self.seqs)

    def __iter__(self):
        return iter(self._rows())

    def __getitem__(self, index):
        return self._rows()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, ResultBlock)):
            return self._rows() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"ResultBlock({self._rows()!r})"


def _materialize(
    tup: StreamTuple,
    order: Sequence[int],
    hop_pools: list[tuple[Sequence[WindowSlice], Sequence[int], bool]],
    parents_chain: list[np.ndarray],
    rows_chain: list[np.ndarray],
) -> ResultBlock:
    """Resolve surviving back-pointer chains into a :class:`ResultBlock`.

    Output order is ascending final-partial index, which equals the slow
    path's enumeration order; constituents are sorted by stream via a
    permutation precomputed from the (distinct) stream ids.  The chain
    walk is array gathers only: each hop's hits are positions in its
    candidate pool, and the matching ``seq`` values fill that stream's
    column of the identity matrix.
    """
    hops = len(rows_chain)
    count = len(rows_chain[-1])
    streams = [tup.stream, *order]
    perm = sorted(range(len(streams)), key=streams.__getitem__)
    seqs = np.empty((count, len(streams)), dtype=np.int64)
    seqs[:, tup.stream] = tup.seq
    levels: list = [None] * hops
    idxs: np.ndarray | None = None  # None: the identity over the last hop
    for h in range(hops - 1, -1, -1):
        slices, lens, pruned = hop_pools[h]
        cols = rows_chain[h] if idxs is None else rows_chain[h][idxs]
        levels[h] = (slices, lens, [s.window.tuples for s in slices], cols)
        if not pruned:
            # the hop already paid O(pool) to line up its value columns;
            # lining up the seq columns the same way is one more memcpy
            # and makes every hit a single gather
            if len(slices) == 1:
                pool = slices[0].seqs
            else:
                pool = np.concatenate([s.seqs for s in slices])
            seqs[:, order[h]] = pool[cols]
        else:
            # an index-pruned hop never touched most of the window and
            # must not start now: gather from the hit slices only
            ids, rows = _locate(slices, lens, cols)
            column = seqs[:, order[h]]
            for i in np.flatnonzero(
                np.bincount(ids, minlength=len(slices))
            ).tolist():
                hit = ids == i
                column[hit] = slices[i].window.seqs[rows[hit]]
        idxs = parents_chain[h] if idxs is None else parents_chain[h][idxs]
    return ResultBlock(seqs, tup, perm, levels)
