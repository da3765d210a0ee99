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

Each hop's candidate pool is the selected slice's view of its stream's
value column — a copy only when a hop selects several runs or strided
pieces — tested against the entire ``(partials x candidates)`` grid with
two broadcast comparisons (two scalar ones while the probing tuple is the
only partial); ``np.nonzero`` enumerates hits in (partial-major,
candidate-ascending) order, which is exactly the order the nested loops
of the slow path visit them in.  After the final hop the back-pointer
chains of the surviving partials are resolved — with array gathers —
into a :class:`ResultBlock`:
the results' ``seq`` identities as one int64 matrix, and the
``JoinResult`` objects themselves only if a consumer iterates.

The kernel is **bit-identical in virtual time** to ``run_pipeline``: same
outputs in the same order, same ``comparisons``, same per-hop
``HopStats`` — the running extrema reproduce ``probe_context`` exactly
(``max(values) - r`` is the same IEEE subtraction either way) and the
candidate pool preserves slice order and stride.  The differential tests in
``tests/perf/test_kernel.py`` and the testkit matrix assert this equality.
A hop over a stream with an active partition index (:mod:`repro.core
.windex`) scans the same pool and finds the same hits; the index only sets
how many rows the hop is charged (``HopStats.scanned``, ``comparisons``).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate, repeat
from typing import Callable

import numpy as np

from repro.core.basic_windows import SCALAR, WindowSlice
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
    # per-partial running value extrema; arrays only once a second hop
    # is reached — until then the probing tuple is the one partial
    vmin = vmax = None
    num_partials = 1
    # per-hop slices and back-pointer chains for final materialization
    hop_slices: list[Sequence[WindowSlice]] = []
    parents_chain: list[np.ndarray | None] = []
    rows_chain: list[np.ndarray] = []
    completed = True
    last_hop = len(order) - 1
    for hop, window_stream in enumerate(order):
        slices = slices_for_hop(hop, window_stream)
        stats = result.hop_stats[hop]
        total = len(slices[0]) if len(slices) == 1 else sum(map(len, slices))
        if total == 0:
            completed = False
            break
        if num_partials == 1:
            # python floats: ``max - r`` is the same IEEE subtraction
            pmin, pmax = (v0, v0) if vmin is None else (
                float(vmin[0]), float(vmax[0])
            )
            lo = pmax - radius
            hi = pmin + radius
        elif radius == 0.0:
            # the probe interval is [vmax, vmin] itself; alias instead of
            # allocating (IEEE: the only value changed by -/+ 0.0 is the
            # sign of a zero, which compares equal either way)
            lo, hi = vmax, vmin
        else:
            lo = vmax - radius
            hi = vmin + radius
        state = slices[0].store.windex
        if state is not None and state.is_active:
            # an active index only prices the hop: it is charged the rows
            # of the partitions its probe can reach, and its hits (a
            # subset of those) are still found by the scan below
            glo, ghi = (lo, hi) if num_partials == 1 else (
                float(lo.min()), float(hi.max())
            )
            charged = state.charge(slices, total, glo, ghi, v0)
            if charged == 0:
                completed = False
                break
        else:
            charged = total
        stats.scanned = num_partials * charged
        result.comparisons += stats.scanned
        # SCALAR storage (supports_columnar): a slice's values are
        # already a float64 view of its store's value column
        if len(slices) == 1:
            pool = slices[0].values
        else:
            pool = np.concatenate([s.values for s in slices])
        if num_partials == 1:
            pcol = ((pool >= lo) & (pool <= hi)).nonzero()[0]
            # hop 0's parents are never read
            prow = np.zeros(len(pcol), dtype=np.intp) if hop else None
        else:
            # hits as positions in the row-major (partials x candidates)
            # grid: a 1-D nonzero per chunk of rows, split into (partial,
            # candidate) once — far cheaper than a 2-D nonzero, same order
            max_rows = max(1, _CHUNK_ELEMS // total)
            hit_parts = []
            for start in range(0, num_partials, max_rows):
                stop = start + max_rows
                mask = (pool >= lo[start:stop, None]) & (
                    pool <= hi[start:stop, None]
                )
                hits = mask.ravel().nonzero()[0]
                hit_parts.append(hits + start * total if start else hits)
            prow, pcol = np.divmod(
                hit_parts[0] if len(hit_parts) == 1
                else np.concatenate(hit_parts),
                total,
            )
        stats.matched = len(pcol)
        if stats.matched == 0:
            completed = False
            break
        if hop < last_hop:
            candidates = pool[pcol]
            if num_partials == 1:
                vmin = np.minimum(candidates, pmin)
                vmax = np.maximum(candidates, pmax)
            else:
                vmin = np.minimum(vmin[prow], candidates)
                vmax = np.maximum(vmax[prow], candidates)
            num_partials = stats.matched
        # hits are only resolved to store rows at the final
        # materialization, which runs once per completed probe — far
        # less often than this per-hop path
        hop_slices.append(slices)
        parents_chain.append(prow)
        rows_chain.append(pcol)
    if completed:
        result.outputs = _materialize(
            tup, order, hop_slices, parents_chain, rows_chain
        )
    return result


def _locate(slices: Sequence[WindowSlice], cols: np.ndarray) -> np.ndarray:
    """Resolve positions ``cols`` in a hop's full candidate pool to rows
    of the hop's store."""
    if len(slices) == 1:
        s = slices[0]
        return s.lo + cols * s.step
    offsets = np.fromiter(
        accumulate(map(len, slices), initial=0),
        dtype=np.intp, count=len(slices) + 1,
    )
    ids = offsets.searchsorted(cols, "right") - 1
    los = np.array([s.lo for s in slices], dtype=np.intp)
    steps = np.array([s.step for s in slices], dtype=np.intp)
    return los[ids] + (cols - offsets[ids]) * steps[ids]


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

    Until then the constituents are held, per hop, as the probed store's
    tuple list and the hits' rows in it.
    :attr:`PartitionedWindow.tuples
    <repro.core.basic_windows.PartitionedWindow.tuples>` is only ever
    appended to or rebound, so those stay valid however the window
    changes afterwards.
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
        #: per hop ``(tuple list, rows)`` as of the probe
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
            for tuples, rows in self._levels:
                columns.append([tuples[r] for r in rows.tolist()])
            # every block has a hop, so zip() ends with the level lists
            results = self._results = [
                JoinResult(constituents)
                for constituents in zip(*(columns[k] for k in self._perm))
            ]
            self._levels = None  # release the expired tuples' lists
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
    hop_slices: list[Sequence[WindowSlice]],
    parents_chain: list[np.ndarray | None],
    rows_chain: list[np.ndarray],
) -> ResultBlock:
    """Resolve surviving back-pointer chains into a :class:`ResultBlock`.

    Output order is ascending final-partial index, which equals the slow
    path's enumeration order; constituents are sorted by stream via a
    permutation precomputed from the (distinct) stream ids.  The chain
    walk is array gathers only: each hop's hits are positions in its
    candidate pool, resolved to rows of the hop's store, and the ``seq``
    column gathered at those rows fills that stream's column of the
    identity matrix.
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
        slices = hop_slices[h]
        store = slices[0].store
        rows = _locate(
            slices, rows_chain[h] if idxs is None else rows_chain[h][idxs]
        )
        seqs[:, order[h]] = store.seqs[rows]
        levels[h] = (store.tuples, rows)
        if h:
            idxs = parents_chain[h] if idxs is None else parents_chain[h][idxs]
    return ResultBlock(seqs, tup, perm, levels)
