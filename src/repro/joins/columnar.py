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

A radius-0 predicate (``EquiJoin()``, ``EpsilonJoin(0)``) takes the
equality path instead: every live partial's interval is then the probing
value's ``[v0, v0]``, so a hop is one 1-D ``pool == v0`` test standing for
all ``P`` rows of the grid, and the results are the cross product of the
per-hop hits — no extrema, no back-pointer chains.

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
    scalar storage and interval-shaped probe contexts."""
    return (
        bool(getattr(predicate, "interval_context", False))
        and predicate.storage_mode == SCALAR
    )


def select_kernel(
    predicate: JoinPredicate,
) -> Callable[..., PipelineResult]:
    """The probe kernel for ``predicate``: the columnar kernel exactly
    when :func:`supports_columnar` holds, else the reference nested-loop
    :func:`~repro.joins.pipeline.run_pipeline` (band, inner-product and
    vector-distance predicates, whose probe context is not an
    interval).

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
    if radius == 0.0:
        return _run_equality(tup, order, slices_for_hop)
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
        pool = _pool(slices)
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


def _pool(slices: Sequence[WindowSlice]) -> np.ndarray:
    """A hop's candidate pool: the one slice's view of its store's value
    column (SCALAR storage, :func:`supports_columnar`: already float64),
    a copy only when the hop selects several runs or strided pieces."""
    if len(slices) == 1:
        return slices[0].values
    return np.concatenate([s.values for s in slices])


def _run_equality(
    tup: StreamTuple,
    order: Sequence[int],
    slices_for_hop: Callable[[int, int], Sequence[WindowSlice]],
) -> PipelineResult:
    """The kernel for a radius-0 predicate.

    A partial only survives a hop by extending with a value equal to the
    probing tuple's ``v0``, so every live partial's interval is
    ``[v0, v0]`` and every row of the partials x candidates grid is the
    same mask: one 1-D ``pool == v0`` per hop (the same IEEE truth table
    as ``v0 <= x <= v0``) stands for all ``P`` rows, and the grid's
    row-major hits are the cross product of the per-hop hits in
    lexicographic hop order.
    """
    result = PipelineResult(hop_stats=[HopStats() for _ in order])
    v0 = float(tup.value)
    num_partials = 1
    hop_slices: list[Sequence[WindowSlice]] = []
    hop_cols: list[np.ndarray] = []
    for hop, window_stream in enumerate(order):
        slices = slices_for_hop(hop, window_stream)
        stats = result.hop_stats[hop]
        total = len(slices[0]) if len(slices) == 1 else sum(map(len, slices))
        if total == 0:
            return result
        state = slices[0].store.windex
        if state is not None and state.is_active:
            charged = state.charge(slices, total, v0, v0, v0)
            if charged == 0:
                return result
        else:
            charged = total
        stats.scanned = num_partials * charged
        result.comparisons += stats.scanned
        cols = (_pool(slices) == v0).nonzero()[0]
        stats.matched = num_partials * len(cols)
        if stats.matched == 0:
            return result
        num_partials = stats.matched
        hop_slices.append(slices)
        hop_cols.append(cols)
    result.outputs = _materialize_product(tup, order, hop_slices, hop_cols)
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

    Until then the constituents are held, per hop, as the tuple objects
    gathered from the probed store at the hits' rows when the probe ran:
    the block owns them and refers to no store, so later changes to the
    windows cannot reach it.
    """

    __slots__ = ("seqs", "_tup", "_perm", "_levels", "_results")

    def __init__(
        self,
        seqs: np.ndarray,
        tup: StreamTuple,
        perm: Sequence[int],
        levels: list[np.ndarray],
    ) -> None:
        self.seqs = seqs
        self._tup = tup
        #: constituent positions (0 = the probing tuple, ``h + 1`` = hop
        #: ``h``) in ascending stream order
        self._perm = perm
        #: per hop, the constituents' tuple objects (object arrays)
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
            columns.extend(level.tolist() for level in self._levels)
            # every block has a hop, so zip() ends with the level lists
            results = self._results = [
                JoinResult(constituents)
                for constituents in zip(*(columns[k] for k in self._perm))
            ]
            self._levels = None  # the results hold the tuples now
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
    candidate pool, resolved to rows of the hop's store; the ``seq``
    column gathered at those rows fills that stream's column of the
    identity matrix, and the tuple column gathered there is the block's
    own copy of that hop's constituents.
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
        seqs[:, order[h]], levels[h] = store.gather(rows)
        if h:
            idxs = parents_chain[h] if idxs is None else parents_chain[h][idxs]
    return ResultBlock(seqs, tup, perm, levels)


def _materialize_product(
    tup: StreamTuple,
    order: Sequence[int],
    hop_slices: list[Sequence[WindowSlice]],
    hop_cols: list[np.ndarray],
) -> ResultBlock:
    """The :class:`ResultBlock` of an equality probe: the cross product
    of the per-hop hits, last hop fastest.

    Each hop's ``k_h`` hits are resolved to store rows and gathered once;
    its ``seq`` column is broadcast into the ``(k_0, ..., k_{H-1}, m)``
    view of the identity matrix, and its tuple objects into one level
    of the same shape.
    """
    streams = [tup.stream, *order]
    perm = sorted(range(len(streams)), key=streams.__getitem__)
    shape = tuple(len(cols) for cols in hop_cols)
    seqs = np.empty((*shape, len(streams)), dtype=np.int64)
    seqs[..., tup.stream] = tup.seq
    levels = []
    for h, (slices, cols) in enumerate(zip(hop_slices, hop_cols)):
        seq, level = slices[0].store.gather(_locate(slices, cols))
        # hop h's hits along axis h: broadcast over the axes after it
        axis = (-1,) + (1,) * (len(shape) - 1 - h)
        seqs[..., order[h]] = seq.reshape(axis)
        grid = np.empty(shape, dtype=object)
        grid[...] = level.reshape(axis)
        levels.append(grid.reshape(-1))
    return ResultBlock(seqs.reshape(-1, len(streams)), tup, perm, levels)
