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
into a :class:`ResultBlock`, which keeps each hop's hits — their ``seq``
numbers and tuple objects — and builds the results' identity matrix and
``JoinResult`` objects only if a consumer reads them.

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
from itertools import accumulate, product, repeat
from operator import itemgetter
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
    v0 = float(tup.value)
    # per-partial running value extrema; arrays only once a second hop
    # is reached — until then the probing tuple is the one partial
    vmin = vmax = None
    num_partials = 1
    # per-hop slices and back-pointer chains for final materialization
    hop_slices: list[Sequence[WindowSlice]] = []
    parents_chain: list[np.ndarray | None] = []
    rows_chain: list[np.ndarray] = []
    comparisons, hop_stats, outputs = 0, [], []  # the result, built last
    last_hop = len(order) - 1
    for hop, window_stream in enumerate(order):
        slices = slices_for_hop(hop, window_stream)
        s = slices[0] if len(slices) == 1 else None
        pool = _pool(slices) if s is None else s.store._vals[s.lo:s.hi:s.step]
        total = len(pool)
        if total == 0:
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
                break
        else:
            charged = total
        scanned = num_partials * charged
        comparisons += scanned
        if num_partials == 1:
            mask = pool >= lo
            mask &= pool <= hi
            pcol = mask.nonzero()[0]
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
        matched = len(pcol)
        hop_stats.append(HopStats(scanned, matched))
        if matched == 0:
            break
        if hop < last_hop:
            candidates = pool[pcol]
            if num_partials == 1:
                vmin = np.minimum(candidates, pmin)
                vmax = np.maximum(candidates, pmax)
            else:
                vmin = np.minimum(vmin[prow], candidates)
                vmax = np.maximum(vmax[prow], candidates)
            num_partials = matched
        # hits are only resolved to store rows at the final
        # materialization, which runs once per completed probe — far
        # less often than this per-hop path
        hop_slices.append(slices)
        parents_chain.append(prow)
        rows_chain.append(pcol)
    else:
        outputs = _materialize(
            tup, order, hop_slices, parents_chain, rows_chain
        )
    while len(hop_stats) < len(order):  # the hops not probed
        hop_stats.append(HopStats())
    return PipelineResult(comparisons, outputs, hop_stats)


def _pool(slices: Sequence[WindowSlice]) -> np.ndarray:
    """The candidate pool of a hop over several runs or strided pieces, or
    none: a copy of their values (SCALAR storage: already float64).  The
    kernels read a one-slice hop's pool in place, as a view."""
    return np.concatenate([s.values for s in slices]) if slices else np.empty(0)


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
    v0 = float(tup.value)
    # v0's hash bucket, the same for every hop's index (one bucket
    # layout per operator): hashed at the first indexed hop
    part = None
    num_partials = 1
    hop_slices: list[Sequence[WindowSlice]] = []
    hop_cols: list[np.ndarray] = []
    comparisons, hop_stats, outputs = 0, [], []
    for hop, window_stream in enumerate(order):
        slices = slices_for_hop(hop, window_stream)
        s = slices[0] if len(slices) == 1 else None
        pool = _pool(slices) if s is None else s.store._vals[s.lo:s.hi:s.step]
        total = len(pool)
        if total == 0:
            break
        state = slices[0].store.windex
        if state is not None and state.is_active:
            if part is None:
                part = state.hash_part(v0)
            charged = state.charge(slices, total, v0, v0, v0, part)
            if charged == 0:
                break
        else:
            charged = total
        scanned = num_partials * charged
        comparisons += scanned
        cols = (pool == v0).nonzero()[0]
        matched = num_partials * len(cols)
        hop_stats.append(HopStats(scanned, matched))
        if matched == 0:
            break
        num_partials = matched
        hop_slices.append(slices)
        hop_cols.append(cols)
    else:
        outputs = _materialize_product(
            tup, order, hop_slices, hop_cols, num_partials
        )
    while len(hop_stats) < len(order):  # the hops not probed
        hop_stats.append(HopStats())
    return PipelineResult(comparisons, outputs, hop_stats)


def _locate(slices: Sequence[WindowSlice], cols: np.ndarray) -> np.ndarray:
    """Resolve positions ``cols`` in a hop's full candidate pool to rows
    of the hop's store."""
    if len(slices) == 1:
        s = slices[0]
        return cols + s.lo if s.step == 1 else s.lo + cols * s.step
    offsets = np.fromiter(
        accumulate(map(len, slices), initial=0),
        dtype=np.intp, count=len(slices) + 1,
    )
    ids = offsets.searchsorted(cols, "right") - 1
    los = np.array([s.lo for s in slices], dtype=np.intp)
    steps = np.array([s.step for s in slices], dtype=np.intp)
    return los[ids] + (cols - offsets[ids]) * steps[ids]


class ResultBlock(Sequence):
    """One completed probe's results, kept as the hits its hops gathered.

    To every consumer it *is* the ``list[JoinResult]`` the reference
    pipeline returns — sized, truthy when non-empty, iterable, indexable,
    equal to a list of the same results.  What the probe keeps is, per
    hop, the ``seq`` numbers and the tuple objects gathered from the
    probed store at the hits' rows: the block owns them and refers to no
    store, so later changes to the windows cannot reach it.

    An equality probe keeps each hop's ``k_h`` hits once, as a factor of
    the cross product (last hop fastest); an interval probe keeps one hit
    per result and hop, as aligned rows.  Either way result ``r`` takes
    hop ``h``'s hit ``(r // stride_h) % k_h`` (:meth:`factors`), so the
    identities of many blocks can be gathered and laid out at once
    (:func:`repro.parallel.procs.gather_keys`).  The ``(n, m)`` identity
    matrix :attr:`seqs` and the :class:`~repro.streams.tuples.JoinResult`
    objects are only built the first time somebody reads them, and then
    kept (so a timestamp stamped on a result is seen by every later
    reader).  :meth:`stamp` sets their emission time without building them.
    """

    __slots__ = (
        "_tup", "_order", "_hits", "_levels", "_product", "_count",
        "_seqs", "_results", "_stamp",
    )

    def __init__(
        self,
        tup: StreamTuple,
        order: Sequence[int],
        hits: list[np.ndarray],
        levels: list[np.ndarray],
        product: bool,
        count: int,
    ) -> None:
        self._tup = tup
        #: the stream each hop probed
        self._order = order
        #: per hop, the hits' ``seq`` numbers (int64 arrays)
        self._hits = hits
        #: per hop, the hits' tuple objects (object arrays)
        self._levels = levels
        #: cross-product factors (equality) or aligned rows (interval)
        self._product = product
        self._count = count
        self._seqs: np.ndarray | None = None
        self._results: list[JoinResult] | None = None
        self._stamp = 0.0  # the results' timestamp (see stamp())

    def stamp(self, now: float) -> None:
        """Set the results' ``timestamp``: the built ones now, the rest later."""
        self._stamp = now
        for result in self._results or ():
            result.timestamp = now

    @property
    def materialized(self) -> bool:
        """Whether the ``JoinResult`` objects have been built yet."""
        return self._results is not None

    def factors(
        self,
    ) -> tuple[int, int, Sequence[int], list[np.ndarray], bool]:
        """The results' identities, unexpanded: ``(stream, seq, order,
        hits, product)``.  Every result holds the probing tuple (``seq``
        of ``stream``) and, per hop ``h``, one of the ``k_h`` hits of
        stream ``order[h]`` (``seq`` numbers ``hits[h]``).  Result ``r``
        takes hit ``r`` of every hop when the hits are aligned rows, and
        hit ``(r // stride_h) % k_h`` when they are cross-product
        factors (``product``; ``stride_h`` is the product of the later
        hops' ``k``)."""
        return (
            self._tup.stream, self._tup.seq, self._order, self._hits,
            self._product,
        )

    @property
    def seqs(self) -> np.ndarray:
        """The ``(n, m)`` int64 identity matrix: column ``s`` holds the
        sequence number of each result's constituent from stream ``s``."""
        seqs = self._seqs
        if seqs is None:
            tup = self._tup
            seqs = np.empty(
                (self._count, len(self._order) + 1), dtype=np.int64
            )
            seqs[:, tup.stream] = tup.seq
            rows = np.arange(self._count)
            stride = 1
            for stream, hits in zip(self._order[::-1], self._hits[::-1]):
                seqs[:, stream] = hits[rows // stride % len(hits)]
                if self._product:
                    stride *= len(hits)
            self._seqs = seqs
        return seqs

    def _rows(self) -> list[JoinResult]:
        results = self._results
        if results is None:
            tup = self._tup
            streams = [tup.stream, *self._order]
            # constituent positions (0 = the probing tuple, ``h + 1`` =
            # hop ``h``) in ascending stream order
            by_stream = itemgetter(
                *sorted(range(len(streams)), key=streams.__getitem__)
            )
            levels = [level.tolist() for level in self._levels]
            combos = (
                product((tup,), *levels) if self._product
                else zip(repeat(tup), *levels)
            )
            results = self._results = list(
                map(JoinResult, map(by_stream, combos), repeat(self._stamp))
            )
            self._levels = None  # the results hold the tuples now
        return results

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

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
    path's enumeration order.  The chain walk is array gathers only:
    each hop's hits are positions in its candidate pool, resolved to
    rows of the hop's store; the ``seq`` and tuple columns gathered at
    those rows are the block's own copy of that hop's constituents, one
    per result.
    """
    hops = len(rows_chain)
    hits: list = [None] * hops
    levels: list = [None] * hops
    idxs: np.ndarray | None = None  # None: the identity over the last hop
    for h in range(hops - 1, -1, -1):
        slices = hop_slices[h]
        rows = _locate(
            slices, rows_chain[h] if idxs is None else rows_chain[h][idxs]
        )
        hits[h], levels[h] = slices[0].store.gather(rows)
        if h:
            idxs = parents_chain[h] if idxs is None else parents_chain[h][idxs]
    return ResultBlock(tup, order, hits, levels, False, len(rows_chain[-1]))


def _materialize_product(
    tup: StreamTuple,
    order: Sequence[int],
    hop_slices: list[Sequence[WindowSlice]],
    hop_cols: list[np.ndarray],
    count: int,
) -> ResultBlock:
    """The :class:`ResultBlock` of an equality probe: the cross product
    of the per-hop hits, last hop fastest.  Each hop's ``k_h`` hits are
    resolved to store rows and gathered once; nothing is expanded."""
    hits = []
    levels = []
    for slices, cols in zip(hop_slices, hop_cols):
        seq, level = slices[0].store.gather(_locate(slices, cols))
        hits.append(seq)
        levels.append(level)
    return ResultBlock(tup, order, hits, levels, True, count)
