"""The nested-loop m-way probe pipeline shared by all join operators.

Processing a tuple ``t`` from stream ``i`` walks the join order ``R_i``
(Section 2): ``t`` probes the first window in the order; every match forms
a partial result that probes the next window, and so on.  Partial results
satisfy the *clique* condition — a new candidate must match every tuple
already in the partial — which the predicate compresses into a probe
context so each basic-window block is tested with one vectorized call.

The executor is parameterized by which slices of each window to scan, which
is the single point where full joins (all slices), window harvesting
(top-ranked logical basic windows) and window shredding (evenly strided
sample) differ — and optionally by *how* a partial probes a slice
(``probe``): the flat scan by default, or an index lookup charged what
it spent (:class:`repro.joins.indexed.IndexedMJoin`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.basic_windows import WindowSlice
from repro.streams.tuples import JoinResult, StreamTuple

from .predicates import JoinPredicate


@dataclass(slots=True)
class HopStats:
    """Per-hop probe accounting used for selectivity estimation."""

    scanned: int = 0
    matched: int = 0


@dataclass(slots=True)
class PipelineResult:
    """Outcome of pushing one tuple through the probe pipeline.

    ``outputs`` is a sequence of results in emission order: a list here,
    a lazily materialized :class:`~repro.joins.columnar.ResultBlock`
    from the columnar kernel's completed probes.
    """

    comparisons: int = 0
    outputs: Sequence[JoinResult] = field(default_factory=list)
    hop_stats: list[HopStats] = field(default_factory=list)


def merge_slices(slices: Sequence[WindowSlice]) -> list[WindowSlice]:
    """Coalesce contiguous slices of the same store with touching ranges.

    Selected logical basic windows are often adjacent, so their slices
    abut; merging them reduces per-block probe overhead without changing
    which tuples are scanned.  Strided slices are never merged and come
    first, in input order; the contiguous ones follow per store (in
    first-seen order), ascending by row.

    Fast path: a singleton input has nothing to merge.
    """
    if len(slices) <= 1:
        return list(slices)
    merged = [s for s in slices if s.step != 1]
    by_store: dict[int, list[WindowSlice]] = {}
    for s in slices:
        if s.step == 1:
            by_store.setdefault(id(s.store), []).append(s)
    for group in by_store.values():
        group.sort(key=lambda s: s.lo)
        current = group[0]
        for nxt in group[1:]:
            if nxt.lo <= current.hi:
                if nxt.hi > current.hi:
                    current = WindowSlice(current.store, current.lo, nxt.hi)
            else:
                merged.append(current)
                current = nxt
        merged.append(current)
    return merged


def run_pipeline(
    tup: StreamTuple,
    order: Sequence[int],
    slices_for_hop: Callable[[int, int], Sequence[WindowSlice]],
    predicate: JoinPredicate,
    probe: Callable[[object, WindowSlice], tuple[Sequence[int], int]]
    | None = None,
) -> PipelineResult:
    """Probe the windows along ``order`` starting from ``tup``.

    Args:
        tup: the probing tuple (drives join direction ``tup.stream``).
        order: the join order ``R_i`` — stream indices of the windows to
            probe, length ``m - 1``.
        slices_for_hop: ``(hop_index, window_stream) -> slices`` selecting
            what part of that window this hop scans.
        predicate: the join condition.
        probe: block-probe strategy ``(context, slice) -> (hits, cost)``:
            slice-relative indices of the matching rows in emission order
            and the work units to charge.  Default: the flat
            ``probe_block`` scan, charged ``len(slice)``.

    Returns:
        comparisons performed, complete join results, and per-hop stats.
    """
    if probe is None:
        def probe(context, s):
            return predicate.probe_block(context, s.values), len(s)

    result = PipelineResult(hop_stats=[HopStats() for _ in order])
    partials: list[list[StreamTuple]] = [[tup]]
    for hop, window_stream in enumerate(order):
        slices = slices_for_hop(hop, window_stream)
        stats = result.hop_stats[hop]
        next_partials: list[list[StreamTuple]] = []
        for partial in partials:
            context = predicate.probe_context([t.value for t in partial])
            for s in slices:
                hits, cost = probe(context, s)
                stats.scanned += cost
                if len(hits) == 0:
                    continue
                stats.matched += len(hits)
                for idx in hits:
                    next_partials.append(partial + [s.tuple_at(int(idx))])
        result.comparisons += stats.scanned
        partials = next_partials
        if not partials:
            break
    else:
        result.outputs = [
            JoinResult(tuple(sorted(p, key=lambda t: t.stream)))
            for p in partials
        ]
    return result
