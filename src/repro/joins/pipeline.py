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
    """Coalesce slices of the same basic window with touching ranges.

    Selected logical basic windows are often adjacent, so their physical
    slices abut; merging them reduces per-block probe overhead without
    changing which tuples are scanned.

    Fast path: a singleton input, or contiguous slices over pairwise
    distinct basic windows (the shape ``full_slices`` produces), has
    nothing to merge and is returned as-is — the grouping/sorting below
    would reproduce the input order exactly.  A *prefix* of strided
    slices (the shape harvesting's fractional window produces, and the
    degenerate single-partition run) keeps the fast path: the slow path
    fronts strided slices unchanged, so a strided-prefix input is
    already in its output order.  A strided slice after the first
    contiguous one would be reordered to the front, so it falls through.
    """
    if len(slices) <= 1:
        return list(slices)
    seen_windows: set[int] = set()
    in_prefix = True
    for s in slices:
        if s.step != 1:
            if in_prefix:
                continue
            break
        in_prefix = False
        if id(s.window) in seen_windows:
            break
        seen_windows.add(id(s.window))
    else:
        return list(slices)
    by_window: dict[int, list[WindowSlice]] = {}
    order: list[int] = []
    merged_out: list[WindowSlice] = []
    for s in slices:
        if s.step != 1:
            merged_out.append(s)  # strided slices are never merged
            continue
        key = id(s.window)
        if key not in by_window:
            by_window[key] = []
            order.append(key)
        by_window[key].append(s)
    merged: list[WindowSlice] = list(merged_out)
    for key in order:
        group = sorted(by_window[key], key=lambda s: s.lo)
        current = group[0]
        for nxt in group[1:]:
            if nxt.lo <= current.hi:
                current = WindowSlice(
                    current.window, current.lo, max(current.hi, nxt.hi)
                )
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
    stream_aware = getattr(predicate, "stream_aware", False)
    for hop, window_stream in enumerate(order):
        slices = slices_for_hop(hop, window_stream)
        stats = result.hop_stats[hop]
        next_partials: list[list[StreamTuple]] = []
        for partial in partials:
            if stream_aware:
                context = predicate.probe_context_streams(
                    [(t.stream, t.value) for t in partial], window_stream
                )
            else:
                context = predicate.probe_context(
                    [t.value for t in partial]
                )
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
