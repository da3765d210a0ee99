"""Sorted-value indexes over basic windows.

The paper deliberately processes joins NLJ-style because it assumes
nothing about the join condition (Section 2).  For *range-shaped*
conditions (epsilon-join, equi-join, band limits) a per-basic-window
sorted index answers a probe in ``O(log n + matches)`` instead of
``O(n)`` — the sliding-window indexing direction of Golab et al. (EDBT
2004), which the paper cites for its basic-window expiration batching.

Each basic window's index is kept in the window's own derived slot
(:meth:`~repro.core.basic_windows.PartitionedWindow.derived`), which
the store empties whenever the window's row offsets move, so an entry
is stale only when the window has appended since it was built.
The CPU charge for an indexed probe is ``ceil(log2(n)) + matches`` work
units per basic window probed, making the cost saving visible to the
load-shedding machinery.
"""

from __future__ import annotations

import math

import numpy as np

from .basic_windows import SCALAR, PartitionedWindow, WindowSlice


class SortedWindowIndex:
    """Lazily maintained sorted indexes for one or more stores' basic
    windows.

    Each index is rebuilt on first use after its window changed (an
    append changes its length; a late insert, an eviction or expiry
    empties its slot), which amortizes to one ``argsort`` per
    basic-window lifetime under batch expiration.
    """

    def __init__(self) -> None:
        self.rebuilds = 0

    def _entry(
        self, store: PartitionedWindow, k: int
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """``(start row, order, sorted values)`` of physical window ``k``;
        ``order`` counts rows from the start, which compaction moves."""
        start, stop = store.window_rows(k)
        slot = store.derived(k)
        cached = slot.get("sorted")
        if cached is not None and len(cached[0]) == stop - start:
            return start, *cached
        values = store.values[start:stop]
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        slot["sorted"] = (order, sorted_values)
        self.rebuilds += 1
        return start, order, sorted_values

    def range_probe(
        self, window_slice: WindowSlice, low: float, high: float
    ) -> tuple[np.ndarray, int]:
        """Indices (relative to the slice) with value in ``[low, high]``,
        plus the work units the probe cost.

        Every physical basic window the slice touches is probed through
        its own index and charged for it; an index covers its whole basic
        window, and hits outside the slice's range or stride are filtered
        out, so the result is identical to a linear scan of the slice.
        """
        store = window_slice.store
        if store.mode != SCALAR:
            raise ValueError("sorted indexes require scalar storage")
        s_lo, s_hi, step = window_slice.lo, window_slice.hi, window_slice.step
        pieces = store.window_pieces(s_lo, s_hi)
        if not pieces or low > high:
            return np.empty(0, dtype=np.intp), max(1, len(pieces))
        found = []
        cost = 0
        for k, _, _, _ in pieces:
            start, order, sorted_values = self._entry(store, k)
            hits = order[
                np.searchsorted(sorted_values, low, side="left") :
                np.searchsorted(sorted_values, high, side="right")
            ]
            cost += max(
                1, math.ceil(math.log2(max(len(order), 2)))
            ) + len(hits)
            found.append(hits + start)
        rows = np.concatenate(found)
        keep = (rows >= s_lo) & (rows < s_hi)
        if step != 1:
            keep &= (rows - s_lo) % step == 0
        return (rows[keep] - s_lo) // step, cost
