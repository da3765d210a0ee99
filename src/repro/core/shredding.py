"""Window shredding (Section 5.2.1): unbiased probes for learning.

Window harvesting only scans the currently best-ranked window segments, so
its own output cannot reveal that the time correlations have *moved*.  For
a randomly sampled ``omega`` fraction of incoming tuples GrubJoin therefore
executes the join with **window shredding** instead: the full join, except
that the *first* window in the join order is scanned only over a
``z``-fraction sample of tuples spread evenly across the whole window time
range.  Even spreading removes the harvesting bias, so shredding output is
safe for updating the time-correlation histograms; sampling only the first
hop keeps the cost within the throttle budget.
"""

from __future__ import annotations

from typing import Sequence

from .basic_windows import PartitionedWindow, WindowSlice


def shredded_slices(
    window: PartitionedWindow, fraction: float, now: float
) -> list[WindowSlice]:
    """Evenly distributed sample of ``fraction`` of the window's tuples.

    Implemented as a strided scan: with stride
    ``s = max(1, round(1 / fraction))`` every ``s``-th tuple of each
    physical basic window is selected — the stride restarts at every
    basic window boundary (:meth:`PartitionedWindow.strided`), so the
    sample is spread uniformly over the window's time range and a basic
    window's sampled rows do not depend on how full the older ones are.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    return window.strided(
        window.full_slices(now), max(1, round(1.0 / fraction))
    )


def shred_slices_for_hop(
    windows: Sequence[PartitionedWindow],
    order: Sequence[int],
    throttle: float,
    now: float,
) -> "callable":
    """Build the ``slices_for_hop`` callback for one shredded probe: hop 0
    scans the even ``throttle``-fraction sample, later hops scan fully."""

    def slices_for_hop(hop: int, window_stream: int) -> list[WindowSlice]:
        window = windows[window_stream]
        if hop == 0:
            return shredded_slices(window, throttle, now)
        return window.full_slices(now)

    return slices_for_hop
