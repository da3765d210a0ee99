"""Runtime window-harvesting configuration (Section 4.1.2).

At probe time, the ``i``-th join direction needs, for each hop ``j``, the
set of logical basic windows to scan: the top ``counts[i][j]`` windows of
the ranking ``s_{i,j}`` derived from the scores.  This module packages that
state (produced by the solver + score computation at each adaptation step)
and turns it into concrete window slices.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .basic_windows import PartitionedWindow, WindowSlice


class HarvestConfiguration:
    """Harvest counts plus window rankings for all directions and hops.

    Args:
        counts: ``(m, m-1)`` matrix of selected logical windows per hop.
            A fractional part selects an evenly strided sample of the
            next-ranked logical window (the greedy's sub-segment fallback
            under extreme overload).
        rankings: ``rankings[i][j]`` is an array of 0-based logical-window
            indices sorted by descending score (rank order).
    """

    def __init__(
        self,
        counts: np.ndarray,
        rankings: Sequence[Sequence[np.ndarray]],
    ) -> None:
        counts = np.asarray(counts, dtype=float)
        m = counts.shape[0]
        if counts.shape != (m, m - 1):
            raise ValueError("counts must be shaped (m, m-1)")
        if len(rankings) != m or any(len(r) != m - 1 for r in rankings):
            raise ValueError("one ranking per (direction, hop) required")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        self.counts = counts
        self.rankings = [
            [np.asarray(r, dtype=int) for r in per_dir]
            for per_dir in rankings
        ]
        # once-per-configuration hop plans (see _hop_plan)
        self._plans: dict[tuple[int, int], tuple] = {}

    @classmethod
    def full(cls, m: int, segments: Sequence[int]) -> "HarvestConfiguration":
        """The non-shedding configuration: every window fully selected, in
        natural (most-recent-first) rank order."""
        counts = np.zeros((m, m - 1), dtype=int)
        rankings: list[list[np.ndarray]] = []
        for i in range(m):
            per_dir = []
            others = [l for l in range(m) if l != i]
            for j, l in enumerate(others):
                counts[i, j] = segments[l]
                per_dir.append(np.arange(segments[l]))
            rankings.append(per_dir)
        return cls(counts, rankings)

    def selected_windows(self, i: int, j: int) -> np.ndarray:
        """0-based logical-window indices *fully* scanned at hop ``j`` of
        direction ``i``, best-ranked first (fractional tail excluded)."""
        count = int(self.counts[i, j])
        return self.rankings[i][j][:count]

    def fractional_window(self, i: int, j: int) -> tuple[int, float] | None:
        """The partially scanned logical window of hop ``j``, if any:
        ``(0-based window index, fraction)``."""
        count = float(self.counts[i, j])
        whole = int(count)
        frac = count - whole
        ranking = self.rankings[i][j]
        if frac <= 0.0 or whole >= len(ranking):
            return None
        return int(ranking[whole]), frac

    def slices_for_hop(
        self,
        window: PartitionedWindow,
        i: int,
        j: int,
        now: float,
        reference: float | None = None,
    ) -> list[WindowSlice]:
        """Concrete slices of ``window`` for hop ``j`` of direction ``i``,
        one logical window at a time in rank order — the reference
        enumeration :meth:`run_slices_for_hop` is tested against.

        ``reference`` anchors the logical windows (pass the probing tuple's
        timestamp so the scored offsets line up even for stale tuples).
        """
        slices: list[WindowSlice] = []
        for k in self.selected_windows(i, j):
            slices.extend(
                window.logical_window_slices(int(k) + 1, now, reference)
            )
        return slices + self._fractional_slices(
            window, self._hop_plan(i, j)[0], now, reference
        )

    def _hop_plan(
        self, i: int, j: int
    ) -> tuple[tuple[int, int] | None, list[tuple[int, int]]]:
        """What hop ``j`` of direction ``i`` scans, decomposed once per
        (immutable) configuration: the fractional window as ``(1-based
        logical index, stride)`` — stride ``max(1, round(1 / fraction))``
        — or ``None``, and the runs of :meth:`selected_runs`."""
        key = (i, j)
        plan = self._plans.get(key)
        if plan is None:
            partial = self.fractional_window(i, j)
            strided = None if partial is None else (
                partial[0] + 1, max(1, round(1.0 / partial[1]))
            )
            runs: list[tuple[int, int]] = []
            for k in sorted(int(k) for k in self.selected_windows(i, j)):
                if runs and k == runs[-1][1]:
                    runs[-1] = (runs[-1][0], k + 1)
                else:
                    runs.append((k + 1, k + 1))
            plan = self._plans[key] = (strided, runs)
        return plan

    @staticmethod
    def _fractional_slices(
        window: PartitionedWindow,
        strided: tuple[int, int] | None,
        now: float,
        reference: float | None,
    ) -> list[WindowSlice]:
        """The strided sample of a hop's partially scanned logical window,
        the stride restarting at the physical basic window boundary the
        logical window straddles (:meth:`PartitionedWindow.strided`)."""
        if strided is None:
            return []
        return window.strided(
            window.logical_window_slices(strided[0], now, reference),
            strided[1],
        )

    def selected_runs(self, i: int, j: int) -> list[tuple[int, int]]:
        """Maximal runs of consecutive fully selected logical windows at
        hop ``j`` of direction ``i``: 1-based inclusive ``(first, last)``
        pairs, ascending.

        This is the slice-merging work of :func:`merge_slices` hoisted to
        selection time: a configuration is immutable, so the adjacency of
        its selected logical windows is computed once instead of being
        rediscovered (via sort + coalesce over physical slices) on every
        probe.
        """
        return self._hop_plan(i, j)[1]

    def run_slices_for_hop(
        self,
        window: PartitionedWindow,
        i: int,
        j: int,
        now: float,
        reference: float | None = None,
    ) -> list[WindowSlice]:
        """The slices GrubJoin's harvested probes scan: the run-based
        equivalent of :meth:`slices_for_hop` + ``merge_slices``.

        Scans exactly the same tuples with the same strides — identical
        scanned/matched/comparison accounting and identical output *sets*
        — but enumerates one slice per run (ascending logical index,
        strided fractional tail first) rather than one per logical window
        in rank order, and pays at most two binary searches per run
        instead of two per logical window plus a sort.
        """
        strided, runs = self._hop_plan(i, j)
        slices = self._fractional_slices(window, strided, now, reference)
        for first, last in runs:
            slices.extend(
                window.logical_span_slices(first, last, now, reference)
            )
        return slices

    def fraction(self, i: int, j: int, segments: int) -> float:
        """The harvest fraction ``z_{i,j}`` implied for a window with
        ``segments`` logical basic windows."""
        return self.counts[i, j] / segments
