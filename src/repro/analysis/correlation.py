"""Offline time-correlation diagnostics for stream traces.

GrubJoin *learns* the time correlations online (window shredding +
per-stream histograms); before deploying a join it is useful to measure
them offline: for two recorded traces, how does the probability that a
tuple pair matches depend on their timestamp offset?  A flat profile
means tuple dropping loses nothing; a peaked profile is exactly the
structure window harvesting exploits — and the peak location tells you
the lag and the minimum window size that can see it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.streams.trace import TraceSource


@dataclass(frozen=True)
class OffsetProfile:
    """Match probability as a function of the timestamp offset
    ``T(a) - T(b)`` between tuples of two traces."""

    offsets: np.ndarray          # bin centers (seconds)
    match_probability: np.ndarray
    pair_counts: np.ndarray      # opportunities per bin

    def peak_offset(self) -> float:
        """Offset with the highest match probability."""
        return float(self.offsets[int(np.argmax(self.match_probability))])

    def concentration(self) -> float:
        """Ratio of the peak to the mean probability: ~1 means flat (no
        exploitable correlation), large means strongly concentrated."""
        mean = float(self.match_probability.mean())
        if mean <= 0:
            return 1.0
        return float(self.match_probability.max() / mean)


def offset_match_profile(
    trace_a: TraceSource,
    trace_b: TraceSource,
    predicate,
    max_offset: float,
    bin_width: float = 1.0,
    max_pairs: int = 500_000,
    rng: np.random.Generator | int = 0,
) -> OffsetProfile:
    """Measure the pairwise match probability vs timestamp offset.

    Args:
        trace_a / trace_b: the recorded traces.
        predicate: pairwise condition (``matches(a, b)``).
        max_offset: consider offsets in ``[-max_offset, max_offset]``.
        bin_width: offset histogram resolution (seconds).
        max_pairs: cap on candidate pairs examined; when exceeded, pairs
            are subsampled uniformly (the profile is a ratio, so
            subsampling leaves it unbiased).
        rng: generator or seed for the subsampling (a fixed seed by
            default, so the same traces give the same profile).
    """
    if max_offset <= 0 or bin_width <= 0:
        raise ValueError("max_offset and bin_width must be positive")
    ts_b = np.asarray([t.timestamp for t in trace_b.tuples])
    if len(trace_a.tuples) == 0 or ts_b.size == 0:
        raise ValueError("both traces need tuples")

    pairs: list[tuple[int, int]] = []
    for ia, a in enumerate(trace_a.tuples):
        lo = int(np.searchsorted(ts_b, a.timestamp - max_offset, "left"))
        hi = int(np.searchsorted(ts_b, a.timestamp + max_offset, "right"))
        pairs.extend((ia, ib) for ib in range(lo, hi))
    if not pairs:
        raise ValueError("no tuple pairs within max_offset")
    if len(pairs) > max_pairs:
        generator = np.random.default_rng(rng)
        chosen = generator.choice(len(pairs), size=max_pairs,
                                  replace=False)
        pairs = [pairs[int(i)] for i in chosen]

    edges = np.arange(-max_offset, max_offset + bin_width, bin_width)
    n_bins = len(edges) - 1
    totals = np.zeros(n_bins)
    matches = np.zeros(n_bins)
    for ia, ib in pairs:
        a = trace_a.tuples[ia]
        b = trace_b.tuples[ib]
        offset = a.timestamp - b.timestamp
        k = int((offset + max_offset) / bin_width)
        k = min(max(k, 0), n_bins - 1)
        totals[k] += 1
        if predicate.matches(a.value, b.value):
            matches[k] += 1
    probability = np.divide(
        matches, np.maximum(totals, 1.0)
    )
    centers = (edges[:-1] + edges[1:]) / 2
    return OffsetProfile(
        offsets=centers,
        match_probability=probability,
        pair_counts=totals,
    )
