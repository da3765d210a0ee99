"""Per-stream equi-width histograms (Section 5.2.2).

GrubJoin learns the time correlations by maintaining only ``m`` histograms:
``L_i`` approximates ``f_{i,1}``, the pdf of ``A_{i,1} = T(t^(i)) -
T(t^(1))`` — the timestamp offset between the stream-``i`` and stream-``1``
constituents of an output tuple.  Histograms are updated exclusively from
window-shredding output (unbiased in the offset dimension) and aged with an
exponential decay so that drifting time correlations are tracked.
"""

from __future__ import annotations

import numpy as np


class EquiWidthHistogram:
    """An equi-width histogram over a fixed real interval.

    Args:
        low: inclusive lower bound of the domain.
        high: exclusive upper bound; must exceed ``low``.
        buckets: number of equal-width buckets.

    Out-of-range samples are clamped into the edge buckets — for the
    offset histograms the domain ``[-w_i, w_1]`` covers every producible
    offset, so clamping only absorbs floating-point edge cases.
    """

    def __init__(
        self, low: float, high: float, buckets: int, smoothing: float = 0.0
    ) -> None:
        if high <= low:
            raise ValueError("high must exceed low")
        if buckets <= 0:
            raise ValueError("buckets must be positive")
        if smoothing < 0:
            raise ValueError("smoothing must be non-negative")
        self.low = float(low)
        self.high = float(high)
        self.buckets = int(buckets)
        self.width = (self.high - self.low) / self.buckets
        self.counts = np.zeros(self.buckets)
        #: Laplace pseudo-count per bucket: with few samples the raw
        #: frequencies are spuriously spiky, which makes downstream
        #: consumers (the window-harvesting cost model) overconfident
        self.smoothing = float(smoothing)
        #: bumped on every content change; score-convolution caches key on
        #: it (a decay of an empty histogram changes nothing and keeps the
        #: version, so idle adaptation ticks stay cache hits).  Write
        #: ``counts`` only through the methods below, which bump it.
        self.version = 0
        self._tables_version = -1  # version _tables were built at
        self._tables: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def _bucket_of(self, x: float) -> int:
        idx = int((x - self.low) / self.width)
        return min(max(idx, 0), self.buckets - 1)

    def add(self, x: float, weight: float = 1.0) -> None:
        """Record one sample."""
        self.counts[self._bucket_of(x)] += weight
        self.version += 1

    def add_many(self, xs) -> None:
        """Record a batch of samples; one beyond the domain lands in the
        edge bucket, as with :meth:`add` (NaN has no bucket)."""
        # clip before the cast: a position past int64 has no integer,
        # and a far-out sample's position may overflow to inf
        with np.errstate(over="ignore"):
            pos = (np.asarray(xs, dtype=float) - self.low) / self.width
        idx = np.clip(pos, 0, self.buckets - 1).astype(int)
        np.add.at(self.counts, idx, 1.0)
        if len(idx):
            self.version += 1

    def decay(self, factor: float) -> None:
        """Age the histogram: multiply all counts by ``factor`` in (0, 1]."""
        if not 0 < factor <= 1:
            raise ValueError("decay factor must be in (0, 1]")
        if factor == 1.0 or not self.counts.any():
            return  # no-op decay: contents (and version) unchanged
        self.counts *= factor
        self.version += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def total(self) -> float:
        """Total (possibly decayed) sample weight."""
        return float(self.counts.sum())

    def _probability_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(probabilities, CDF at the bucket edges)``, memoised per
        :attr:`version`; both arrays are read-only."""
        if self._tables_version != self.version:
            total = self.total + self.smoothing * self.buckets
            if total <= 0:
                probs = np.full(self.buckets, 1.0 / self.buckets)
            else:
                probs = (self.counts + self.smoothing) / total
            cum = np.concatenate(([0.0], np.cumsum(probs)))
            probs.setflags(write=False)
            cum.setflags(write=False)
            self._tables = (probs, cum)
            self._tables_version = self.version
        return self._tables

    def probabilities(self) -> np.ndarray:
        """Normalized bucket frequencies, Laplace-smoothed by
        :attr:`smoothing` (uniform when empty and unsmoothed).  The array
        is shared until the next update: read-only."""
        return self._probability_tables()[0]

    def bucket_edges(self, k: int) -> tuple[float, float]:
        """``(L_i[k_*], L_i[k^*])``: the k-th bucket's range (0-based)."""
        lo = self.low + k * self.width
        return lo, lo + self.width

    def bucket_center(self, k: int) -> float:
        """Midpoint of the k-th bucket (0-based)."""
        lo, hi = self.bucket_edges(k)
        return (lo + hi) / 2

    def centers(self) -> np.ndarray:
        """All bucket midpoints."""
        return self.low + (np.arange(self.buckets) + 0.5) * self.width

    def mass(self, lo: float, hi: float) -> float:
        """Probability mass in ``[lo, hi)``, pro-rating partial buckets.

        This is the paper's ``L_i(I)`` — the frequency of a time range in
        the histogram — with linear interpolation inside buckets.
        """
        if hi <= lo:
            return 0.0
        probs = self.probabilities()
        lo = max(lo, self.low)
        hi = min(hi, self.high)
        if hi <= lo:
            return 0.0
        a = min((lo - self.low) / self.width, float(self.buckets))
        z = min((hi - self.low) / self.width, float(self.buckets))
        first = min(int(a), self.buckets - 1)
        last = min(int(z), self.buckets - 1)
        if first == last:
            return float(probs[first] * (z - a))
        total = probs[first] * (first + 1 - a)
        total += probs[first + 1 : last].sum()
        total += probs[last] * (z - last)
        return float(total)

    def cdf_many(self, xs: np.ndarray) -> np.ndarray:
        """Probability mass below each ``x``, pro-rating partial buckets."""
        probs, cum = self._probability_tables()
        pos = np.clip(
            (np.asarray(xs, dtype=float) - self.low) / self.width,
            0.0,
            self.buckets,
        )
        idx = np.minimum(pos.astype(int), self.buckets - 1)
        return cum[idx] + probs[idx] * (pos - idx)

    def mass_many(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`mass` over aligned bound arrays."""
        return np.maximum(self.cdf_many(his) - self.cdf_many(los), 0.0)
