"""Logical basic window scores ``p^k_{i,j}`` (Sections 4.2.1 and 5.2.2).

The score of logical basic window ``k`` of the window probed at hop ``j``
of direction ``i`` is the probability that an output tuple's constituents
from streams ``i`` and ``l = r_{i,j}`` have a timestamp offset inside that
window's time range::

    p^k_{i,j} = P{ A_{i,l} in b * [k-1, k] },   A_{i,l} = T(t^(i)) - T(t^(l))

GrubJoin does not know the true pdfs: it maintains ``m`` per-stream
histograms ``L_i ~ f_{i,1}`` and recovers the scores with the paper's
approximations (:func:`scores_from_histograms`):

* ``i = 1`` (0-based 0): Eq. (2) — read ``L_l`` over the mirrored range
  ``b * [-k, -k+1]`` since ``A_{1,l} = -A_{l,1}``;
* ``l = 1``: direct — ``p^k = L_i(b * [k-1, k])``;
* otherwise: Eq. (4) — a discrete convolution using the independence
  approximation ``A_{i,l} = A_{i,1} - A_{l,1}``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .histograms import EquiWidthHistogram


def scores_from_histograms(
    histograms: Sequence[EquiWidthHistogram | None],
    i: int,
    l: int,
    basic_window_size: float,
    segments: int,
) -> np.ndarray:
    """Approximate ``p^k_{i,l}`` for ``k = 1..segments`` from the ``m``
    per-stream histograms (paper Eqs. 2 and 4).

    Args:
        histograms: ``histograms[s]`` approximates ``f_{s,0}``; the entry
            for stream 0 may be ``None`` (``A_{0,0}`` is identically zero).
        i: probing (direction) stream, 0-based.
        l: probed window's stream, 0-based; ``l != i``.
        basic_window_size: ``b`` in seconds.
        segments: number of logical basic windows ``n_l``.
    """
    if i == l:
        raise ValueError("a direction never probes its own window")
    b = basic_window_size
    # segment k's band ends where segment k+1's starts: one CDF read per
    # band edge gives every band mass as a difference of neighbours, the
    # same floats mass_many returns for the bands themselves
    edges = b * np.arange(segments + 1, dtype=float)
    if i == 0:
        hist_l = histograms[l]
        if hist_l is None:
            raise ValueError(f"histogram for stream {l} required")
        # Eq. (2): p^k = L_l(b * [-k, -k+1])
        cdf = hist_l.cdf_many(-edges)
        return np.maximum(cdf[:-1] - cdf[1:], 0.0)
    hist_i = histograms[i]
    if hist_i is None:
        raise ValueError(f"histogram for stream {i} required")
    if l == 0:
        # direct: A_{i,0} is what L_i approximates
        cdf = hist_i.cdf_many(edges)
        return np.maximum(cdf[1:] - cdf[:-1], 0.0)
    hist_l = histograms[l]
    if hist_l is None:
        raise ValueError(f"histogram for stream {l} required")
    # Eq. (4): p^k ~= sum_v L_l[v] * L_i(b*[k-1,k] + center_v) over the
    # buckets v with positive weight, one row of band masses per bucket.
    # The sum over v must add the rows in order, as a loop would:
    # add.accumulate is sequential for every shape, where sum(axis=0)
    # goes pairwise on a single column.
    weights = hist_l.probabilities()
    keep = weights > 0
    if not keep.any():
        return np.zeros(segments)
    cdf = hist_i.cdf_many(edges[None, :] + hist_l.centers()[keep, None])
    mass = np.maximum(cdf[:, 1:] - cdf[:, :-1], 0.0)
    return np.add.accumulate(weights[keep, None] * mass, axis=0)[-1]


def rank_scores(scores: np.ndarray) -> np.ndarray:
    """Score ordering (Section 4.2.1's ``s^v_{i,j}``): logical window
    indices (0-based) sorted by descending score, ties by index.  The one
    definition of the ranking: :class:`~repro.core.cost_model.JoinProfile`
    ranks every hop with it.

    Example:
        >>> [int(k) for k in rank_scores(np.array([0.1, 0.6, 0.3]))]
        [1, 2, 0]
    """
    return np.argsort(-np.asarray(scores, dtype=float), kind="stable")
