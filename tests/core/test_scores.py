"""Tests for logical basic window score computation (Eqs. 2 and 4)."""

import numpy as np
import pytest
from scipy import stats

from repro.core import (
    EquiWidthHistogram,
    rank_scores,
    scores_from_histograms,
)


def hist_from_pdf(pdf, low, high, buckets=200, samples=200_000, seed=0):
    """Histogram approximating a distribution via sampling."""
    h = EquiWidthHistogram(low, high, buckets)
    h.add_many(pdf.rvs(size=samples, random_state=seed))
    return h


class TestScoresFromHistograms:
    def test_direction_zero_uses_mirrored_range(self):
        # A_{l,0} concentrated at -4: probing from stream 0, matches in
        # W_l are ~4 s older, so the high-score logical window is k=4
        # (offsets [3b, 4b) with b=1... k covers [-(k)b, -(k-1)b) mirrored)
        hist = hist_from_pdf(stats.norm(-3.5, 0.3), -10, 10)
        hists = [None, hist]
        scores = scores_from_histograms(hists, 0, 1, 1.0, 10)
        assert np.argmax(scores) == 3  # k=4 covers A in [-4, -3)
        assert scores.sum() == pytest.approx(1.0, abs=0.01)

    def test_window_zero_is_direct(self):
        # A_{i,0} concentrated at +5.5: from direction i, stream-0 tuples
        # are ~5.5 s older -> logical window 6 (offsets [5, 6))
        hist = hist_from_pdf(stats.norm(5.5, 0.3), -10, 10)
        hists = [None, hist]
        scores = scores_from_histograms(hists, 1, 0, 1.0, 10)
        assert np.argmax(scores) == 5

    def test_convolution_case_matches_analytic(self):
        # A_{1,0} ~ N(2, 0.5), A_{2,0} ~ N(6.4, 0.5) =>
        # A_{2,1} = A_{2,0} - A_{1,0} ~ N(4.4, sqrt(0.5))
        h1 = hist_from_pdf(stats.norm(2, 0.5), -10, 10)
        h2 = hist_from_pdf(stats.norm(6.4, 0.5), -10, 10)
        hists = [None, h1, h2]
        scores = scores_from_histograms(hists, 2, 1, 1.0, 10)
        target = stats.norm(4.4, np.sqrt(0.5))
        expected = np.array(
            [target.cdf(k) - target.cdf(k - 1) for k in range(1, 11)]
        )
        assert np.argmax(scores) == np.argmax(expected)
        assert np.allclose(scores, expected, atol=0.02)

    def test_self_probe_rejected(self):
        with pytest.raises(ValueError):
            scores_from_histograms([None, None], 1, 1, 1.0, 10)

    def test_missing_histogram_rejected(self):
        with pytest.raises(ValueError):
            scores_from_histograms([None, None], 0, 1, 1.0, 10)

    def test_empty_histograms_give_informationless_scores(self):
        hists = [None, EquiWidthHistogram(-10, 10, 20)]
        scores = scores_from_histograms(hists, 1, 0, 1.0, 10)
        # uniform prior: all logical windows equally scored
        assert np.allclose(scores, scores[0])


class TestRankScores:
    def test_descending(self):
        ranks = rank_scores(np.array([0.1, 0.5, 0.3]))
        assert list(ranks) == [1, 2, 0]

    def test_stable_ties(self):
        ranks = rank_scores(np.array([0.5, 0.5, 0.1]))
        assert list(ranks) == [0, 1, 2]
