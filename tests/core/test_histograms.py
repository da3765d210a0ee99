"""Tests for the per-stream equi-width histograms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EquiWidthHistogram


class TestConstruction:
    def test_bucket_geometry(self):
        h = EquiWidthHistogram(-10, 10, 4)
        assert h.width == 5.0
        assert h.bucket_edges(0) == (-10, -5)
        assert h.bucket_edges(3) == (5, 10)
        assert h.bucket_center(1) == -2.5
        assert list(h.centers()) == [-7.5, -2.5, 2.5, 7.5]

    @pytest.mark.parametrize(
        "args", [(-1, -1, 4), (0, 10, 0), (5, 4, 3)]
    )
    def test_invalid(self, args):
        with pytest.raises(ValueError):
            EquiWidthHistogram(*args)


class TestUpdates:
    def test_add_lands_in_bucket(self):
        h = EquiWidthHistogram(0, 10, 10)
        h.add(3.5)
        assert h.counts[3] == 1.0

    def test_out_of_range_clamped(self):
        h = EquiWidthHistogram(0, 10, 10)
        h.add(-5.0)
        h.add(99.0)
        assert h.counts[0] == 1.0
        assert h.counts[9] == 1.0

    def test_boundary_value_at_high_edge(self):
        h = EquiWidthHistogram(0, 10, 10)
        h.add(10.0)
        assert h.counts[9] == 1.0

    def test_add_many_equals_adds(self):
        xs = np.random.default_rng(0).uniform(-1, 11, 100)
        h1 = EquiWidthHistogram(0, 10, 7)
        h2 = EquiWidthHistogram(0, 10, 7)
        for x in xs:
            h1.add(x)
        h2.add_many(xs)
        assert np.allclose(h1.counts, h2.counts)

    @settings(max_examples=50, deadline=None)
    @given(xs=st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([1e19, -1e19, 1e300, -1e300, 9.2e18, 10.0, -0.0]),
    ), max_size=30))
    def test_add_many_buckets_extremes_as_add(self, xs):
        # a scaled position past int64 must clamp to the edge bucket, not
        # wrap in the cast (1e19 and 1e300 once landed in bucket 0); the
        # counts are bit-equal, not just close
        h1 = EquiWidthHistogram(0, 10, 10)
        h2 = EquiWidthHistogram(0, 10, 10)
        for x in xs:
            h1.add(x)
        h2.add_many(xs)
        assert h1.counts.tolist() == h2.counts.tolist()

    def test_weighted_add(self):
        h = EquiWidthHistogram(0, 10, 10)
        h.add(1.0, weight=2.5)
        assert h.total == 2.5

    def test_decay(self):
        h = EquiWidthHistogram(0, 10, 10)
        h.add(1.0)
        h.decay(0.5)
        assert h.total == 0.5
        with pytest.raises(ValueError):
            h.decay(0.0)
        with pytest.raises(ValueError):
            h.decay(1.5)


class TestProbabilities:
    def test_empty_is_uniform(self):
        h = EquiWidthHistogram(0, 10, 5)
        assert np.allclose(h.probabilities(), 0.2)

    def test_normalized(self):
        h = EquiWidthHistogram(0, 10, 5)
        h.add_many([1, 1, 3, 9])
        assert h.probabilities().sum() == pytest.approx(1.0)


class TestMass:
    def test_full_range_is_one(self):
        h = EquiWidthHistogram(0, 10, 5)
        h.add_many([0.5, 4.4, 9.9])
        assert h.mass(0, 10) == pytest.approx(1.0)

    def test_single_bucket(self):
        h = EquiWidthHistogram(0, 10, 10)
        h.add_many([2.5] * 4)
        assert h.mass(2, 3) == pytest.approx(1.0)
        assert h.mass(3, 4) == 0.0

    def test_partial_bucket_prorated(self):
        h = EquiWidthHistogram(0, 10, 10)
        h.add_many([2.5] * 4)
        assert h.mass(2.0, 2.5) == pytest.approx(0.5)

    def test_outside_range_zero(self):
        h = EquiWidthHistogram(0, 10, 10)
        h.add(5.0)
        assert h.mass(-5, -1) == 0.0
        assert h.mass(11, 20) == 0.0

    def test_degenerate_interval(self):
        h = EquiWidthHistogram(0, 10, 10)
        assert h.mass(3, 3) == 0.0
        assert h.mass(5, 3) == 0.0

    def test_mass_many_matches_scalar(self):
        rng = np.random.default_rng(1)
        h = EquiWidthHistogram(-5, 5, 13)
        h.add_many(rng.normal(0, 2, 300))
        los = rng.uniform(-7, 5, 50)
        his = los + rng.uniform(0, 6, 50)
        vect = h.mass_many(los, his)
        scal = np.array([h.mass(lo, hi) for lo, hi in zip(los, his)])
        assert np.allclose(vect, scal, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    samples=st.lists(
        st.floats(min_value=-10, max_value=10), min_size=1, max_size=50
    ),
    split=st.floats(min_value=-10, max_value=10),
)
def test_property_mass_is_additive(samples, split):
    """mass(lo, x) + mass(x, hi) == mass(lo, hi) for any split point."""
    h = EquiWidthHistogram(-10, 10, 8)
    h.add_many(samples)
    total = h.mass(-10, 10)
    left = h.mass(-10, split)
    right = h.mass(split, 10)
    assert left + right == pytest.approx(total, abs=1e-9)
