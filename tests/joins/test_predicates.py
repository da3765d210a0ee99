"""Tests for the join predicates, including block-probe consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins import (
    BandJoin,
    EpsilonJoin,
    EquiJoin,
    InnerProductJoin,
    VectorDistanceJoin,
)


class TestEpsilonJoin:
    def test_pairwise(self):
        p = EpsilonJoin(1.0)
        assert p.matches(5.0, 5.9)
        assert p.matches(5.0, 4.1)
        assert not p.matches(5.0, 6.1)

    def test_boundary_inclusive(self):
        assert EpsilonJoin(1.0).matches(5.0, 6.0)

    def test_clique_context(self):
        p = EpsilonJoin(1.0)
        lo, hi = p.probe_context([4.0, 5.0])
        assert (lo, hi) == (4.0, 5.0)

    def test_probe_block(self):
        p = EpsilonJoin(1.0)
        block = np.array([3.0, 4.5, 5.5, 7.0])
        ctx = p.probe_context([4.0, 5.0])
        assert list(p.probe_block(ctx, block)) == [1]

    def test_infeasible_context_returns_empty(self):
        p = EpsilonJoin(0.5)
        ctx = p.probe_context([0.0, 10.0])  # no value matches both
        assert len(p.probe_block(ctx, np.array([5.0]))) == 0

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            EpsilonJoin(-1)


class TestEquiJoin:
    def test_exact(self):
        p = EquiJoin()
        assert p.matches(2.0, 2.0)
        assert not p.matches(2.0, 2.0001)

    def test_tolerance(self):
        """An equi-join is the radius-0 epsilon-join; a tolerance is an
        ``EpsilonJoin``."""
        p = EquiJoin()
        assert isinstance(p, EpsilonJoin) and p.interval_radius == 0.0
        assert EpsilonJoin(0.01).matches(2.0, 2.005)
        with pytest.raises(TypeError):
            EquiJoin(0.01)

    def test_probe_block(self):
        p = EquiJoin()
        hits = p.probe_block(
            p.probe_context([3.0]), np.array([1.0, 3.0, 3.0, 4.0])
        )
        assert list(hits) == [1, 2]


class TestBandJoin:
    def test_band(self):
        p = BandJoin(1.0, 2.0)
        assert p.matches(5.0, 6.5)
        assert not p.matches(5.0, 5.5)  # too close
        assert not p.matches(5.0, 8.0)  # too far

    def test_probe_block_clique(self):
        p = BandJoin(1.0, 2.0)
        ctx = p.probe_context([0.0, 3.0])
        # candidate must be 1-2 away from both 0 and 3
        block = np.array([1.5, 2.0, 4.5, -1.5])
        hits = set(p.probe_block(ctx, block))
        assert hits == {0, 1}

    def test_invalid(self):
        with pytest.raises(ValueError):
            BandJoin(2.0, 1.0)
        with pytest.raises(ValueError):
            BandJoin(-1.0, 1.0)


class TestVectorDistanceJoin:
    def test_pairwise(self):
        p = VectorDistanceJoin(1.0, dim=2)
        assert p.matches([0.0, 0.0], [0.6, 0.6])
        assert not p.matches([0.0, 0.0], [1.0, 1.0])

    def test_probe_block(self):
        p = VectorDistanceJoin(1.0, dim=2)
        ctx = p.probe_context([np.array([0.0, 0.0])])
        block = np.array([[0.5, 0.5], [2.0, 2.0], [0.1, -0.1]])
        assert set(p.probe_block(ctx, block)) == {0, 2}

    def test_clique_requires_all(self):
        p = VectorDistanceJoin(1.0, dim=1)
        ctx = p.probe_context([np.array([0.0]), np.array([1.5])])
        block = np.array([[0.8], [0.2], [1.4]])
        assert list(p.probe_block(ctx, block)) == [0]

    def test_empty_block(self):
        p = VectorDistanceJoin(1.0, dim=2)
        ctx = p.probe_context([np.zeros(2)])
        assert len(p.probe_block(ctx, np.empty((0, 2)))) == 0


class TestInnerProductJoin:
    def test_pairwise(self):
        p = InnerProductJoin(0.5)
        a = {1: 0.8, 2: 0.2}
        b = {1: 0.7, 3: 0.3}
        assert p.matches(a, b)  # 0.8*0.7 = 0.56
        assert not p.matches(a, {3: 1.0})

    def test_probe_block(self):
        p = InnerProductJoin(0.4)
        ctx = p.probe_context([{1: 1.0}])
        block = [{1: 0.5}, {2: 1.0}, {1: 0.39}]
        assert list(p.probe_block(ctx, block)) == [0]

    def test_symmetric_dot(self):
        p = InnerProductJoin(0.0)
        a = {1: 0.5, 2: 0.5}
        b = {2: 1.0}
        assert p._dot(a, b) == pytest.approx(p._dot(b, a))


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-100, max_value=100), min_size=1, max_size=30
    ),
    partial=st.lists(
        st.floats(min_value=-100, max_value=100), min_size=1, max_size=3
    ),
    epsilon=st.floats(min_value=0.0, max_value=50.0),
)
def test_property_epsilon_block_probe_matches_pairwise(values, partial,
                                                       epsilon):
    """probe_block must select exactly the candidates that pairwise-match
    every value of the partial result.

    Candidates whose distance to some partial value sits within one part
    in 1e12 of epsilon are excluded: at the exact boundary the pairwise
    form ``abs(a-b) <= eps`` and the interval form ``x >= max-eps`` can
    legitimately round one ULP apart.
    """
    p = EpsilonJoin(epsilon)
    razor_edge = {
        i
        for i, v in enumerate(values)
        if any(
            abs(abs(v - u) - epsilon)
            <= 1e-12 * max(abs(v), abs(u), epsilon, 1.0)
            for u in partial
        )
    }
    block = np.asarray(values)
    hits = set(p.probe_block(p.probe_context(partial), block))
    expected = {
        i for i, v in enumerate(values) if p.matches_all(v, partial)
    }
    assert hits - razor_edge == expected - razor_edge


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-50, max_value=50), min_size=1, max_size=20
    ),
    partial=st.lists(
        st.floats(min_value=-50, max_value=50), min_size=1, max_size=3
    ),
    low=st.floats(min_value=0.0, max_value=5.0),
    span=st.floats(min_value=0.0, max_value=10.0),
)
def test_property_band_block_probe_matches_pairwise(values, partial, low,
                                                    span):
    p = BandJoin(low, low + span)
    razor_edge = {
        i
        for i, v in enumerate(values)
        if any(
            min(abs(abs(v - u) - low), abs(abs(v - u) - (low + span)))
            <= 1e-12 * max(abs(v), abs(u), low + span, 1.0)
            for u in partial
        )
    }
    block = np.asarray(values)
    hits = set(p.probe_block(p.probe_context(partial), block))
    expected = {
        i for i, v in enumerate(values) if p.matches_all(v, partial)
    }
    assert hits - razor_edge == expected - razor_edge
