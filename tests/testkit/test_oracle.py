"""Tests for the brute-force reference join (the testkit's ground truth)."""

import pytest

from repro.joins.predicates import EpsilonJoin, EquiJoin
from repro.streams import StreamTuple, TraceSource
from repro.testkit import (
    dedupe_tuples,
    effective_horizon,
    oracle_join,
    window_state,
)
from repro.testkit.differential import mjoin_ids
from repro.testkit.workloads import Workload, drift_sources


def trace(stream, points):
    """Build a trace from ``(timestamp, value)`` pairs."""
    return TraceSource(
        stream,
        [
            StreamTuple(value=v, timestamp=ts, stream=stream, seq=i)
            for i, (ts, v) in enumerate(points)
        ],
    )


class TestEffectiveHorizon:
    def test_exact_division(self):
        assert effective_horizon(4.0, 1.0) == 4.0

    def test_rounds_up_to_whole_basic_windows(self):
        assert effective_horizon(5.0, 2.0) == 6.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            effective_horizon(0.0, 1.0)
        with pytest.raises(ValueError):
            effective_horizon(4.0, 0.0)

    def test_rejects_basic_larger_than_window(self):
        with pytest.raises(ValueError):
            effective_horizon(1.0, 2.0)


class TestWindowBoundary:
    def test_partner_just_inside_horizon_joins(self):
        a = trace(0, [(0.5, 1.0)])
        b = trace(1, [(4.4, 1.0)])  # age 3.9 < horizon 4
        result = oracle_join([a, b], EquiJoin(), [4.0, 4.0], 1.0)
        assert result.ids == (((0, 0), (1, 0)),)

    def test_partner_at_exact_horizon_age_is_expired(self):
        a = trace(0, [(0.5, 1.0)])
        b = trace(1, [(4.5, 1.0)])  # age exactly 4.0 -> out
        result = oracle_join([a, b], EquiJoin(), [4.0, 4.0], 1.0)
        assert result.ids == ()

    def test_horizon_rounds_up_with_coarse_basic_windows(self):
        # w = 3, b = 2 -> physical horizon 4: an age-3.5 partner joins
        a = trace(0, [(0.5, 1.0)])
        b = trace(1, [(4.0, 1.0)])
        result = oracle_join([a, b], EquiJoin(), [3.0, 3.0], 2.0)
        assert result.ids == (((0, 0), (1, 0)),)

    def test_asymmetric_windows(self):
        # stream 1 probes stream 0's window (2s) and vice versa (6s);
        # the age-3 pairing only exists when the *older* tuple sits in
        # the wider window
        a = trace(0, [(0.0, 1.0)])
        b = trace(1, [(3.0, 1.0)])
        wide_first = oracle_join([a, b], EquiJoin(), [6.0, 2.0], 1.0)
        assert wide_first.ids == (((0, 0), (1, 0)),)
        narrow_first = oracle_join([a, b], EquiJoin(), [2.0, 6.0], 1.0)
        assert narrow_first.ids == ()


class TestTieBreaksAndIdentity:
    def test_each_clique_produced_exactly_once(self):
        # three mutually matching tuples across three streams: exactly
        # one identity vector, not one per probing member
        a = trace(0, [(1.0, 5.0)])
        b = trace(1, [(2.0, 5.0)])
        c = trace(2, [(3.0, 5.0)])
        result = oracle_join(
            [a, b, c], EpsilonJoin(1.0), [4.0] * 3, 1.0
        )
        assert result.ids == (((0, 0), (1, 0), (2, 0)),)

    def test_equal_timestamps_break_ties_by_stream(self):
        # same timestamp: the higher-indexed stream is "newer", so the
        # combination exists (probed by stream 1, partner stream 0)
        a = trace(0, [(1.0, 5.0)])
        b = trace(1, [(1.0, 5.0)])
        result = oracle_join([a, b], EquiJoin(), [4.0, 4.0], 1.0)
        assert result.ids == (((0, 0), (1, 0)),)

    def test_predicate_filters_combinations(self):
        a = trace(0, [(1.0, 5.0), (1.5, 40.0)])
        b = trace(1, [(2.0, 5.5)])
        result = oracle_join([a, b], EpsilonJoin(1.0), [4.0] * 2, 1.0)
        assert result.ids == (((0, 0), (1, 0)),)

    def test_probes_counted(self):
        a = trace(0, [(1.0, 5.0), (1.5, 40.0)])
        b = trace(1, [(2.0, 5.5)])
        result = oracle_join([a, b], EpsilonJoin(1.0), [4.0] * 2, 1.0)
        assert result.probes == 3


class TestInfiniteValues:
    """inf - inf is NaN, yet the kernels' interval test joins an infinity
    with itself: the oracle's pairwise ``matches`` must agree."""

    INF = float("inf")

    def _workload(self, predicate, values):
        traces = [
            trace(s, [(0.25 * i + 0.01 * s, v) for i, v in enumerate(values)])
            for s in range(3)
        ]
        return Workload(name="inf", traces=traces, predicate=predicate,
                        window=4.0, basic=1.0, duration=2.0, seed=0)

    @pytest.mark.parametrize(
        "predicate", [EquiJoin(), EpsilonJoin(0.25), EpsilonJoin(0.5)],
        ids=["equi", "equi-0.25", "epsilon-0.5"],
    )
    def test_oracle_matches_mjoin(self, predicate):
        inf = self.INF
        workload = self._workload(
            predicate, [inf, -inf, 1.0, inf, -inf, 1.1, -0.0, 0.0]
        )
        oracle = oracle_join(
            workload.traces, predicate, [4.0] * 3, 1.0
        ).id_set
        assert mjoin_ids(workload) == oracle
        # the all-inf and the all-(-inf) cliques are among them
        assert ((0, 0), (1, 0), (2, 0)) in oracle
        assert ((0, 1), (1, 1), (2, 1)) in oracle

    def test_every_infinite_clique_joins(self):
        workload = self._workload(EquiJoin(), [self.INF] * 3)
        oracle = oracle_join(
            workload.traces, EquiJoin(), [4.0] * 3, 1.0
        ).id_set
        assert len(oracle) == 27
        assert mjoin_ids(workload) == oracle


class TestInputHandling:
    def test_duplicate_deliveries_count_once(self):
        dup = StreamTuple(value=1.0, timestamp=0.5, stream=0, seq=0)
        tuples = dedupe_tuples([dup, dup])
        assert tuples == [dup]

    def test_oracle_dedupes_at_least_once_streams(self):
        t0 = StreamTuple(value=1.0, timestamp=0.5, stream=0, seq=0)
        a = TraceSource(0, [t0, StreamTuple(
            value=1.0, timestamp=0.5, stream=0, seq=0, delivery=1.5
        )])
        b = trace(1, [(1.0, 1.0)])
        result = oracle_join([a, b], EquiJoin(), [4.0, 4.0], 1.0)
        assert result.ids == (((0, 0), (1, 0)),)

    def test_until_truncates(self):
        a = trace(0, [(0.5, 1.0), (5.0, 2.0)])
        b = trace(1, [(1.0, 1.0), (5.5, 2.0)])
        result = oracle_join([a, b], EquiJoin(), [4.0, 4.0], 1.0,
                             until=4.0)
        assert result.ids == (((0, 0), (1, 0)),)

    def test_live_sources_need_until(self):
        sources = drift_sources(m=2, rate=5.0, seed=3)
        with pytest.raises(ValueError, match="until"):
            oracle_join(sources, EpsilonJoin(1.0), [4.0, 4.0], 1.0)
        # with an explicit horizon they work
        result = oracle_join(
            sources, EpsilonJoin(1.0), [4.0, 4.0], 1.0, until=5.0
        )
        assert result.probes > 0

    def test_rejects_bad_shapes(self):
        a = trace(0, [(0.5, 1.0)])
        with pytest.raises(ValueError):
            oracle_join([a], EquiJoin(), [4.0], 1.0)
        b = trace(1, [(1.0, 1.0)])
        with pytest.raises(ValueError):
            oracle_join([a, b], EquiJoin(), [4.0], 1.0)


class TestWindowStateDiagnostics:
    def test_reports_unexpired_span_per_stream(self):
        a = trace(0, [(0.5, 1.0), (2.0, 2.0), (7.0, 3.0)])
        b = trace(1, [(3.0, 1.0)])
        state = window_state([a, b], [4.0, 4.0], 1.0, at=4.0)
        assert state[0]["unexpired"] == 2
        assert state[0]["seq_range"] == [0, 1]
        assert state[0]["horizon"] == 4.0
        assert state[1]["unexpired"] == 1

    def test_empty_window_has_no_span(self):
        a = trace(0, [(0.5, 1.0)])
        b = trace(1, [(1.0, 1.0)])
        state = window_state([a, b], [4.0, 4.0], 1.0, at=20.0)
        assert state[0]["seq_range"] is None
        assert state[0]["unexpired"] == 0
