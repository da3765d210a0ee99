"""Tests for the declarative query builder."""

import pytest

from repro import EpsilonJoin
from repro.query import Query
from repro.testkit.workloads import drift_sources


def make_sources(m=3, rate=30.0, seed=0):
    return drift_sources(m=m, rate=rate, seed=seed)


class TestValidation:
    def test_requires_streams(self):
        q = Query().window(10.0, basic=1.0).join(EpsilonJoin(1.0))
        with pytest.raises(ValueError, match="streams"):
            q.build(capacity=1e6)

    def test_requires_window_and_join(self):
        q = Query().streams(*make_sources())
        with pytest.raises(ValueError):
            q.build(capacity=1e6)

    def test_window_bounds(self):
        with pytest.raises(ValueError):
            Query().window(10.0, basic=20.0)

    def test_unknown_shedding(self):
        with pytest.raises(ValueError):
            Query().join(EpsilonJoin(1.0), shedding="magic")

    def test_single_stream_rejected(self):
        q = (
            Query()
            .streams(make_sources(m=1)[0])
            .window(10.0, basic=1.0)
            .join(EpsilonJoin(1.0))
        )
        with pytest.raises(ValueError):
            q.build(capacity=1e6)


class TestExecution:
    def _base_query(self, shedding="grubjoin", **join_kwargs):
        return (
            Query()
            .streams(*make_sources())
            .window(10.0, basic=1.0)
            .join(EpsilonJoin(1.0), shedding=shedding, **join_kwargs)
        )

    def test_bare_join_runs(self):
        result = self._base_query(rng=0).run(
            capacity=1e12, duration=12.0, warmup=4.0,
            adaptation_interval=2.0,
        )
        assert result.stage_names == ["join"]
        assert result.output_rate > 0
        assert result.join_operator.throttle_fraction == 1.0

    def test_full_pipeline(self):
        result = (
            self._base_query(rng=0)
            .project(lambda r: max(t.value for t in r.constituents))
            .where(lambda v: v <= 990.0)
            .select(lambda v: v / 10)
            .aggregate("count", window=4.0, slide=1.0)
            .run(capacity=1e12, duration=12.0, warmup=4.0,
                 adaptation_interval=2.0)
        )
        assert result.stage_names == [
            "join", "where0", "select1", "aggregate2"
        ]
        join_out = result.stage("join").output_count
        assert result.stage("where0").consumed == join_out
        assert result.stage("aggregate2").output_count > 0

    def test_stages_downstream_of_the_join_see_emission_times(self):
        # join results are stamped with their completion time, so a
        # windowed aggregate behind the join has something to window on
        from repro.engine import CpuModel, SimulationConfig

        graph, query = (
            self._base_query(rng=0)
            .project(lambda r: max(t.value for t in r.constituents))
            .aggregate("count", window=2.0, slide=1.0)
            .build(capacity=1e12)
        )
        result = graph.run(
            CpuModel(1e12),
            SimulationConfig(duration=12.0, warmup=4.0,
                             adaptation_interval=2.0),
            retain_outputs=True,
        )
        joined = result.nodes["join"].outputs
        assert joined and all(r.timestamp > 0 for r in joined)
        windows = result.nodes[query.stage_names[-1]].outputs
        assert max(w.value for w in windows) > 0

    def test_default_projection(self):
        result = (
            self._base_query(rng=0)
            .where(lambda v: isinstance(v, tuple) and len(v) == 3)
            .run(capacity=1e12, duration=10.0, warmup=2.0,
                 adaptation_interval=2.0)
        )
        where = result.stage("where0")
        assert where.output_count == where.consumed  # all pass

    def test_randomdrop_policy(self):
        result = self._base_query(shedding="randomdrop").run(
            capacity=2e4, duration=14.0, warmup=4.0,
            adaptation_interval=2.0,
        )
        assert result.shedder is not None
        assert result.shedder.last_plan is not None
        assert result.output_rate >= 0

    def test_none_policy_is_plain_mjoin(self):
        result = self._base_query(shedding="none").run(
            capacity=1e12, duration=10.0, warmup=2.0,
        )
        assert result.shedder is None
        assert type(result.join_operator).__name__ == "MJoinOperator"

    def test_grubjoin_sheds_under_pressure(self):
        result = self._base_query(rng=1).run(
            capacity=2e4, duration=16.0, warmup=4.0,
            adaptation_interval=2.0,
        )
        assert result.join_operator.throttle_fraction < 1.0
        assert result.output_rate > 0
