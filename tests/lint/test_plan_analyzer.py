"""Static query-plan analyzer: seeded misconfigurations and clean plans.

The six seeded misconfigurations required by the issue:

1. cyclic operator graph                     -> P101
2. join window not divisible by basic window -> P103
3. aggregate slide > window                  -> P104
4. unknown shedding policy                   -> P105
5. schema mismatch (join -> stage, no transform) -> P102
6. infeasible harvest configuration          -> P106

Plus: the plans built by the repo's examples (quickstart-/dataflow-
pipeline-shaped) must validate clean, and ``Query.run(validate=True)``
must refuse to execute an invalid plan.
"""

import numpy as np
import pytest

from repro import EpsilonJoin
from repro.core import GrubJoinOperator, ThrottledAggregateOperator
from repro.engine import (
    CpuModel,
    DataflowGraph,
    FilterOperator,
    MapOperator,
    SimulationConfig,
)
from repro.joins import MJoinOperator
from repro.lint import Severity
from repro.lint.plan import (
    HarvestAssumptions,
    PlanValidationError,
    analyze_graph,
    analyze_query,
    check_harvest_feasibility,
)
from repro.query import Query
from repro.streams import StreamTuple
from repro.testkit.workloads import drift_sources


def make_sources(m=3, rate=30.0, seed=0):
    return drift_sources(m=m, rate=rate, seed=seed)


def make_query(window=10.0, basic=1.0, **join_kwargs):
    return (
        Query()
        .streams(*make_sources())
        .window(window, basic=basic)
        .join(EpsilonJoin(1.0), **join_kwargs)
    )


def error_codes(report):
    return {d.code for d in report.errors}


def to_tuple(result):
    return StreamTuple(
        value=max(t.value for t in result.constituents),
        timestamp=result.timestamp,
        stream=0,
        seq=0,
    )


# --------------------------------------------------------------------------
# the six seeded misconfigurations
# --------------------------------------------------------------------------


class TestSeededMisconfigurations:
    def test_1_cyclic_graph_rejected(self):
        g = DataflowGraph()
        g.add_node("a", MapOperator(lambda v: v))
        g.add_node("b", FilterOperator(lambda v: True))
        g.connect("a", "b")
        g.connect("b", "a")  # feedback loop
        report = analyze_graph(g)
        assert "P101" in error_codes(report)
        assert not report.ok

    def test_2_window_not_divisible_rejected(self):
        q = make_query(window=10.0, basic=3.0)  # 10 / 3 is not integral
        report = analyze_query(q)
        assert "P103" in error_codes(report)

    def test_3_slide_exceeding_window_rejected(self):
        q = make_query().aggregate("count", window=2.0, slide=5.0)
        report = analyze_query(q)
        assert "P104" in error_codes(report)

    def test_4_unknown_shedding_policy_rejected(self):
        q = make_query()
        # Query.join() raises on unknown policies at call time; the
        # analyzer is the defense for programmatic construction paths.
        q._shedding = "magic"
        report = analyze_query(q)
        assert "P105" in error_codes(report)

    def test_5_schema_mismatch_rejected(self):
        g = DataflowGraph()
        join = MJoinOperator(EpsilonJoin(1.0), [10.0] * 2, 1.0)
        g.add_node("join", join)
        g.add_node("flt", FilterOperator(lambda v: True))
        g.connect("join", "flt")  # JoinResult needs a transform
        for i, src in enumerate(make_sources(m=2)):
            g.add_source("join", i, src)
        report = analyze_graph(g)
        assert "P102" in error_codes(report)

    def test_6_infeasible_harvest_config_rejected(self):
        q = make_query()
        # full harvest counts at z = 0.05: C({z_ij}) = C(1) > z * C(1)
        assumptions = HarvestAssumptions(
            rates=[100.0, 100.0, 100.0], throttle=0.05
        )
        report = analyze_query(q, assumptions)
        assert "P106" in error_codes(report)
        (diag,) = [d for d in report.errors if d.code == "P106"]
        assert "z*C(1)" in diag.message


# --------------------------------------------------------------------------
# additional checks
# --------------------------------------------------------------------------


class TestOtherChecks:
    def test_unknown_aggregate_function(self):
        q = make_query().aggregate("median", window=5.0, slide=1.0)
        report = analyze_query(q)
        assert "P108" in error_codes(report)

    def test_starved_input_is_warning(self):
        g = DataflowGraph()
        g.add_node("flt", FilterOperator(lambda v: True))
        report = analyze_graph(g)
        assert report.ok  # warnings do not invalidate
        assert any(
            d.code == "P107" and d.severity is Severity.WARNING
            for d in report.diagnostics
        )

    def test_ragged_aggregate_window_is_warning(self):
        q = (
            make_query()
            .project(lambda r: r.timestamp)
            .aggregate("count", window=5.0, slide=2.0)
        )
        report = analyze_query(q)
        assert report.ok
        assert any(d.code == "P109" for d in report.warnings)

    def test_aggregate_without_projection_rejected(self):
        # the default projection emits tuple-of-values payloads, which
        # the numeric aggregate window cannot store
        q = make_query().aggregate("count", window=5.0, slide=1.0)
        report = analyze_query(q)
        assert "P110" in error_codes(report)
        # a scalar select before the aggregate silences it ...
        q2 = (
            make_query()
            .select(lambda v: max(v))
            .aggregate("count", window=5.0, slide=1.0)
        )
        assert "P110" not in error_codes(analyze_query(q2))
        # ... as does an explicit projection
        q3 = (
            make_query()
            .project(lambda r: r.timestamp)
            .aggregate("count", window=5.0, slide=1.0)
        )
        assert "P110" not in error_codes(analyze_query(q3))

    def test_incomplete_query_reported(self):
        report = analyze_query(Query())
        assert "P100" in error_codes(report)

    def test_all_problems_reported_at_once(self):
        q = (
            make_query(window=10.0, basic=3.0)
            .aggregate("median", window=2.0, slide=5.0)
        )
        q._shedding = "magic"
        report = analyze_query(q)
        assert {"P103", "P104", "P105", "P108"} <= error_codes(report)

    def test_feasibility_helper_accepts_feasible(self):
        from repro.core.cost_model import JoinProfile, uniform_masses
        from repro.joins.join_order import default_orders

        orders = default_orders(3)
        profile = JoinProfile(
            rates=np.full(3, 50.0),
            window_counts=np.full(3, 500.0),
            segments=np.full(3, 10, dtype=int),
            selectivity=np.full((3, 3), 0.01),
            orders=orders,
            masses=uniform_masses(np.full(3, 10, dtype=int), orders),
        )
        # the full configuration at z = 1 is feasible by definition
        assert check_harvest_feasibility(profile, 1.0) is None
        # one basic window per hop costs far less than 10 per hop
        tiny = np.ones((3, 2))
        assert check_harvest_feasibility(profile, 0.9, tiny) is None
        # ... but not under a 1e-6 throttle
        assert check_harvest_feasibility(profile, 1e-6, tiny) is not None


# --------------------------------------------------------------------------
# wiring: Query.run / DataflowGraph.run
# --------------------------------------------------------------------------


class TestRunValidation:
    def test_query_run_rejects_invalid_plan(self):
        q = (
            Query()
            .streams(*make_sources())
            .window(10.0, basic=3.0)
            .join(EpsilonJoin(1.0))
        )
        with pytest.raises(PlanValidationError, match="P103"):
            q.run(capacity=1e6, duration=2.0, warmup=0.0)

    def test_query_run_validate_off_still_executes(self):
        q = (
            Query()
            .streams(*make_sources())
            .window(10.0, basic=3.0)
            .join(EpsilonJoin(1.0), rng=0)
        )
        result = q.run(
            capacity=1e9, duration=4.0, warmup=1.0,
            adaptation_interval=2.0, validate=False,
        )
        assert result.graph_result is not None

    def test_graph_run_rejects_cycle(self):
        g = DataflowGraph()
        g.add_node("a", MapOperator(lambda v: v))
        g.add_node("b", MapOperator(lambda v: v))
        g.connect("a", "b")
        g.connect("b", "a")
        with pytest.raises(PlanValidationError, match="cycle"):
            g.run(CpuModel(1e6),
                  SimulationConfig(duration=1.0, warmup=0.0))

    def test_error_message_lists_findings(self):
        q = make_query(window=10.0, basic=3.0)
        try:
            q.run(capacity=1e6)
        except PlanValidationError as exc:
            assert "P103" in str(exc)
            assert exc.report.errors
        else:  # pragma: no cover
            pytest.fail("expected PlanValidationError")


# --------------------------------------------------------------------------
# clean plans: the example-shaped workloads must pass
# --------------------------------------------------------------------------


class TestCleanPlans:
    def test_query_builder_pipeline_validates(self):
        q = (
            make_query()
            .project(lambda r: max(t.value for t in r.constituents))
            .where(lambda v: v < 900)
            .select(lambda v: v / 10)
            .aggregate("count", window=5.0, slide=1.0)
        )
        report = analyze_query(q)
        assert report.ok, report.render()

    def test_dataflow_pipeline_example_shape_validates(self):
        # mirrors examples/dataflow_pipeline.py
        g = DataflowGraph()
        join = GrubJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 1.0, rng=1)
        g.add_node("join", join)
        g.add_node("spread", MapOperator(lambda v: v))
        g.add_node("tight", FilterOperator(lambda s: s <= 0.5))
        g.add_node("rate", ThrottledAggregateOperator(
            "count", window_size=5.0, slide=1.0))
        for i, source in enumerate(make_sources()):
            g.add_source("join", i, source)
        g.connect("join", "spread", transform=to_tuple)
        g.connect("spread", "tight")
        g.connect("tight", "rate")
        report = analyze_graph(g)
        assert report.ok, report.render()
        assert not report.warnings

    def test_quickstart_example_shape_validates(self):
        # mirrors examples/quickstart.py (bare join, divisible windows)
        q = (
            Query()
            .streams(*make_sources())
            .window(20.0, basic=2.0)
            .join(EpsilonJoin(1.0), shedding="grubjoin", rng=7)
        )
        report = analyze_query(q)
        assert report.ok, report.render()

    def test_feasible_assumptions_pass(self):
        q = make_query()
        assumptions = HarvestAssumptions(
            rates=[30.0, 30.0, 30.0],
            throttle=0.5,
            counts=np.ones((3, 2)),  # one basic window per hop
        )
        report = analyze_query(q, assumptions)
        assert report.ok, report.render()

    def test_randomdrop_and_none_policies_validate(self):
        for policy in ("randomdrop", "none"):
            report = analyze_query(make_query(shedding=policy))
            assert report.ok, report.render()


class TestRouterFanout:
    """P111: routed fan-out must cover every shard, with filters."""

    def make_plan(self, num_shards=2):
        from repro.joins import EquiJoin
        from repro.parallel import build_sharded_graph

        def make_shard(_k):
            return MJoinOperator(EquiJoin(), [10.0] * 3, 1.0)

        return build_sharded_graph(make_sources(), make_shard, num_shards)

    def test_wellformed_sharded_plan_validates(self):
        report = analyze_graph(self.make_plan().graph)
        assert report.ok, report.render()
        assert not [d for d in report.diagnostics if d.code == "P111"]

    def test_missing_shard_target_rejected(self):
        plan = self.make_plan(num_shards=2)
        # sever every edge into shard1: the router still declares 2 shards
        plan.graph._edges = [
            e for e in plan.graph._edges if e.target != "shard1"
        ]
        report = analyze_graph(plan.graph)
        assert "P111" in error_codes(report)

    def test_unfiltered_fanout_edge_rejected(self):
        plan = self.make_plan(num_shards=2)
        for edge in plan.graph.edge_list():
            if edge.source == "router":
                edge.filter = None
                break
        report = analyze_graph(plan.graph)
        assert "P111" in error_codes(report)
        assert any(
            "duplicat" in d.message
            for d in report.errors if d.code == "P111"
        )


class TestModeAndPolicyRules:
    """P130/P131/P132: join modes and window policies."""

    def make(self, mode="inner", policy=None, shedding="grubjoin",
             window=10.0, basic=1.0):
        return (
            Query()
            .streams(*make_sources())
            .window(window, basic=basic, policy=policy)
            .join(EpsilonJoin(1.0), shedding=shedding, mode=mode)
        )

    def test_anti_and_outer_queries_validate_clean(self):
        # every host performs the end-of-run survivor flush, so a bare
        # anti/outer join is an ordinary plan
        for mode in ("anti", "outer"):
            report = analyze_query(self.make(mode=mode, shedding="none"))
            assert not report.diagnostics, (mode, report.render())

    def test_outer_query_matches_simulation_and_oracle(self):
        from dataclasses import replace

        from repro.engine import Simulation
        from repro.testkit.differential import (
            UNBOUNDED_CAPACITY,
            oracle_ids,
            run_config,
        )
        from repro.testkit.workloads import default_workloads

        for mode in ("outer", "anti"):
            w = replace(default_workloads()[0], mode=mode)
            cfg = run_config(w)
            sim = Simulation(
                w.traces,
                MJoinOperator(w.predicate, w.window_sizes, w.basic,
                              mode=mode),
                CpuModel(UNBOUNDED_CAPACITY), cfg,
            ).run()
            query = (
                Query().streams(*w.traces).window(w.window, basic=w.basic)
                .join(w.predicate, shedding="none", mode=mode)
                .run(capacity=UNBOUNDED_CAPACITY, duration=cfg.duration,
                     warmup=cfg.warmup,
                     adaptation_interval=cfg.adaptation_interval)
            )
            joined = query.stage("join").output_count
            assert joined == sim.output_count_total > 0, mode
            assert joined == len(oracle_ids(w).ids), mode

    def test_shedding_with_anti_join_is_unsound(self):
        report = analyze_query(self.make(mode="anti",
                                         shedding="randomdrop"))
        assert error_codes(report) == {"P131"}
        assert any(
            "invent" in d.message
            for d in report.errors if d.code == "P131"
        )

    def test_grubjoin_limited_to_inner_sliding(self):
        # semi mode and non-sliding policies each push grubjoin off the
        # turf its harvest model was derived on
        for query in (self.make(mode="semi"),
                      self.make(policy="tumbling")):
            report = analyze_query(query)
            assert "P131" in error_codes(report)

    def test_grubjoin_off_turf_build_raises(self):
        with pytest.raises(ValueError, match="P131"):
            self.make(mode="semi").build(capacity=10.0)

    def test_semi_with_randomdrop_validates(self):
        report = analyze_query(self.make(mode="semi",
                                         shedding="randomdrop"))
        assert report.ok, report.render()

    def test_session_gap_off_grid_warns(self):
        # gap 1.3 is not a multiple of b=1: session boundaries land
        # mid-slice and expiry quantizes to the next slice edge
        report = analyze_query(self.make(policy="session:1.3",
                                         shedding="none"))
        assert report.ok, report.render()
        warnings = [
            d for d in report.diagnostics
            if d.code == "P132" and d.severity is Severity.WARNING
        ]
        assert warnings and "mid-slice" in warnings[0].message

    def test_session_gap_at_horizon_warns_degenerate(self):
        report = analyze_query(self.make(policy="session:12",
                                         shedding="none"))
        messages = [
            d.message for d in report.diagnostics if d.code == "P132"
        ]
        assert any("degenerates" in m for m in messages)

    def test_aligned_session_gap_is_clean(self):
        report = analyze_query(self.make(policy="session:2",
                                         shedding="none"))
        assert not [
            d for d in report.diagnostics if d.code == "P132"
        ], report.render()

    def test_graph_anti_node_with_edges_warns(self):
        g = DataflowGraph()
        join = MJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 1.0,
                             mode="anti")
        g.add_node("join", join)
        for i, src in enumerate(make_sources()):
            g.add_source("join", i, src)
        assert not analyze_graph(g).diagnostics  # terminal: nothing lost
        g.add_node("sink", FilterOperator(lambda v: True))
        g.connect("join", "sink", transform=to_tuple)
        report = analyze_graph(g)
        assert report.ok, report.render()
        (warning,) = report.diagnostics
        assert warning.code == "P130"
        assert warning.severity is Severity.WARNING
        assert "not forwarded" in warning.message

    def test_graph_session_node_warns_on_ragged_gap(self):
        from repro.streams.windows import SessionWindow

        g = DataflowGraph()
        join = MJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 1.0,
                             window_policy=SessionWindow(gap=1.3))
        g.add_node("join", join)
        for i, src in enumerate(make_sources()):
            g.add_source("join", i, src)
        report = analyze_graph(g)
        assert report.ok, report.render()
        assert any(d.code == "P132" for d in report.diagnostics)

    def test_shard_targets_off_turf_rejected(self):
        from repro.joins import EquiJoin
        from repro.parallel import build_sharded_graph

        def make_semi_shard(_k):
            return MJoinOperator(EquiJoin(), [10.0] * 3, 1.0,
                                 mode="semi")

        plan = build_sharded_graph(make_sources(), make_semi_shard, 2)
        report = analyze_graph(plan.graph)
        assert "P130" in error_codes(report)
        assert any(
            "inner-mode sliding-window" in d.message
            for d in report.errors if d.code == "P130"
        )

    def test_tumbling_shard_targets_rejected(self):
        from repro.joins import EquiJoin
        from repro.parallel import build_sharded_graph

        def make_shard(_k):
            return MJoinOperator(EquiJoin(), [10.0] * 3, 1.0,
                                 window_policy="tumbling")

        plan = build_sharded_graph(make_sources(), make_shard, 2)
        report = analyze_graph(plan.graph)
        assert "P130" in error_codes(report)


class TestPartitionIndexRule:
    """P133: the ``index=`` spec must agree with the predicate."""

    def make(self, predicate, spec, shedding="none"):
        return (
            Query()
            .streams(*make_sources())
            .window(10.0, basic=1.0)
            .join(predicate, shedding=shedding, index=spec)
        )

    def test_hash_on_equi_is_clean(self):
        from repro.joins import EquiJoin

        report = analyze_query(self.make(EquiJoin(), "hash"))
        assert report.ok, report.render()

    def test_range_and_adaptive_on_band_are_clean(self):
        for spec in ("range", "adaptive"):
            report = analyze_query(self.make(EpsilonJoin(1.0), spec))
            assert report.ok, report.render()

    def test_none_always_clean(self):
        from repro.joins import JaccardJoin

        assert analyze_query(self.make(JaccardJoin(0.5), None)).ok

    def test_hash_on_band_predicate_rejected(self):
        report = analyze_query(self.make(EpsilonJoin(1.0), "hash"))
        assert "P133" in error_codes(report)
        assert any(
            "equi" in d.message
            for d in report.errors if d.code == "P133"
        )

    def test_non_columnar_predicate_rejected(self):
        from repro.joins import JaccardJoin

        report = analyze_query(self.make(JaccardJoin(0.5), "adaptive"))
        assert "P133" in error_codes(report)
        assert any(
            "columnar" in d.message
            for d in report.errors if d.code == "P133"
        )

    def test_unknown_spec_rejected(self):
        from repro.joins import EquiJoin

        report = analyze_query(self.make(EquiJoin(), "btree"))
        assert "P133" in error_codes(report)

    def test_build_threads_spec_into_operator(self):
        from repro.joins import EquiJoin

        _graph, placeholder = self.make(EquiJoin(), "adaptive").build(
            capacity=10.0
        )
        assert placeholder.join_operator.index_spec == "adaptive"
        assert placeholder.join_operator.windex_states is not None

    def test_grubjoin_shedding_accepts_index(self):
        from repro.joins import EquiJoin

        query = self.make(EquiJoin(), "hash", shedding="grubjoin")
        report = analyze_query(query)
        assert report.ok, report.render()
        _graph, placeholder = query.build(capacity=10.0)
        assert placeholder.join_operator.index_spec == "hash"
