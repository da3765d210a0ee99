"""Static query-plan analyzer: the rule catch matrix, then the plan
tests that check more than which codes fire.

The catch matrix has one row for each public way a P-rule can fire,
and one for the declaration P105 used to catch, which ``Query.join``
refuses first.  Plans with no finding are the ``TestCleanPlans`` cases
below.  A row's plan is a ``Query`` (``q-`` rows), a ``DataflowGraph``
(``g-``) or the shard operators a process runtime is about to fork
(``w-``).  Columns:

ctor      the operator constructor, called directly with the row's
          arguments, raises ``ValueError`` (``n/a``: the row configures
          no constructor argument);
build     declaring the ``Query`` or calling ``Query.build()`` raises
          ``ValueError`` (``n/a`` for graph and shard rows);
errors,   the codes ``analyze_query`` (``q-``), ``analyze_graph``
warnings  (``g-``) or ``certify_shards(worker_entry=True)`` (``w-``)
          reports; ``not reached`` when the plan cannot be declared.

``EXPECTED`` is the table ``docs/STATIC_ANALYSIS.md`` prints.  A rule
whose every row also raises in ``ctor`` or ``build`` restates a check
the program makes anyway, so it must call the same definition (P100,
P104, P108, P131's grubjoin case, P133 do).
"""

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

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
from repro.joins import EquiJoin, InnerProductJoin, MJoinOperator
from repro.lint import Severity
from repro.lint.plan import (
    PlanValidationError,
    analyze_graph,
    analyze_query,
    certify_shards,
)
from repro.obs import Obs
from repro.parallel import (
    MergerOperator,
    RouterOperator,
    build_sharded_graph,
    shard_result_transform,
)
from repro.query import Query
from repro.streams import StreamTuple
from repro.testkit.workloads import drift_sources

DOC = Path(__file__).resolve().parents[2] / "docs" / "STATIC_ANALYSIS.md"


def make_sources(m=3, rate=30.0, seed=0):
    return drift_sources(m=m, rate=rate, seed=seed)


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
# the rule catch matrix
# --------------------------------------------------------------------------


def query(window=10.0, basic=1.0, policy=None, predicate=None,
          **join_kwargs):
    return (
        Query()
        .streams(*make_sources())
        .window(window, basic=basic, policy=policy)
        .join(predicate or EpsilonJoin(1.0), **join_kwargs)
    )


def stamped(q):
    """A scalar projection, so aggregate rows do not also fire P110."""
    return q.project(lambda r: r.timestamp)


def aggregate_query(function, window, slide):
    return stamped(query()).aggregate(function, window=window, slide=slide)


def mjoin(predicate=None, basic=1.0, **kwargs):
    return MJoinOperator(predicate or EpsilonJoin(1.0), [10.0] * 3, basic,
                         **kwargs)


def fed(op):
    """A graph with ``op`` as node ``op``, every input fed by a source."""
    g = DataflowGraph()
    g.add_node("op", op)
    sources = make_sources(m=getattr(op, "num_streams", 1))
    for i, source in enumerate(sources):
        g.add_source("op", i, source)
    return g


def feeding_sink(op):
    """``fed(op)`` with an edge from ``op`` into a filter."""
    g = fed(op)
    g.add_node("sink", FilterOperator(lambda v: True))
    g.connect("op", "sink", transform=to_tuple)
    return g


def cycle():
    g = DataflowGraph()
    g.add_node("a", MapOperator(lambda v: v))
    g.add_node("b", FilterOperator(lambda v: True))
    g.connect("a", "b")
    g.connect("b", "a")
    return g


def join_edge_without_transform():
    g = fed(mjoin())
    g.add_node("flt", FilterOperator(lambda v: True))
    g.connect("op", "flt")  # JoinResult needs a transform
    return g


def starved():
    g = DataflowGraph()
    g.add_node("flt", FilterOperator(lambda v: True))
    return g


def routed(num_shards=2, wired=2, filtered=True, merger=None,
           make_shard=lambda k: mjoin(EquiJoin())):
    """Router -> shards -> merger, wired through the public graph API the
    way ``build_sharded_graph`` wires it; ``wired`` shards get edges."""
    g = DataflowGraph()
    g.add_node("router", RouterOperator(num_streams=3,
                                        num_shards=num_shards))
    for s, source in enumerate(make_sources()):
        g.add_source("router", s, source)
    g.add_node("merger", merger or MergerOperator(num_shards))
    for k in range(wired):
        g.add_node(f"shard{k}", make_shard(k))
        for s in range(3):
            keep = (lambda r, k=k, s=s: r.shard == k
                    and r.tuple.stream == s) if filtered else None
            g.connect("router", f"shard{k}", target_input=s,
                      transform=lambda r: r.tuple, filter=keep)
        g.connect(f"shard{k}", "merger",
                  transform=shard_result_transform(k))
    return g


class LoggingJoin(MJoinOperator):
    """An equi-join holding a constructor-injected list."""

    def __init__(self, log):
        super().__init__(EquiJoin(), [10.0] * 3, 1.0)
        self.log = log


def sharing_shards():
    log = []
    return routed(make_shard=lambda k: LoggingJoin(log))


def obs_bound_before_fork():
    bound = mjoin(EquiJoin())
    bound.bind_obs(Obs())
    return [bound, mjoin(EquiJoin())]


def one_instance_two_workers():
    op = mjoin(EquiJoin())
    return [op, op]


@dataclass(frozen=True)
class Row:
    name: str
    plan: Callable[[], Any]
    ctor: Callable[[], Any] | None = None


ROWS = [
    # P100 — what Query.build refuses to assemble
    Row("q-empty", Query),
    Row("q-one-stream", lambda: Query().streams(*make_sources(m=1))
        .window(10.0, basic=1.0).join(EpsilonJoin(1.0))),
    Row("q-no-join", lambda: Query().streams(*make_sources())
        .window(10.0, basic=1.0)),
    # P103 — window divisibility
    Row("q-window-off-grid", lambda: query(basic=3.0),
        lambda: GrubJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 3.0)),
    Row("g-window-off-grid", lambda: fed(mjoin(basic=3.0)),
        lambda: mjoin(basic=3.0)),
    # P104 / P108 / P109 / P110 — aggregate stages
    Row("q-slide-over-window", lambda: aggregate_query("count", 2.0, 5.0),
        lambda: ThrottledAggregateOperator("count", 2.0, 5.0)),
    Row("q-slide-zero", lambda: aggregate_query("count", 2.0, 0.0),
        lambda: ThrottledAggregateOperator("count", 2.0, 0.0)),
    Row("g-slide-over-window",
        lambda: fed(ThrottledAggregateOperator("count", 2.0, 5.0)),
        lambda: ThrottledAggregateOperator("count", 2.0, 5.0)),
    Row("q-unknown-aggregate", lambda: aggregate_query("median", 5.0, 1.0),
        lambda: ThrottledAggregateOperator("median", 5.0, 1.0)),
    Row("q-ragged-aggregate", lambda: aggregate_query("count", 5.0, 2.0),
        lambda: ThrottledAggregateOperator("count", 5.0, 2.0)),
    Row("g-ragged-aggregate",
        lambda: fed(ThrottledAggregateOperator("count", 5.0, 2.0)),
        lambda: ThrottledAggregateOperator("count", 5.0, 2.0)),
    Row("q-default-projection",
        lambda: query().aggregate("count", window=5.0, slide=1.0)),
    # P101 / P102 / P107 — graph shape
    Row("g-cycle", cycle),
    Row("g-edge-without-transform", join_edge_without_transform),
    Row("g-starved-input", starved),
    # P111 / P121 / P124 / P126 — routed plans and worker entry
    Row("g-router-missing-target", lambda: routed(wired=1)),
    Row("g-router-unfiltered-edge", lambda: routed(filtered=False)),
    Row("g-merger-order-sensitive",
        lambda: routed(merger=MapOperator(lambda v: v))),
    Row("g-shards-share-list", sharing_shards),
    Row("w-one-instance-two-workers", one_instance_two_workers),
    Row("w-obs-bound-before-fork", obs_bound_before_fork),
    # P130 — mode placement
    Row("g-semi-shards",
        lambda: routed(make_shard=lambda k: mjoin(EquiJoin(), mode="semi"))),
    Row("g-tumbling-shards",
        lambda: routed(make_shard=lambda k: mjoin(
            EquiJoin(), window_policy="tumbling"))),
    Row("g-anti-with-edge", lambda: feeding_sink(mjoin(mode="anti")),
        lambda: mjoin(mode="anti")),
    Row("q-anti-with-stage",
        lambda: stamped(query(shedding="none", mode="anti"))
        .where(lambda v: True),
        lambda: mjoin(mode="anti")),
    # P131 — shedding soundness
    Row("q-anti-randomdrop", lambda: query(shedding="randomdrop",
                                           mode="anti"),
        lambda: mjoin(mode="anti")),
    Row("q-outer-grubjoin", lambda: query(mode="outer")),
    Row("q-semi-grubjoin", lambda: query(mode="semi")),
    Row("q-tumbling-grubjoin", lambda: query(policy="tumbling")),
    # P132 — session-gap geometry
    Row("q-session-gap-off-grid",
        lambda: query(policy="session:1.3", shedding="none"),
        lambda: mjoin(window_policy="session:1.3")),
    Row("q-session-gap-at-horizon",
        lambda: query(policy="session:12", shedding="none"),
        lambda: mjoin(window_policy="session:12")),
    Row("g-session-gap-off-grid",
        lambda: fed(mjoin(window_policy="session:1.3")),
        lambda: mjoin(window_policy="session:1.3")),
    # P133 — partition-index compatibility
    Row("q-hash-on-band", lambda: query(shedding="none", index="hash"),
        lambda: mjoin(index="hash")),
    Row("q-index-on-inner-product",
        lambda: query(predicate=InnerProductJoin(0.5), shedding="none",
                      index="adaptive"),
        lambda: mjoin(InnerProductJoin(0.5), index="adaptive")),
    Row("q-unknown-index",
        lambda: query(predicate=EquiJoin(), shedding="none",
                      index="btree"),
        lambda: mjoin(EquiJoin(), index="btree")),
    Row("g-hash-on-band", lambda: fed(mjoin(index="hash")),
        lambda: mjoin(index="hash")),
    Row("q-hash-on-band-off-grid",
        lambda: query(basic=3.0, shedding="none", index="hash"),
        lambda: mjoin(basic=3.0, index="hash")),
    # refused when declared: the P105 row (the policy list is Query.join's)
    Row("q-unknown-shedding", lambda: query(shedding="magic")),
]

#: row -> (ctor, build, errors, warnings); ``""`` means nothing raised
#: or nothing was reported
EXPECTED = {
    "q-empty": ("n/a", "raises", "P100", ""),
    "q-one-stream": ("n/a", "raises", "P100", ""),
    "q-no-join": ("n/a", "raises", "P100", ""),
    "q-window-off-grid": ("", "", "P103", ""),
    "g-window-off-grid": ("", "n/a", "P103", ""),
    "q-slide-over-window": ("raises", "raises", "P104", ""),
    "q-slide-zero": ("raises", "raises", "P104", ""),
    "g-slide-over-window": ("raises", "n/a", "not reached", "not reached"),
    "q-unknown-aggregate": ("raises", "raises", "P108", ""),
    "q-ragged-aggregate": ("", "", "", "P109"),
    "g-ragged-aggregate": ("", "n/a", "", "P109"),
    "q-default-projection": ("n/a", "", "P110", ""),
    "g-cycle": ("n/a", "n/a", "P101", ""),
    "g-edge-without-transform": ("n/a", "n/a", "P102", ""),
    "g-starved-input": ("n/a", "n/a", "", "P107"),
    "g-router-missing-target": ("n/a", "n/a", "P111", ""),
    "g-router-unfiltered-edge": ("n/a", "n/a", "P111", ""),
    "g-merger-order-sensitive": ("n/a", "n/a", "P121", ""),
    "g-shards-share-list": ("n/a", "n/a", "P124", ""),
    "w-one-instance-two-workers": ("n/a", "n/a", "P124", ""),
    "w-obs-bound-before-fork": ("n/a", "n/a", "P126", ""),
    "g-semi-shards": ("n/a", "n/a", "P130", ""),
    "g-tumbling-shards": ("n/a", "n/a", "P130", ""),
    "g-anti-with-edge": ("", "n/a", "", "P130"),
    "q-anti-with-stage": ("", "", "", "P130"),
    "q-anti-randomdrop": ("", "", "P131", ""),
    "q-outer-grubjoin": ("n/a", "raises", "P131", ""),
    "q-semi-grubjoin": ("n/a", "raises", "P131", ""),
    "q-tumbling-grubjoin": ("n/a", "raises", "P131", ""),
    "q-session-gap-off-grid": ("", "", "", "P132"),
    "q-session-gap-at-horizon": ("", "", "", "P132"),
    "g-session-gap-off-grid": ("", "n/a", "", "P132"),
    "q-hash-on-band": ("raises", "raises", "P133", ""),
    "q-index-on-inner-product": ("raises", "raises", "P133", ""),
    "q-unknown-index": ("raises", "raises", "P133", ""),
    "g-hash-on-band": ("raises", "n/a", "not reached", "not reached"),
    "q-hash-on-band-off-grid": ("raises", "raises", "P103,P133", ""),
    "q-unknown-shedding": ("n/a", "raises", "not reached", "not reached"),
}

COLUMNS = ("ctor", "build", "errors", "warnings")


def _raises(build):
    try:
        build()
    except ValueError:
        return "raises"
    return ""


def _codes(diagnostics):
    return ",".join(sorted({d.code for d in diagnostics}))


def cells(row):
    ctor = "n/a" if row.ctor is None else _raises(row.ctor)
    is_query = row.name.startswith("q-")
    try:
        plan = row.plan()
    except ValueError:
        return (ctor, "raises" if is_query else "n/a",
                "not reached", "not reached")
    if is_query:
        build = _raises(lambda: plan.build(capacity=1.0))
        report = analyze_query(plan)
    elif isinstance(plan, DataflowGraph):
        build, report = "n/a", analyze_graph(plan)
    else:
        build, report = "n/a", certify_shards(plan, worker_entry=True)
    return (ctor, build, _codes(report.errors), _codes(report.warnings))


def render(expected):
    """``expected`` as the markdown table ``docs/STATIC_ANALYSIS.md``
    prints (an empty cell shows as —)."""
    lines = ["| row | " + " | ".join(COLUMNS) + " |",
             "|-----|" + "----|" * len(COLUMNS)]
    for name, row_cells in expected.items():
        shown = [c.replace(",", ", ") or "—" for c in row_cells]
        lines.append("| " + " | ".join([name, *shown]) + " |")
    return "\n".join(lines)


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_rule_row(row):
    assert cells(row) == EXPECTED[row.name]


def test_docs_print_expected():
    assert list(EXPECTED) == [row.name for row in ROWS]
    assert render(EXPECTED) in DOC.read_text()


def test_every_documented_code_has_a_row():
    documented = set(re.findall(r"^\| (P1\d\d) \|", DOC.read_text(),
                                re.MULTILINE))
    caught = {code for row_cells in EXPECTED.values()
              for cell in row_cells[2:] for code in cell.split(",")}
    assert documented and documented <= caught


# --------------------------------------------------------------------------
# checks beyond the codes: messages, severities, one report, wiring
# --------------------------------------------------------------------------


class TestOtherChecks:
    def test_warnings_reported_once(self):
        # a warning leaves the report ok, so the graph pass runs too; it
        # must not derive the per-stage findings a second time
        def declared(**window):
            sources = drift_sources(m=3, rate=10.0, seed=0, lags=[0, 1, 2])
            return Query().streams(*sources).window(10.0, basic=2.0,
                                                    **window)

        session = declared(policy="session:3.0").join(EpsilonJoin(1.0),
                                                      shedding="none")
        ragged = (
            declared().join(EpsilonJoin(1.0), shedding="none")
            .project(lambda r: 1.0)
            .aggregate("count", window=5.0, slide=2.0)
        )
        for q, code in ((session, "P132"), (ragged, "P109")):
            report = q.validate()
            assert report.ok
            assert [d.code for d in report.diagnostics] == [code]

    def test_aggregate_without_projection_rejected(self):
        # the default projection emits tuple-of-values payloads, which
        # the numeric aggregate window cannot store
        q = query().aggregate("count", window=5.0, slide=1.0)
        report = analyze_query(q)
        assert "P110" in error_codes(report)
        # a scalar select before the aggregate silences it ...
        q2 = (
            query()
            .select(lambda v: max(v))
            .aggregate("count", window=5.0, slide=1.0)
        )
        assert "P110" not in error_codes(analyze_query(q2))
        # ... as does an explicit projection
        q3 = (
            query()
            .project(lambda r: r.timestamp)
            .aggregate("count", window=5.0, slide=1.0)
        )
        assert "P110" not in error_codes(analyze_query(q3))

    def test_all_problems_reported_at_once(self):
        q = (
            query(window=10.0, basic=3.0)
            .aggregate("median", window=2.0, slide=5.0)
        )
        report = analyze_query(q)
        assert {"P103", "P104", "P108"} <= error_codes(report)

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
        q = query(window=10.0, basic=3.0)
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
            query()
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

    def test_randomdrop_and_none_policies_validate(self):
        for policy in ("randomdrop", "none"):
            report = analyze_query(query(shedding=policy))
            assert report.ok, report.render()


class TestRouterFanout:
    """P111: routed fan-out must cover every shard, with filters."""

    def make_plan(self, num_shards=2):
        def make_shard(_k):
            return MJoinOperator(EquiJoin(), [10.0] * 3, 1.0)

        return build_sharded_graph(make_sources(), make_shard, num_shards)

    def test_wellformed_sharded_plan_validates(self):
        report = analyze_graph(self.make_plan().graph)
        assert report.ok, report.render()
        assert not [d for d in report.diagnostics if d.code == "P111"]

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
        report = analyze_query(self.make(EquiJoin(), "hash"))
        assert report.ok, report.render()

    def test_range_and_adaptive_on_band_are_clean(self):
        for spec in ("range", "adaptive"):
            report = analyze_query(self.make(EpsilonJoin(1.0), spec))
            assert report.ok, report.render()

    def test_none_always_clean(self):
        assert analyze_query(self.make(InnerProductJoin(0.5), None)).ok

    def test_hash_on_band_predicate_rejected(self):
        report = analyze_query(self.make(EpsilonJoin(1.0), "hash"))
        assert "P133" in error_codes(report)
        assert any(
            "equi" in d.message
            for d in report.errors if d.code == "P133"
        )

    def test_non_columnar_predicate_rejected(self):
        report = analyze_query(self.make(InnerProductJoin(0.5), "adaptive"))
        assert "P133" in error_codes(report)
        assert any(
            "columnar" in d.message
            for d in report.errors if d.code == "P133"
        )

    def test_build_threads_spec_into_operator(self):
        _graph, placeholder = self.make(EquiJoin(), "adaptive").build(
            capacity=10.0
        )
        assert placeholder.join_operator.index_spec == "adaptive"
        assert placeholder.join_operator.windex_states is not None

    def test_grubjoin_shedding_accepts_index(self):
        query = self.make(EquiJoin(), "hash", shedding="grubjoin")
        report = analyze_query(query)
        assert report.ok, report.render()
        _graph, placeholder = query.build(capacity=10.0)
        assert placeholder.join_operator.index_spec == "hash"
