"""Static query-plan analyzer: the rule catch matrix, then the plan
tests that check more than which codes fire.

The catch matrix has one row for each public way a P-rule can fire.
Plans with no finding are the ``TestCleanPlans`` cases below.  A row's
plan is a ``DataflowGraph`` (``g-`` rows) or the shard operators a
process runtime is about to fork (``w-``).  Columns:

ctor      the operator constructor, called directly with the row's
          arguments, raises ``ValueError`` (``n/a``: the row configures
          no constructor argument);
errors,   the codes ``analyze_graph`` (``g-``) or
warnings  ``certify_shards(worker_entry=True)`` (``w-``) reports;
          ``not reached`` when the constructor refuses the plan.

``EXPECTED`` is the table ``docs/STATIC_ANALYSIS.md`` prints.  A rule
the constructor enforces (P104 and P108 in ``aggregate_errors``, P133
in ``check_index_compat``) has no analyzer code: its row reads ``not
reached``.
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
from repro.joins import (
    EquiJoin,
    InnerProductJoin,
    MJoinOperator,
    RandomDropShedder,
)
from repro.lint import Severity
from repro.lint.plan import (
    PlanValidationError,
    analyze_graph,
    certify_shards,
)
from repro.obs import Obs
from repro.parallel import (
    MergerOperator,
    RouterOperator,
    build_sharded_graph,
    shard_result_transform,
)
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


def mjoin(predicate=None, basic=1.0, **kwargs):
    return MJoinOperator(predicate or EpsilonJoin(1.0), [10.0] * 3, basic,
                         **kwargs)


def fed(op, admission=None):
    """A graph with ``op`` as node ``op``, every input fed by a source."""
    g = DataflowGraph()
    g.add_node("op", op, admission=admission)
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


def randomdrop(op):
    """``fed(op)`` behind RandomDrop's admission filters."""
    return fed(op, admission=RandomDropShedder(op, 1e6).filters)


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
    # P103 — window divisibility
    Row("g-window-off-grid", lambda: fed(mjoin(basic=3.0)),
        lambda: mjoin(basic=3.0)),
    # P104 / P109 — aggregate stages
    Row("g-slide-over-window",
        lambda: fed(ThrottledAggregateOperator("count", 2.0, 5.0)),
        lambda: ThrottledAggregateOperator("count", 2.0, 5.0)),
    Row("g-ragged-aggregate",
        lambda: fed(ThrottledAggregateOperator("count", 5.0, 2.0)),
        lambda: ThrottledAggregateOperator("count", 5.0, 2.0)),
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
    # P131 — shedding soundness
    Row("g-anti-randomdrop", lambda: randomdrop(mjoin(mode="anti")),
        lambda: mjoin(mode="anti")),
    # P132 — session-gap geometry
    Row("g-session-gap-off-grid",
        lambda: fed(mjoin(window_policy="session:1.3")),
        lambda: mjoin(window_policy="session:1.3")),
    # P133 — partition-index compatibility
    Row("g-hash-on-band", lambda: fed(mjoin(index="hash")),
        lambda: mjoin(index="hash")),
]

#: row -> (ctor, errors, warnings); ``""`` means nothing raised or
#: nothing was reported
EXPECTED = {
    "g-window-off-grid": ("", "P103", ""),
    "g-slide-over-window": ("raises", "not reached", "not reached"),
    "g-ragged-aggregate": ("", "", "P109"),
    "g-cycle": ("n/a", "P101", ""),
    "g-edge-without-transform": ("n/a", "P102", ""),
    "g-starved-input": ("n/a", "", "P107"),
    "g-router-missing-target": ("n/a", "P111", ""),
    "g-router-unfiltered-edge": ("n/a", "P111", ""),
    "g-merger-order-sensitive": ("n/a", "P121", ""),
    "g-shards-share-list": ("n/a", "P124", ""),
    "w-one-instance-two-workers": ("n/a", "P124", ""),
    "w-obs-bound-before-fork": ("n/a", "P126", ""),
    "g-semi-shards": ("n/a", "P130", ""),
    "g-tumbling-shards": ("n/a", "P130", ""),
    "g-anti-with-edge": ("", "", "P130"),
    "g-anti-randomdrop": ("", "P131", ""),
    "g-session-gap-off-grid": ("", "", "P132"),
    "g-hash-on-band": ("raises", "not reached", "not reached"),
}

COLUMNS = ("ctor", "errors", "warnings")


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
    try:
        plan = row.plan()
    except ValueError:
        return (ctor, "not reached", "not reached")
    if isinstance(plan, DataflowGraph):
        report = analyze_graph(plan)
    else:
        report = certify_shards(plan, worker_entry=True)
    return (ctor, _codes(report.errors), _codes(report.warnings))


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
              for cell in row_cells[1:] for code in cell.split(",")}
    assert documented and documented <= caught


# --------------------------------------------------------------------------
# checks beyond the codes: messages, severities, one report, wiring
# --------------------------------------------------------------------------


class TestOtherChecks:
    def test_warnings_reported_once(self):
        # a warning leaves the report ok, and every finding is derived
        # once: one node, one code
        session = fed(MJoinOperator(
            EpsilonJoin(1.0), [10.0] * 3, 2.0, window_policy="session:3.0"))
        ragged = fed(MJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 2.0))
        ragged.add_node("rate", ThrottledAggregateOperator(
            "count", window_size=5.0, slide=2.0))
        ragged.connect("op", "rate", transform=to_tuple)
        for g, code in ((session, "P132"), (ragged, "P109")):
            report = analyze_graph(g)
            assert report.ok
            assert [d.code for d in report.diagnostics] == [code]

    def test_all_problems_reported_at_once(self):
        g = join_edge_without_transform()
        g.add_node("late", mjoin(basic=3.0))
        g.add_node("a", MapOperator(lambda v: v))
        g.add_node("b", MapOperator(lambda v: v))
        g.connect("a", "b")
        g.connect("b", "a")
        report = analyze_graph(g)
        assert {"P101", "P102", "P103"} <= error_codes(report)

# --------------------------------------------------------------------------
# wiring: DataflowGraph.run
# --------------------------------------------------------------------------


class TestRunValidation:
    def test_graph_run_validate_off_still_executes(self):
        g = fed(GrubJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 3.0,
                                        rng=0))
        result = g.run(
            CpuModel(1e9),
            SimulationConfig(duration=4.0, warmup=1.0,
                             adaptation_interval=2.0),
            validate=False,
        )
        assert result.nodes["op"].output_count > 0

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
        g = fed(mjoin(basic=3.0))
        try:
            g.run(CpuModel(1e6), SimulationConfig(duration=1.0, warmup=0.0))
        except PlanValidationError as exc:
            assert "P103" in str(exc)
            assert exc.report.errors
        else:  # pragma: no cover
            pytest.fail("expected PlanValidationError")


# --------------------------------------------------------------------------
# clean plans: the example-shaped workloads must pass
# --------------------------------------------------------------------------


class TestCleanPlans:
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
        g = fed(GrubJoinOperator(EpsilonJoin(1.0), [20.0] * 3, 2.0,
                                        rng=7))
        report = analyze_graph(g)
        assert report.ok, report.render()

    def test_randomdrop_and_none_policies_validate(self):
        for drop in (True, False):
            op = mjoin()
            g = randomdrop(op) if drop else fed(op)
            report = analyze_graph(g)
            assert not report.diagnostics, report.render()


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

    def make(self, mode="inner", policy=None, drop=False):
        op = mjoin(mode=mode, window_policy=policy)
        return randomdrop(op) if drop else fed(op)

    def test_anti_and_outer_queries_validate_clean(self):
        # every host performs the end-of-run survivor flush, so a bare
        # anti/outer join is an ordinary plan
        for mode in ("anti", "outer"):
            report = analyze_graph(self.make(mode=mode))
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

            def join():
                return MJoinOperator(w.predicate, w.window_sizes, w.basic,
                                     mode=mode)

            sim = Simulation(w.traces, join(), CpuModel(UNBOUNDED_CAPACITY),
                             cfg).run()
            g = DataflowGraph()
            g.add_node("join", join())
            for i, trace in enumerate(w.traces):
                g.add_source("join", i, trace)
            graph = g.run(CpuModel(UNBOUNDED_CAPACITY), cfg)
            joined = graph.nodes["join"].output_count
            assert joined == sim.output_count_total > 0, mode
            assert joined == len(oracle_ids(w).ids), mode

    def test_shedding_with_anti_join_is_unsound(self):
        report = analyze_graph(self.make(mode="anti", drop=True))
        assert error_codes(report) == {"P131"}
        assert any(
            "invent" in d.message
            for d in report.errors if d.code == "P131"
        )

    def test_grubjoin_off_turf_build_raises(self):
        # the harvest algebra speaks inner-mode sliding windows only, so
        # GrubJoin takes neither a mode nor a window policy
        for off_turf in ({"mode": "semi"}, {"window_policy": "tumbling"}):
            with pytest.raises(TypeError):
                GrubJoinOperator(EpsilonJoin(1.0), [10.0] * 3, 1.0,
                                 **off_turf)

    def test_semi_with_randomdrop_validates(self):
        report = analyze_graph(self.make(mode="semi", drop=True))
        assert report.ok, report.render()

    def test_session_gap_off_grid_warns(self):
        # gap 1.3 is not a multiple of b=1: session boundaries land
        # mid-slice and expiry quantizes to the next slice edge
        report = analyze_graph(self.make(policy="session:1.3"))
        assert report.ok, report.render()
        warnings = [
            d for d in report.diagnostics
            if d.code == "P132" and d.severity is Severity.WARNING
        ]
        assert warnings and "mid-slice" in warnings[0].message

    def test_session_gap_at_horizon_warns_degenerate(self):
        report = analyze_graph(self.make(policy="session:12"))
        messages = [
            d.message for d in report.diagnostics if d.code == "P132"
        ]
        assert any("degenerates" in m for m in messages)

    def test_aligned_session_gap_is_clean(self):
        report = analyze_graph(self.make(policy="session:2"))
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
    """P133: the constructor refuses an ``index=`` spec the predicate
    cannot serve, so every graph the analyzer sees has a valid one."""

    def test_hash_on_equi_is_clean(self):
        report = analyze_graph(fed(mjoin(EquiJoin(), index="hash")))
        assert report.ok, report.render()

    def test_range_and_adaptive_on_band_are_clean(self):
        for spec in ("range", "adaptive"):
            report = analyze_graph(fed(mjoin(EpsilonJoin(1.0), index=spec)))
            assert report.ok, report.render()

    def test_none_always_clean(self):
        assert analyze_graph(fed(mjoin(InnerProductJoin(0.5)))).ok

    def test_hash_on_band_predicate_rejected(self):
        with pytest.raises(ValueError, match="equi"):
            mjoin(EpsilonJoin(1.0), index="hash")

    def test_non_columnar_predicate_rejected(self):
        with pytest.raises(ValueError, match="columnar"):
            mjoin(InnerProductJoin(0.5), index="adaptive")

    def test_build_threads_spec_into_operator(self):
        op = mjoin(EquiJoin(), index="adaptive")
        assert op.index_spec == "adaptive"
        assert op.windex_states is not None

    def test_grubjoin_shedding_accepts_index(self):
        op = GrubJoinOperator(EquiJoin(), [10.0] * 3, 1.0, index="hash")
        report = analyze_graph(fed(op))
        assert report.ok, report.render()
        assert op.index_spec == "hash"
