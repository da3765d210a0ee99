"""Plan rules P121 / P124 and the build-time shard-safety gate.

The bad plans here are the canonical sharding bugs: one window list
handed to every shard, an order-sensitive merger.  Each must be rejected
both by the plan analyzer (``analyze_graph``) and — where applicable —
by the build gate inside :func:`repro.parallel.build_sharded_graph`.
The other defects (globals, class attributes, the wall clock...) are
rows of ``tests/testkit/test_catch_matrix.py``.
"""

import pytest

from repro.engine.operator import ProcessReceipt, StreamOperator
from repro.joins import EquiJoin, MJoinOperator
from repro.lint.plan import PlanValidationError, analyze_graph
from repro.parallel import build_sharded_graph
from repro.parallel.sharded import certify_shard_operators
from repro.testkit.workloads import drift_sources

class SharedWindowJoin(StreamOperator):
    """Mutates a constructor-injected list: only safe if per-instance."""

    num_streams = 3

    def __init__(self, windows):
        self.windows = windows

    def process(self, tup, now):
        self.windows.append(tup)
        return ProcessReceipt(comparisons=1, outputs=[])


class OrderSensitiveMerger(StreamOperator):
    """Keeps arrival order as state: scheduling would leak into results."""

    num_streams = 1
    output_kind = "results"

    def __init__(self):
        self.seen = []

    def process(self, tup, now):
        self.seen.append(tup)
        return ProcessReceipt(comparisons=1, outputs=[tup])


def sources(m=3):
    return drift_sources(m=m, rate=30.0, seed=0)


def fresh_shard(_k):
    return MJoinOperator(EquiJoin(), [10.0] * 3, 1.0)


def error_codes(report):
    return {d.code for d in report.errors}


class TestGate:
    def test_good_shards_pass(self):
        certify_shard_operators([fresh_shard(0), fresh_shard(1)])

    def test_p124_rejects_aliased_mutable_state(self):
        shared = []
        with pytest.raises(PlanValidationError) as exc:
            certify_shard_operators([SharedWindowJoin(shared),
                                     SharedWindowJoin(shared)])
        message = str(exc.value)
        assert "P124" in message
        assert "windows" in message

    def test_per_instance_state_is_not_aliasing(self):
        certify_shard_operators([SharedWindowJoin([]),
                                 SharedWindowJoin([])])

    def test_shared_readonly_collaborator_is_allowed(self):
        # one predicate object across shards is fine: nobody mutates it
        predicate = EquiJoin()
        certify_shard_operators([
            MJoinOperator(predicate, [10.0] * 3, 1.0),
            MJoinOperator(predicate, [10.0] * 3, 1.0),
        ])

    def test_build_sharded_graph_runs_the_gate(self):
        with pytest.raises(PlanValidationError, match="P124"):
            build_sharded_graph(sources(), _sharing_windows(),
                                num_shards=2)

    def test_certify_false_skips_the_gate(self):
        plan = build_sharded_graph(sources(), _sharing_windows(),
                                   num_shards=2, certify=False)
        assert plan.num_shards == 2


class TestAnalyzerRules:
    def build(self, make_shard, num_shards=2):
        return build_sharded_graph(sources(), make_shard, num_shards,
                                   certify=False)

    def test_clean_sharded_plan_passes_shard_checks(self):
        report = analyze_graph(self.build(fresh_shard).graph)
        assert report.ok, report.render()

    def test_p124_from_analyzer(self):
        shared = []
        plan = self.build(lambda _k: SharedWindowJoin(shared))
        report = analyze_graph(plan.graph)
        assert "P124" in error_codes(report)

    def test_p121_rejects_order_sensitive_merger(self):
        plan = self.build(fresh_shard)
        plan.graph._nodes["merger"].operator = OrderSensitiveMerger()
        report = analyze_graph(plan.graph)
        assert "P121" in error_codes(report)

    def test_shard_checks_off_without_routing(self):
        from repro.engine.graph import DataflowGraph

        windows = []
        g = DataflowGraph()
        for name in ("a", "b"):
            g.add_node(name, SharedWindowJoin(windows))
            for i, src in enumerate(sources()):
                g.add_source(name, i, src)
        # no shard groups: the shard-safety checks do not run
        report = analyze_graph(g)
        assert "P124" not in error_codes(report)


def _sharing_windows():
    """A shard factory closing over one window list — the classic way a
    written object ends up shared by every shard."""
    windows = []
    return lambda _k: SharedWindowJoin(windows)


def _sharing_predicate():
    """A shard factory closing over one read-only predicate."""
    predicate = EquiJoin()
    return lambda _k: MJoinOperator(predicate, [10.0] * 3, 1.0)


def _via_analyzer(ops):
    plan = build_sharded_graph(sources(), lambda k: ops[k], len(ops),
                               certify=False)
    return [d.message for d in analyze_graph(plan.graph).errors
            if d.code == "P124"]


def _via_gate(ops):
    try:
        certify_shard_operators(ops)
    except PlanValidationError as exc:
        return [d.message for d in exc.report.errors if d.code == "P124"]
    return []


def _via_sanitizer(ops):
    from repro.testkit.sanitizer import DeterminismSanitizer

    sanitizer = DeterminismSanitizer()
    for k, op in enumerate(ops):
        sanitizer.register(f"shard{k}", op)
    sanitizer.seal()
    return [v for v in sanitizer.violations if v.startswith("aliasing")]


class TestOneGateThreeCallers:
    """analyze_graph, certify_shard_operators and the sanitizer's seal
    ask stategraph.shared_containers the same question, so they must name
    the same object and the same paths."""

    CALLERS = [_via_analyzer, _via_gate, _via_sanitizer]

    @pytest.mark.parametrize("caller", CALLERS)
    def test_shared_window_list_names_same_object_and_paths(self, caller):
        make_shard = _sharing_windows()
        messages = caller([make_shard(0), make_shard(1)])
        assert len(messages) == 1
        assert "one mutable list" in messages[0]
        assert "list shared at op[0].windows, op[1].windows" in messages[0]
        assert "shard0.windows, shard1.windows" in messages[0]

    @pytest.mark.parametrize("caller", CALLERS)
    def test_shared_readonly_predicate_passes(self, caller):
        make_shard = _sharing_predicate()
        assert caller([make_shard(0), make_shard(1)]) == []
