"""The scenario library: grid completeness, oracle mode algebra, and the
mode x window differential proof on a fast subset."""

import pytest

from repro.joins.variants import JoinMode
from repro.testkit import (
    build_scenarios,
    indexed_ids,
    mjoin_ids,
    oracle_ids,
    oracle_join,
    scenario_names,
    scenario_workload,
)
from repro.testkit.workloads import drift_workload

MODES = ("inner", "semi", "anti", "outer")
POLICIES = ("sliding", "tumbling", "session")


class TestGrid:
    def test_grid_is_complete(self):
        names = scenario_names()
        for mode in MODES:
            for policy in POLICIES:
                matching = [
                    n for n in names
                    if n.startswith(f"sc-{mode}-{policy}-")
                ]
                assert len(matching) == 1, (mode, policy, names)

    def test_workload_carries_its_cell(self):
        w = scenario_workload("sc-anti-tumbling-keys")
        assert w.name == "sc-anti-tumbling-keys"
        assert w.mode is JoinMode.ANTI
        assert w.policy.name == "tumbling"
        assert w.tags["mode"] == "anti"
        assert w.tags["window"] == "tumbling"

    def test_seeds_are_distinct(self):
        seeds = {scenario_workload(n).seed for n in scenario_names()}
        assert len(seeds) == len(scenario_names())

    def test_build_scenarios_patterns(self):
        inner = build_scenarios(["sc-inner-*"])
        assert [w.name for w in inner] == sorted(w.name for w in inner)
        assert all(w.mode is JoinMode.INNER for w in inner)
        assert len(build_scenarios(["*"])) >= 12

    def test_unmatched_pattern_raises(self):
        with pytest.raises(ValueError, match="matches nothing"):
            build_scenarios(["sc-crossjoin-*"])

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            scenario_workload("sc-nope")

    def test_builds_are_deterministic(self):
        a = scenario_workload("sc-semi-session-keys")
        b = scenario_workload("sc-semi-session-keys")
        assert a.tuple_count() == b.tuple_count()
        assert oracle_ids(a).ids == oracle_ids(b).ids


class TestOracleModeAlgebra:
    @pytest.fixture(scope="class")
    def base(self):
        return drift_workload(17, rate=3.0, duration=6.0, basic=0.5)

    def _ids(self, w, mode, policy=None):
        return oracle_join(
            w.traces, w.predicate, w.window_sizes, w.basic,
            mode=mode, window_policy=policy,
        ).id_set

    def test_semi_is_matched_universe(self, base):
        inner = self._ids(base, "inner")
        semi = self._ids(base, "semi")
        matched = {ident for vector in inner for ident in vector}
        assert semi == {(ident,) for ident in matched}

    def test_anti_is_unmatched_universe(self, base):
        semi = self._ids(base, "semi")
        anti = self._ids(base, "anti")
        universe = {
            ((t.stream, t.seq),)
            for trace in base.traces for t in trace.tuples
        }
        assert semi | anti == universe
        assert not semi & anti

    def test_outer_is_inner_union_anti(self, base):
        assert (
            self._ids(base, "outer")
            == self._ids(base, "inner") | self._ids(base, "anti")
        )

    def test_policy_restricts_inner(self, base):
        sliding = self._ids(base, "inner")
        for policy in ("tumbling", "session:1.5"):
            assert self._ids(base, "inner", policy) <= sliding

    def test_result_records_mode_and_policy(self, base):
        res = oracle_join(
            base.traces, base.predicate, base.window_sizes, base.basic,
            mode="anti", window_policy="session:1.5",
        )
        assert res.mode == "anti"
        assert res.window_policy == "session"


class TestDifferentialProof:
    # one cell per mode (policies vary with the grid layout) — the full
    # 12-cell battery runs in CI's scenario-matrix job
    @pytest.mark.parametrize("name", [
        "sc-semi-tumbling-drift",
        "sc-anti-session-drift",
        "sc-outer-sliding-keys",
    ])
    def test_engines_match_oracle(self, name):
        w = scenario_workload(name)
        reference = oracle_ids(w).id_set
        assert set(mjoin_ids(w)) == reference
        assert set(indexed_ids(w)) == reference
