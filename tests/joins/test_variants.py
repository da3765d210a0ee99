"""Tests for join-mode variants (inner/semi/anti/outer) and ModeState."""

import pytest

from repro.engine import CpuModel, Simulation
from repro.joins import EpsilonJoin, EquiJoin, IndexedMJoin, MJoinOperator
from repro.joins.columnar import run_pipeline_columnar
from repro.joins.variants import SHEDDABLE_MODES, JoinMode, ModeState
from repro.streams.tuples import JoinResult, StreamTuple
from repro.testkit import key_workload, oracle_ids, run_config


def tup(stream, seq, ts, value=0.0):
    return StreamTuple(value=value, timestamp=ts, stream=stream, seq=seq)


def ids(results):
    return sorted(
        (t.stream, t.seq) for r in results for t in r.constituents
    )


class TestJoinMode:
    def test_string_coercion(self):
        assert JoinMode("semi") is JoinMode.SEMI
        assert JoinMode(JoinMode.ANTI) is JoinMode.ANTI
        with pytest.raises(ValueError):
            JoinMode("full")

    def test_values_are_labels(self):
        assert [m.value for m in JoinMode] == [
            "inner", "semi", "anti", "outer",
        ]

    def test_sheddable_modes(self):
        assert SHEDDABLE_MODES == (JoinMode.INNER, JoinMode.SEMI)


class TestModeState:
    def test_inner_rejected(self):
        with pytest.raises(ValueError):
            ModeState(JoinMode.INNER, [4.0, 4.0])

    def test_semi_emits_each_identity_once(self):
        ms = ModeState("semi", [4.0, 4.0])
        a, b = tup(0, 0, 1.0), tup(1, 0, 1.2)
        out = ms.observe(b, [JoinResult((a, b))], now=1.2)
        assert all(len(r.constituents) == 1 for r in out)
        assert ids(out) == [(0, 0), (1, 0)]
        # the same identities matching again add nothing
        assert ms.observe(b, [JoinResult((a, b))], now=1.3) == []

    def test_anti_emits_at_expiry_only(self):
        ms = ModeState("anti", [2.0, 2.0])
        a = tup(0, 0, 1.0)
        assert ms.observe(a, [], now=1.0) == []  # still matchable
        # a's matchable lifetime ends at 3.0; the next probe after that
        # instant triggers its survivor emission
        out = ms.observe(tup(1, 0, 3.5), [], now=3.5)
        assert ids(out) == [(0, 0)]

    def test_anti_matched_tuples_never_surface(self):
        ms = ModeState("anti", [2.0, 2.0])
        a, b = tup(0, 0, 1.0), tup(1, 0, 1.2)
        assert ms.observe(b, [JoinResult((a, b))], now=1.2) == []
        assert ms.flush(10.0) == []

    def test_flush_drains_unexpired_survivors(self):
        ms = ModeState("anti", [2.0, 2.0])
        ms.observe(tup(0, 0, 1.0), [], now=1.0)
        ms.observe(tup(1, 0, 1.5), [], now=1.5)
        out = ms.flush(3.2)  # 1.0 expired (3.0 <= 3.2), 1.5 not yet
        assert ids(out) == [(0, 0), (1, 0)]
        assert ms.flush(99.0) == []  # nothing left

    def test_duplicate_delivery_is_idempotent(self):
        ms = ModeState("anti", [2.0, 2.0])
        a = tup(0, 0, 1.0)
        ms.observe(a, [], now=1.0)
        ms.observe(a, [], now=1.1)  # at-least-once redelivery
        assert ids(ms.flush(10.0)) == [(0, 0)]

    def test_outer_is_inner_plus_survivors(self):
        ms = ModeState("outer", [2.0, 2.0])
        a, b = tup(0, 0, 1.0), tup(1, 0, 1.2)
        inner = [JoinResult((a, b))]
        out = ms.observe(b, inner, now=1.2)
        assert out == inner  # passthrough while everything matches
        ms.observe(tup(0, 1, 2.0), [], now=2.0)
        out = ms.flush(10.0)
        assert ids(out) == [(0, 1)]  # only the unmatched survivor


class TestOperatorIntegration:
    def make(self, cls, **kwargs):
        return cls(EpsilonJoin(1.0), [4.0] * 3, 1.0, **kwargs)

    def test_kernel_follows_predicate_in_every_mode_and_policy(self):
        for kwargs in (
            {"mode": "anti"},
            {"mode": "outer"},
            {"window_policy": "tumbling"},
            {"mode": "semi", "window_policy": "session:1.5"},
        ):
            op = self.make(MJoinOperator, **kwargs)
            assert op._kernel is run_pipeline_columnar, kwargs

    def test_semi_mode_hash_index_equals_oracle(self):
        # regression: a non-inner mode used to pin the reference
        # pipeline, which made any index= spec fail at construction
        # citing a kernel option the caller never passed
        workload = key_workload(5, n_keys=8)
        workload.mode = JoinMode.SEMI
        op = MJoinOperator(EquiJoin(), workload.window_sizes,
                           workload.basic, mode="semi", index="hash")
        for state in op.windex_states:
            # the frozen workload's basic windows hold ~12 rows; build
            # tables anyway so the probe really goes through the index
            state.min_index_rows = 4
        sim = Simulation(workload.traces, op, CpuModel(1e12),
                         run_config(workload), retain_outputs=True)
        sim.run()
        observed = {r.key() for r in sim.output_buffer.results}
        assert observed == oracle_ids(workload).id_set
        assert sum(s.rows_pruned for s in op.windex_states) > 0

    def test_profile_reports_mode_and_policy(self):
        for cls in (MJoinOperator, IndexedMJoin):
            op = self.make(cls, mode="semi",
                           window_policy="session:1.5")
            profile = op.testkit_profile()
            assert profile["mode"] == "semi"
            assert profile["window_policy"] == "session"

    def test_inner_default_has_no_mode_state(self):
        for cls in (MJoinOperator, IndexedMJoin):
            op = self.make(cls)
            assert op.mode is JoinMode.INNER
            assert op.window_policy.is_sliding
            assert op.on_finish(10.0) == []

    def test_anti_operator_flushes_on_finish(self):
        op = self.make(MJoinOperator, mode="anti")
        t = tup(0, 0, 1.0, value=100.0)
        op.process(t, now=1.0)
        flushed = op.on_finish(10.0)
        assert ids(flushed) == [(0, 0)]
