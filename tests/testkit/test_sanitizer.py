"""Determinism sanitizer: clean runs stay green, seeded bugs get blamed.

These tests prove the runtime check (a) accepts the real engine on real
workloads and (b) rejects seeded violations with provenance precise
enough to debug from — the victim path and the operators that ran in
between, or the module or class binding that changed.
"""

import sys
from collections import deque

import pytest

from repro.engine.operator import ProcessReceipt, StreamOperator
from repro.joins import EquiJoin, MJoinOperator
from repro.testkit.differential import (
    grubjoin_ids,
    mjoin_ids,
    oracle_ids,
    sharded_ids,
)
from repro.testkit.sanitizer import (
    DeterminismSanitizer,
    DeterminismViolation,
    SanitizedOperator,
)
from repro.testkit.workloads import drift_workload, key_workload


@pytest.fixture(scope="module")
def keys():
    return key_workload(seed=1)


@pytest.fixture(scope="module")
def drift():
    return drift_workload(seed=1)


def fresh_join(workload):
    return MJoinOperator(
        workload.predicate, workload.window_sizes, workload.basic
    )


class Passive(StreamOperator):
    """Writes nothing itself; the test writes to it between calls."""

    num_streams = 3

    def process(self, tup, now):
        return ProcessReceipt(comparisons=1, outputs=[])


TALLY = {}


class TallyJoin(MJoinOperator):
    """Counts tuples in a global of this module."""

    def process(self, tup, now):
        TALLY[tup.stream] = TALLY.get(tup.stream, 0) + 1
        return super().process(tup, now)


class PlainJoin(MJoinOperator):
    """Writes only its own state."""


class CachingJoin(MJoinOperator):
    """Caches into a dict every instance shares through the class."""

    seen = {}

    def process(self, tup, now):
        self.seen[(tup.stream, tup.seq)] = tup.value
        return super().process(tup, now)


class TestCleanRuns:
    def test_mjoin_green_and_identical_output(self, drift):
        assert mjoin_ids(drift, sanitize=True) == \
            mjoin_ids(drift, sanitize=False)

    def test_grubjoin_green(self, drift):
        ids = grubjoin_ids(drift, pin_z=0.5, sanitize=True)
        assert ids <= oracle_ids(drift).id_set

    def test_sharded_green_and_identical_output(self, keys):
        assert sharded_ids(keys, 2, sanitize=True) == \
            sharded_ids(keys, 2, sanitize=False)

    def test_stride_one_exhaustive_mode_green(self, keys):
        san = DeterminismSanitizer(stride=1)
        op = san.wrap("op", fresh_join(keys))
        for trace in keys.traces:
            for tup in trace.tuples[:30]:
                op.process(tup, tup.timestamp)
        san.finish()


class TestProxy:
    def test_wrap_copies_operator_shape(self, keys):
        san = DeterminismSanitizer()
        inner = fresh_join(keys)
        proxy = san.wrap("op", inner)
        assert isinstance(proxy, SanitizedOperator)
        assert proxy.num_streams == inner.num_streams
        assert proxy.output_kind == inner.output_kind

    def test_state_queries_fall_through(self, keys):
        san = DeterminismSanitizer()
        inner = fresh_join(keys)
        proxy = san.wrap("op", inner)
        assert proxy.testkit_profile() == inner.testkit_profile()
        assert "Sanitized(" in proxy.describe()

    def test_duplicate_label_rejected(self, keys):
        san = DeterminismSanitizer()
        san.register("op", fresh_join(keys))
        with pytest.raises(ValueError):
            san.register("op", fresh_join(keys))

    def test_register_after_seal_rejected(self, keys):
        san = DeterminismSanitizer()
        san.register("op", fresh_join(keys))
        san.seal()
        with pytest.raises(RuntimeError):
            san.register("late", fresh_join(keys))


class TestSeededViolations:
    def _two_shards(self, workload, stride=1):
        san = DeterminismSanitizer(stride=stride)
        a, b = fresh_join(workload), fresh_join(workload)
        wa, wb = san.wrap("shard0", a), san.wrap("shard1", b)
        san.seal()
        tups = [t for trace in workload.traces for t in trace.tuples]
        for i, t in enumerate(tups[:20]):
            (wa if i % 2 == 0 else wb).process(t, t.timestamp)
        return san, a, b, wa, wb, tups

    def test_cross_shard_write_caught_with_provenance(self, keys):
        san, _a, b, _wa, wb, tups = self._two_shards(keys)
        # the seeded bug: "shard0" writes shard1's window behind its back
        b.windows[0].frozen_version += 1
        with pytest.raises(DeterminismViolation) as exc:
            wb.process(tups[20], tups[20].timestamp)
            san.finish()
        message = str(exc.value)
        assert "foreign write" in message
        assert "shard1.windows" in message       # the victim path
        assert "shard0" in message               # the suspect

    def test_violation_surfaces_at_finish_too(self, keys):
        san, _a, b, _wa, _wb, _tups = self._two_shards(keys)
        b.windows[0].frozen_version += 1
        with pytest.raises(DeterminismViolation):
            san.finish()

    def test_aliased_window_caught_at_seal(self, keys):
        san = DeterminismSanitizer(stride=1)
        shared = fresh_join(keys)
        san.register("shard0", shared)
        other = fresh_join(keys)
        other.windows = shared.windows  # the classic factory bug
        san.register("shard1", other)
        san.seal()
        with pytest.raises(DeterminismViolation) as exc:
            san.raise_for_violations()
        assert "aliasing" in str(exc.value)

    def test_shared_readonly_predicate_is_not_aliasing(self, keys):
        san = DeterminismSanitizer(stride=1)
        predicate = EquiJoin()
        san.register("shard0", MJoinOperator(
            predicate, keys.window_sizes, keys.basic))
        san.register("shard1", MJoinOperator(
            predicate, keys.window_sizes, keys.basic))
        san.seal()
        san.raise_for_violations()

    def test_write_between_calls_is_foreign(self, keys):
        op = Passive()
        san = DeterminismSanitizer(stride=1)
        proxy = san.wrap("op", op)
        san.seal()
        tup = keys.traces[0].tuples[0]
        proxy.process(tup, tup.timestamp)
        # state that grows while the operator is not running
        op.cache = [1, 2, 3]
        proxy.process(tup, tup.timestamp + 0.001)
        with pytest.raises(DeterminismViolation) as exc:
            san.raise_for_violations()
        assert "foreign write" in str(exc.value)
        assert "op.cache" in str(exc.value)

    def test_foreign_deque_append_caught(self, keys):
        op = Passive()
        op.recent = deque([1])
        san = DeterminismSanitizer(stride=1)
        proxy = san.wrap("op", op)
        san.seal()
        tup = keys.traces[0].tuples[0]
        proxy.process(tup, tup.timestamp)
        op.recent.append(2)
        proxy.process(tup, tup.timestamp + 0.001)
        with pytest.raises(DeterminismViolation) as exc:
            san.raise_for_violations()
        assert "foreign write" in str(exc.value)
        assert "op.recent" in str(exc.value)

    def test_foreign_write_past_row_63_caught(self, keys):
        # a store column's fingerprint covers its whole buffer, not the
        # first 512 bytes (64 float64 rows)
        san = DeterminismSanitizer(stride=1)
        op = fresh_join(keys)
        proxy = san.wrap("op", op)
        san.seal()
        window = op.windows[0]
        tups = sorted((t for trace in keys.traces for t in trace.tuples),
                      key=lambda t: t.timestamp)
        for t in tups:
            proxy.process(t, t.timestamp)
            if window.live_rows[1] >= 100:
                break
        head, tail = window.live_rows
        assert tail - 5 >= max(head, 64)
        window._vals[tail - 5] += 1
        with pytest.raises(DeterminismViolation) as exc:
            san.finish()
        assert "foreign write" in str(exc.value)
        assert "op.windows[0]" in str(exc.value)

    def _one_call_then_finish(self, keys, operator) -> str:
        san = DeterminismSanitizer(stride=1)
        proxy = san.wrap("op", operator)
        san.seal()
        tup = keys.traces[0].tuples[0]
        proxy.process(tup, tup.timestamp)
        assert san.violations == []
        with pytest.raises(DeterminismViolation) as exc:
            san.finish()
        return str(exc.value)

    def test_own_module_global_write_reported_at_finish(self, keys):
        message = self._one_call_then_finish(
            keys, TallyJoin(keys.predicate, keys.window_sizes, keys.basic)
        )
        assert f"module-global write: {__name__}.TALLY" in message

    def test_class_level_dict_write_reported_at_finish(self, keys):
        message = self._one_call_then_finish(
            keys, CachingJoin(keys.predicate, keys.window_sizes, keys.basic)
        )
        assert (f"class-attribute write: {__name__}.CachingJoin.seen"
                in message)


class TestOwnBindings:
    """Module-level bindings to the sanitizer, a registered operator or
    its proxy are bookkeeping and the operator's own state, not shared
    globals."""

    def _bound_run(self, keys, monkeypatch, cls):
        san = DeterminismSanitizer(stride=1)
        inner = cls(keys.predicate, keys.window_sizes, keys.basic)
        proxy = san.wrap("op", inner)
        module = sys.modules[__name__]
        for name, value in (("SAN", san), ("OP", proxy), ("INNER", inner)):
            monkeypatch.setattr(module, name, value, raising=False)
        san.seal()
        for tup in keys.traces[0].tuples[:5]:
            proxy.process(tup, tup.timestamp)
        return san

    def test_own_bindings_stay_clean(self, keys, monkeypatch):
        self._bound_run(keys, monkeypatch, PlainJoin).finish()

    def test_real_global_write_still_reported(self, keys, monkeypatch):
        san = self._bound_run(keys, monkeypatch, TallyJoin)
        with pytest.raises(DeterminismViolation) as exc:
            san.finish()
        message = str(exc.value)
        assert f"module-global write: {__name__}.TALLY" in message
        assert len(san.violations) == 1


class TestMatrixIntegration:
    def test_quick_matrix_sanitized(self, keys, drift):
        from repro.testkit.differential import (
            MatrixSpec,
            differential_matrix,
        )

        spec = MatrixSpec(
            pinned_zs=(0.5,), shard_counts=(1, 2),
            include_shedding=False,
        )
        verdict = differential_matrix([keys, drift], spec,
                                      sanitize=True)
        assert verdict["ok"], verdict["failures"]
        assert verdict["sanitized"] is True

    def test_unsanitized_verdict_marks_it(self, keys):
        from repro.testkit.differential import (
            MatrixSpec,
            differential_matrix,
        )

        spec = MatrixSpec(pinned_zs=(), shard_counts=(1,),
                          include_shedding=False)
        verdict = differential_matrix([keys], spec)
        assert verdict["sanitized"] is False
