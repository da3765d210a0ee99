"""Determinism sanitizer: clean runs stay green, seeded bugs get blamed.

The sanitizer is the dynamic half of the shard-safety story: the static
pass (``repro.lint.effects``) certifies what each operator *may* write,
and these tests prove the runtime cross-check (a) accepts the real
engine on real workloads and (b) rejects seeded violations with
provenance precise enough to debug from — the victim path and the
operators that ran in between.
"""

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


class NotActuallyPure(StreamOperator):
    """Certifies pure, but the test mutates it behind the proxy."""

    num_streams = 3

    def process(self, tup, now):
        return ProcessReceipt(comparisons=1, outputs=[])


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
        # the seeded bug: "shard0" rotates shard1's window behind its back
        b.windows[0].rotations += 1
        with pytest.raises(DeterminismViolation) as exc:
            wb.process(tups[20], tups[20].timestamp)
            san.finish()
        message = str(exc.value)
        assert "foreign write" in message
        assert "shard1.windows" in message       # the victim path
        assert "shard0" in message               # the suspect

    def test_violation_surfaces_at_finish_too(self, keys):
        san, _a, b, _wa, _wb, _tups = self._two_shards(keys)
        b.windows[0].rotations += 1
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

    def test_undeclared_attribute_growth_caught(self, keys):
        class Sneaky(MJoinOperator):
            def process(self, tup, now):
                setattr(self, f"smuggled_{tup.stream}", tup)
                return super().process(tup, now)

        # a function-local class has no statically reachable source, so
        # it certifies unknown with an empty write set — every runtime
        # write is then undeclared, which is exactly the strictness an
        # uncertified operator deserves
        san = DeterminismSanitizer(stride=1)
        op = Sneaky(keys.predicate, keys.window_sizes, keys.basic)
        proxy = san.wrap("op", op)
        assert san._records["op"].classification == "unknown"
        san.seal()
        tup = keys.traces[0].tuples[0]
        proxy.process(tup, tup.timestamp)
        with pytest.raises(DeterminismViolation) as exc:
            san.raise_for_violations()
        assert "smuggled_" in str(exc.value)

    def test_purity_violation_caught(self, keys):
        op = NotActuallyPure()
        san = DeterminismSanitizer(stride=1)
        proxy = san.wrap("op", op)
        record = san._records["op"]
        assert record.classification == "pure"
        san.seal()
        tup = keys.traces[0].tuples[0]
        proxy.process(tup, tup.timestamp)
        # a "pure" operator that grows state between samples
        op.cache = [1, 2, 3]
        proxy.process(tup, tup.timestamp + 0.001)
        with pytest.raises(DeterminismViolation):
            san.raise_for_violations()


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
