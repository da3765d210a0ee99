"""Tests for the Router operator: a key's shard is crc32(key) % K."""

from dataclasses import replace

import numpy as np
import pytest

from repro.parallel import RoutedTuple, RouterOperator, stable_key_hash
from repro.streams import StreamTuple, TraceSource
from repro.testkit import oracle_ids, sharded_ids
from repro.testkit.workloads import (
    key_workload,
    mixed_key_workload,
    zipf_key_workload,
)


def tup(value, stream=0, ts=0.0, seq=0):
    return StreamTuple(value=value, timestamp=ts, stream=stream, seq=seq)


class TestHashRouting:
    def test_same_key_same_shard(self):
        router = RouterOperator(num_streams=3, num_shards=4)
        shards = {
            router.shard_of(tup(42.0, stream=s)) for s in range(3)
        }
        assert len(shards) == 1  # co-partitioned across streams

    def test_stable_hash_is_deterministic(self):
        assert stable_key_hash(42.0) == stable_key_hash(42.0)
        assert stable_key_hash("a") == stable_key_hash("a")

    def test_routing_is_crc32_mod_k(self):
        # the former router hashed into 64 virtual buckets dealt out to
        # the shards in turn; for every K dividing 64 that is the same
        # shard as crc32 % K, so no tuple changed shard
        for workload in (key_workload, zipf_key_workload,
                         mixed_key_workload):
            tuples = [t for trace in workload(seed=1).traces
                      for t in trace.tuples]
            for k in (1, 2, 4, 8):
                router = RouterOperator(num_streams=3, num_shards=k)
                assert [router.shard_of(t) for t in tuples] == [
                    (stable_key_hash(t.value) % 64) % k for t in tuples
                ], (workload.__name__, k)

    def test_process_emits_routed_envelope_and_counts(self):
        router = RouterOperator(num_streams=1, num_shards=2)
        t = tup(5.0)
        receipt = router.process(t, 0.0)
        assert receipt.comparisons == RouterOperator.route_cost == 1
        [routed] = receipt.outputs
        assert isinstance(routed, RoutedTuple)
        assert routed.tuple is t
        assert router.routed_per_shard[routed.shard] == 1

    def test_keys_spread_over_shards(self):
        router = RouterOperator(num_streams=1, num_shards=4)
        hit = {router.shard_of(tup(float(v))) for v in range(200)}
        assert hit == {0, 1, 2, 3}


class TestValidation:
    def test_invalid_args(self):
        with pytest.raises(ValueError):
            RouterOperator(num_streams=0, num_shards=2)
        with pytest.raises(ValueError):
            RouterOperator(num_streams=1, num_shards=0)

    def test_only_hash_routing_without_rebalancing_is_accepted(self):
        for kwargs in ({"policy": "round-robin"}, {"policy": "range"},
                       {"rebalance_threshold": 2.0}):
            with pytest.raises(ValueError):
                RouterOperator(num_streams=1, num_shards=2, **kwargs)
        legacy = RouterOperator(num_streams=1, num_shards=4, policy="hash",
                                rebalance_threshold=None)
        plain = RouterOperator(num_streams=1, num_shards=4)
        keys = [tup(float(v)) for v in range(50)]
        assert [legacy.shard_of(t) for t in keys] == [
            plain.shard_of(t) for t in keys
        ]


class TestKeyCanonicalization:
    """Equal numeric keys must hash — and therefore route — equally."""

    def test_equal_numbers_hash_equal(self):
        assert stable_key_hash(1) == stable_key_hash(1.0)
        assert stable_key_hash(1) == stable_key_hash(True)
        assert stable_key_hash(0) == stable_key_hash(0.0)
        assert stable_key_hash(0) == stable_key_hash(False)
        assert stable_key_hash(2**53) == stable_key_hash(float(2**53))
        # numpy scalars hash like the Python number they hold
        assert stable_key_hash(1) == stable_key_hash(np.int64(1))
        assert stable_key_hash(True) == stable_key_hash(np.True_)
        assert stable_key_hash(1) == stable_key_hash(np.float32(1.0))
        assert stable_key_hash(0.5) == stable_key_hash(np.float64(0.5))

    def test_composite_keys_canonicalize_elementwise(self):
        assert stable_key_hash((1, 2.0)) == stable_key_hash((1.0, 2))
        assert stable_key_hash((True, "x")) == stable_key_hash((1, "x"))
        assert stable_key_hash((1, 2)) == stable_key_hash((np.int64(1), 2))

    def test_sharded_equals_oracle_on_numpy_keys(self):
        """An equi-join whose streams carry the same keys as Python
        numbers and as numpy scalars loses no cross-stream match."""

        def to_numpy(value):
            if isinstance(value, bool):
                return np.bool_(value)
            return np.int64(value)

        base = mixed_key_workload(seed=1)
        traces = [base.traces[0]] + [
            TraceSource(trace.stream, [
                replace(t, value=to_numpy(t.value)) for t in trace.tuples
            ])
            for trace in base.traces[1:]
        ]
        workload = replace(base, traces=traces)
        assert sharded_ids(workload, 4) == oracle_ids(workload).id_set

    def test_unequal_keys_stay_apart(self):
        assert stable_key_hash("1") != stable_key_hash(1)
        assert stable_key_hash(1.5) != stable_key_hash(1)

    def test_router_co_partitions_mixed_representations(self):
        router = RouterOperator(num_streams=3, num_shards=4)
        shards = {
            router.shard_of(tup(1, stream=0)),
            router.shard_of(tup(1.0, stream=1)),
            router.shard_of(tup(True, stream=2)),
        }
        assert len(shards) == 1

    def test_sharded_equals_unsharded_on_mixed_key_workload(self):
        """The satellite regression: an equi-join over mixed
        int/float/bool keys must produce the same results sharded and
        unsharded.  Fails on the pre-canonicalization hash, which
        scattered 1 / 1.0 / True across shards."""
        workload = mixed_key_workload(seed=1)
        assert sharded_ids(workload, 4) == oracle_ids(workload).id_set

    def test_old_hash_would_lose_mixed_key_matches(self, monkeypatch):
        """Locks the discrimination power of the regression workload:
        with canonicalization disabled (the old behaviour), the same
        check diverges — so the test above genuinely guards the fix."""
        import repro.parallel.router as router_mod

        monkeypatch.setattr(
            router_mod, "_canonical_key", lambda key: key
        )
        workload = mixed_key_workload(seed=1)
        assert sharded_ids(workload, 4) != oracle_ids(workload).id_set
