"""Tests for the Router operator: partitioning and skew rebalancing."""

import pytest

from repro.parallel import RoutedTuple, RouterOperator, stable_key_hash
from repro.streams import StreamTuple


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

    def test_routing_follows_bucket_map(self):
        router = RouterOperator(num_streams=1, num_shards=2, buckets=8)
        t = tup(7.0)
        bucket = stable_key_hash(7.0) % 8
        assert router.shard_of(t) == router.bucket_map[bucket]
        # re-home the bucket; routing must follow
        target = 1 - router.bucket_map[bucket]
        router.bucket_map[bucket] = target
        assert router.shard_of(t) == target

    def test_process_emits_routed_envelope_and_counts(self):
        router = RouterOperator(num_streams=1, num_shards=2,
                                route_cost=3)
        t = tup(5.0)
        receipt = router.process(t, 0.0)
        assert receipt.comparisons == 3
        [routed] = receipt.outputs
        assert isinstance(routed, RoutedTuple)
        assert routed.tuple is t
        assert router.routed_per_shard[routed.shard] == 1

    def test_keys_spread_over_shards(self):
        router = RouterOperator(num_streams=1, num_shards=4, buckets=64)
        hit = {router.shard_of(tup(float(v))) for v in range(200)}
        assert hit == {0, 1, 2, 3}

    def test_custom_key_extractor(self):
        router = RouterOperator(
            num_streams=1, num_shards=4,
            key=lambda t: int(t.value) // 10,
        )
        assert router.shard_of(tup(20.0)) == router.shard_of(tup(29.0))


class TestRoundRobinRouting:
    def test_cycles_per_stream(self):
        router = RouterOperator(num_streams=2, num_shards=3,
                                policy="round-robin")
        seen = []
        for i in range(6):
            [routed] = router.process(tup(float(i), stream=0), 0.0).outputs
            seen.append(routed.shard)
        assert seen == [0, 1, 2, 0, 1, 2]
        # stream 1 keeps its own independent position
        [routed] = router.process(tup(0.0, stream=1), 0.0).outputs
        assert routed.shard == 0


class TestValidation:
    def test_invalid_args(self):
        with pytest.raises(ValueError):
            RouterOperator(num_streams=0, num_shards=2)
        with pytest.raises(ValueError):
            RouterOperator(num_streams=1, num_shards=0)
        with pytest.raises(ValueError):
            RouterOperator(num_streams=1, num_shards=2, policy="range")
        with pytest.raises(ValueError):
            RouterOperator(num_streams=1, num_shards=4, buckets=2)
        with pytest.raises(ValueError):
            RouterOperator(num_streams=1, num_shards=2,
                           rebalance_threshold=1.0)
        with pytest.raises(ValueError):
            RouterOperator(num_streams=1, num_shards=2, route_cost=-1)


class TestRebalancing:
    def probe(self, depths):
        return lambda: depths

    def test_hash_rebalance_migrates_buckets_hot_to_cold(self):
        router = RouterOperator(num_streams=1, num_shards=2, buckets=8,
                                rebalance_threshold=2.0)
        owned_by_0 = router.bucket_map.count(0)
        router.attach_depth_probe(self.probe([100, 0]))
        router.on_adapt(5.0, [], 5.0)
        assert router.rebalances == 1
        assert router.bucket_map.count(0) < owned_by_0
        assert router.last_depths == [100, 0]

    def test_no_rebalance_below_threshold(self):
        router = RouterOperator(num_streams=1, num_shards=2,
                                rebalance_threshold=2.0)
        before = list(router.bucket_map)
        router.attach_depth_probe(self.probe([10, 9]))
        router.on_adapt(5.0, [], 5.0)
        assert router.rebalances == 0
        assert router.bucket_map == before

    def test_threshold_none_disables_rebalancing(self):
        router = RouterOperator(num_streams=1, num_shards=2,
                                rebalance_threshold=None)
        router.attach_depth_probe(self.probe([1000, 0]))
        router.on_adapt(5.0, [], 5.0)
        assert router.rebalances == 0

    def test_no_probe_no_rebalance(self):
        router = RouterOperator(num_streams=1, num_shards=2)
        router.on_adapt(5.0, [], 5.0)  # must not raise
        assert router.rebalances == 0

    def test_probe_arity_mismatch_raises(self):
        router = RouterOperator(num_streams=1, num_shards=3)
        router.attach_depth_probe(self.probe([1, 2]))
        with pytest.raises(ValueError):
            router.on_adapt(5.0, [], 5.0)

    def test_round_robin_reweights_away_from_hot_shard(self):
        router = RouterOperator(num_streams=1, num_shards=2,
                                policy="round-robin",
                                rebalance_threshold=2.0)
        router.attach_depth_probe(self.probe([99, 0]))
        router.on_adapt(5.0, [], 5.0)
        assert router.rebalances == 1
        cycle = router._rr_cycle
        # the cold shard now receives most of the slots
        assert cycle.count(1) > cycle.count(0)
        assert cycle.count(0) >= 1  # hot shard is starved, never cut off


class TestKeyCanonicalization:
    """Equal numeric keys must hash — and therefore route — equally."""

    def test_equal_numbers_hash_equal(self):
        assert stable_key_hash(1) == stable_key_hash(1.0)
        assert stable_key_hash(1) == stable_key_hash(True)
        assert stable_key_hash(0) == stable_key_hash(0.0)
        assert stable_key_hash(0) == stable_key_hash(False)
        assert stable_key_hash(2**53) == stable_key_hash(float(2**53))

    def test_composite_keys_canonicalize_elementwise(self):
        assert stable_key_hash((1, 2.0)) == stable_key_hash((1.0, 2))
        assert stable_key_hash((True, "x")) == stable_key_hash((1, "x"))

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
        from repro.testkit import (
            mixed_key_workload,
            oracle_ids,
            sharded_ids,
        )

        workload = mixed_key_workload(seed=1)
        assert sharded_ids(workload, 4) == oracle_ids(workload).id_set

    def test_old_hash_would_lose_mixed_key_matches(self, monkeypatch):
        """Locks the discrimination power of the regression workload:
        with canonicalization disabled (the old behaviour), the same
        check diverges — so the test above genuinely guards the fix."""
        import repro.parallel.router as router_mod
        from repro.testkit import (
            mixed_key_workload,
            oracle_ids,
            sharded_ids,
        )

        monkeypatch.setattr(
            router_mod, "_canonical_key", lambda key: key
        )
        workload = mixed_key_workload(seed=1)
        assert sharded_ids(workload, 4) != oracle_ids(workload).id_set


class TestMigrationGuards:
    def probe(self, depths):
        return lambda: depths

    def test_donor_keeps_its_last_bucket(self):
        router = RouterOperator(num_streams=1, num_shards=2, buckets=2,
                                rebalance_threshold=2.0)
        router.attach_depth_probe(self.probe([100, 0]))
        router.on_adapt(5.0, [], 5.0)
        # hot shard owns exactly one bucket: stripping it would evict
        # the shard from the key space, so nothing may move
        assert router.bucket_map == [0, 1]
        assert router.rebalances == 0

    def test_migration_never_empties_donor(self):
        router = RouterOperator(num_streams=1, num_shards=2, buckets=8,
                                rebalance_threshold=2.0)
        for _ in range(20):
            router.maybe_rebalance([100, 0])
        assert router.bucket_map.count(0) >= 1

    def test_cooldown_blocks_back_to_back_rebalances(self):
        router = RouterOperator(num_streams=1, num_shards=2, buckets=8,
                                rebalance_threshold=2.0)
        assert router.maybe_rebalance([100, 0]) is True
        # the very next tick sees the same stale skew; without the
        # cooldown this would ping-pong the same buckets straight back
        assert router.maybe_rebalance([0, 100]) is False
        assert router.rebalances == 1
        # one tick later the (fresh) observation may act again
        assert router.maybe_rebalance([0, 100]) is True
        assert router.rebalances == 2

    def test_skewed_workload_converges_without_ping_pong(self):
        """2-shard skewed regression: with depths lagging one tick
        behind migrations (backlog does not drain instantly), the
        control loop must reach a fixed point instead of oscillating."""
        router = RouterOperator(num_streams=1, num_shards=2, buckets=8,
                                rebalance_threshold=2.0)
        router.bucket_map[:] = [0] * 6 + [1] * 2
        lagged = [5 * router.bucket_map.count(k) for k in (0, 1)]
        history = []
        for _ in range(10):
            router.maybe_rebalance(lagged)
            lagged = [5 * router.bucket_map.count(k) for k in (0, 1)]
            history.append(list(router.bucket_map))
        assert router.rebalances <= 2
        assert history[-1] == history[-2] == history[-3]


class TestReweightInterleave:
    def test_equal_depths_give_perfect_interleave(self):
        router = RouterOperator(num_streams=1, num_shards=2,
                                policy="round-robin",
                                rebalance_threshold=2.0)
        router._reweight_cycle([3, 3])
        assert router._rr_cycle == [0, 1] * 4
        router3 = RouterOperator(num_streams=1, num_shards=3,
                                 policy="round-robin")
        router3._reweight_cycle([0, 0, 0])
        assert router3._rr_cycle == [0, 1, 2] * 4

    def test_reweight_is_deterministic(self):
        a = RouterOperator(num_streams=1, num_shards=3,
                           policy="round-robin")
        b = RouterOperator(num_streams=1, num_shards=3,
                           policy="round-robin")
        a._reweight_cycle([17, 2, 5])
        b._reweight_cycle([17, 2, 5])
        assert a._rr_cycle == b._rr_cycle

    def test_slots_spread_instead_of_bursting(self):
        router = RouterOperator(num_streams=1, num_shards=2,
                                policy="round-robin")
        router._reweight_cycle([0, 3])
        cycle = router._rr_cycle
        majority = max(set(cycle), key=cycle.count)
        longest_run = run = 1
        for prev, cur in zip(cycle, cycle[1:]):
            run = run + 1 if prev == cur == majority else 1
            longest_run = max(longest_run, run)
        # the majority shard's slots are interleaved, not clumped
        assert longest_run < cycle.count(majority)


class TestRouterEdgeCases:
    def probe(self, depths):
        return lambda: depths

    def test_buckets_equal_num_shards_minimum_indirection(self):
        router = RouterOperator(num_streams=1, num_shards=4, buckets=4)
        shards = {router.shard_of(tup(float(v))) for v in range(200)}
        assert shards == {0, 1, 2, 3}
        # every migration attempt is refused: each donor owns one bucket
        router.attach_depth_probe(self.probe([50, 0, 0, 0]))
        router.on_adapt(5.0, [], 5.0)
        assert router.rebalances == 0
        assert sorted(router.bucket_map) == [0, 1, 2, 3]

    def test_all_equal_depths_no_rebalance(self):
        router = RouterOperator(num_streams=1, num_shards=3,
                                rebalance_threshold=2.0)
        before = list(router.bucket_map)
        router.attach_depth_probe(self.probe([7, 7, 7]))
        router.on_adapt(5.0, [], 5.0)
        assert router.rebalances == 0
        assert router.bucket_map == before

    def test_zero_depth_probe_no_rebalance(self):
        router = RouterOperator(num_streams=1, num_shards=3,
                                rebalance_threshold=2.0)
        router.attach_depth_probe(self.probe([0, 0, 0]))
        router.on_adapt(5.0, [], 5.0)
        assert router.rebalances == 0
        assert router.last_depths == [0, 0, 0]

    def test_threshold_none_ignores_any_skew(self):
        router = RouterOperator(num_streams=1, num_shards=2,
                                rebalance_threshold=None)
        assert router.maybe_rebalance([10_000, 0]) is False
        assert router.rebalances == 0
