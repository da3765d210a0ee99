"""End-to-end tests for the sharded join plan (router -> shards -> merger)."""

import pytest

from repro.core import GrubJoinOperator
from repro.engine import CpuModel, SimulationConfig
from repro.joins import EquiJoin, MJoinOperator
from repro.parallel import build_sharded_graph
from repro.streams import (
    ConstantProcess,
    ConstantRate,
    StreamSource,
)
from repro.testkit.workloads import key_sources as make_key_sources

M = 3
WINDOW = 10.0
BASIC = 1.0


def key_sources(seed=0, rate=20.0, n_keys=40):
    return make_key_sources(m=M, rate=rate, n_keys=n_keys, seed=seed)


def make_mjoin(_k):
    return MJoinOperator(EquiJoin(), [WINDOW] * M, BASIC)


def fast_cpu(cores=4):
    return CpuModel(1e9, cores=cores)


CFG = SimulationConfig(duration=15.0, warmup=5.0, adaptation_interval=2.5)


def merged_count(num_shards):
    plan = build_sharded_graph(key_sources(), make_mjoin, num_shards)
    result = plan.run(fast_cpu(), CFG)
    return plan, result


class TestHashShardingIsLossless:
    def test_union_of_shards_equals_unsharded_join(self):
        plans = {
            k: merged_count(k) for k in (1, 2, 4)
        }
        counts = {k: plan.output_count(res)
                  for k, (plan, res) in plans.items()}
        assert counts[1] > 0
        # equi-join + hash partitioning: no results lost or duplicated
        assert counts[2] == counts[1]
        assert counts[4] == counts[1]

    def test_merger_accounts_every_shard_result(self):
        plan, result = merged_count(4)
        assert sum(plan.merger_op.merged_per_shard) == plan.merger_op.merged
        # every shard-local result reached the merger
        assert plan.merger_op.merged == sum(
            plan.shard_output_counts(result)
        )

    def test_output_rate_reads_merger_node(self):
        plan, result = merged_count(2)
        assert plan.output_rate(result) == (
            result.nodes["merger"].output_rate
        )


class TestPlanStructure:
    def test_plan_passes_static_analyzer(self):
        plan = build_sharded_graph(key_sources(), make_mjoin, 4)
        report = plan.graph.validate()
        assert report.ok
        # router fan-out edges carry transforms, so no P102 findings
        assert not [d for d in report.diagnostics if d.code == "P102"]

    def test_shard_arity_mismatch_raises(self):
        def bad_shard(_k):
            return MJoinOperator(EquiJoin(), [WINDOW] * 2, BASIC)

        with pytest.raises(ValueError):
            build_sharded_graph(key_sources(), bad_shard, 2)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            build_sharded_graph(key_sources(), make_mjoin, 0)


class TestIndependentShedding:
    def test_skewed_keys_shed_only_on_hot_shards(self):
        # every tuple carries the same key: exactly one shard gets all
        # the work, the rest idle; only the hot shard's controller sheds
        # (key 39 hashes to shard 3, where this marginal overload
        # reliably trips the throttle)
        def hot_sources():
            return [
                StreamSource(i, ConstantRate(60.0), ConstantProcess(39.0))
                for i in range(M)
            ]

        def make_grub(k):
            return GrubJoinOperator(
                EquiJoin(), [WINDOW] * M, BASIC, rng=500 + k
            )

        plan = build_sharded_graph(hot_sources(), make_grub, 4)
        plan.run(CpuModel(4000.0, cores=4), CFG)
        zs = [op.throttle.z for op in plan.shard_ops]
        hot = plan.router_op.routed_per_shard.index(
            max(plan.router_op.routed_per_shard)
        )
        cold = [z for k, z in enumerate(zs) if k != hot]
        assert zs[hot] < 1.0
        assert all(z == 1.0 for z in cold)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        def run_once():
            plan = build_sharded_graph(key_sources(), make_mjoin, 4)
            result = plan.run(
                CpuModel(30000.0, cores=4), CFG
            )
            return (
                plan.output_count(result),
                plan.shard_output_counts(result),
                plan.router_op.routed_per_shard,
            )

        assert run_once() == run_once()
