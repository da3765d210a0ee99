"""Tests for the Merger operator and the shard->merger edge transform."""

import pytest

from repro.obs import Obs
from repro.parallel import MergerOperator, shard_result_transform
from repro.streams import JoinResult, StreamTuple


def result(timestamps):
    return JoinResult(tuple(
        StreamTuple(value=float(i), timestamp=ts, stream=i, seq=0)
        for i, ts in enumerate(timestamps)
    ))


class TestShardResultTransform:
    def test_packs_result_with_shard_and_logical_time(self):
        pack = shard_result_transform(2)
        res = result([1.0, 4.0, 3.0])
        packed = pack(res)
        assert isinstance(packed, StreamTuple)
        assert packed.stream == 2
        assert packed.timestamp == 4.0  # youngest constituent
        assert packed.value is res


class TestMerger:
    def test_counts_per_shard_and_passes_through(self):
        merger = MergerOperator(num_shards=3)
        for shard, n in ((0, 2), (2, 1)):
            pack = shard_result_transform(shard)
            for _ in range(n):
                receipt = merger.process(pack(result([1.0, 2.0])), 5.0)
                assert receipt.comparisons == MergerOperator.merge_cost == 1
                assert len(receipt.outputs) == 1
        assert merger.merged == 3
        assert merger.merged_per_shard == [2, 0, 1]

    def test_absorb_counts_a_batch_like_that_many_process_calls(self):
        obs = Obs()
        merger = MergerOperator(num_shards=2)
        merger.bind_obs(obs, node="merger")
        merger.absorb(1, 5)
        merger.absorb(0, 0)
        merger.process(shard_result_transform(1)(result([1.0, 2.0])), 5.0)
        assert merger.merged == 6
        assert merger.merged_per_shard == [0, 6]
        counts = [
            obs.counter("merger_merged_total", shard=k, node="merger").value
            for k in range(2)
        ]
        assert counts == [0, 6]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            MergerOperator(num_shards=0)
