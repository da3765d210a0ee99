"""Process-runtime perfbench legs: identity everywhere, timing on cores.

The identity half of the ``procs_scaling`` macro — every worker count
merges the *same* result set — is deterministic and must hold on any
host, so it gates unconditionally (CI's ``procs-smoke`` job runs it).
The wall-clock half (near-linear merged-rate scaling) only means
anything with real cores to scale onto and is skipped below four.
"""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

import pytest

from repro.joins import MJoinOperator
from repro.parallel import run_procs
from repro.testkit import key_workload, oracle_ids

# the sibling harness under its own module name (see
# test_perf_regression.py: ``bench`` alone collides with benchmarks/e2e)
_spec = importlib.util.spec_from_file_location(
    "perfbench_bench", Path(__file__).with_name("bench.py")
)
_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_bench)
procs_scaling = _bench.procs_scaling


def _factory(workload):
    def make_shard(_worker_id: int) -> MJoinOperator:
        return MJoinOperator(
            workload.predicate,
            workload.window_sizes,
            workload.basic,
        )

    return make_shard


class TestProcsIdentity:
    """Hard gate: divergence across K is a correctness bug, not noise."""

    def test_every_worker_count_merges_the_oracle_set(self):
        workload = key_workload(seed=14, rate=40.0, duration=6.0)
        oracle = oracle_ids(workload).id_set
        assert oracle
        for k in (1, 2):
            result = run_procs(
                workload.traces,
                _factory(workload),
                k,
                duration=workload.duration + 1.0,
                adaptation_interval=2.0,
            )
            assert set(result.merged_ids) == oracle, (
                f"procs k={k} diverged from the oracle"
            )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="merged-rate scaling needs at least 4 cores",
)
class TestProcsScalingTiming:
    def test_k4_scales_merged_rate(self):
        report = procs_scaling(quick=False, repeats=2)
        assert report["identical"] is True
        assert report["gated"] is True
        # the reproduction's acceptance floor: >= 2.5x merged rate at
        # four workers over one
        assert report["speedups"]["k4_speedup_x"] >= 2.5
