"""Differential harness tests: the repo's two correctness contracts.

* equality — with unconstrained CPU and no shedding, every execution
  path (MJoin, IndexedMJoin, GrubJoin at z=1, ShardedPlan at any K for
  co-partitioning predicates) reproduces the brute-force oracle exactly;
* max-subset — any shedding configuration may lose results but never
  invents one.
"""

import pytest

from repro.testkit import (
    MatrixSpec,
    calibrated_shed_capacity,
    compare,
    differential_matrix,
    grubjoin_ids,
    indexed_ids,
    mjoin_ids,
    oracle_ids,
    randomdrop_ids,
    sharded_ids,
)
from repro.testkit.workloads import (
    band_workload,
    drift_workload,
    key_workload,
)

DURATION = 6.0


@pytest.fixture(scope="module")
def drift3():
    return drift_workload(1, duration=DURATION)


@pytest.fixture(scope="module")
def drift4():
    return drift_workload(
        2, m=4, rate=6.0, epsilon=2.0, duration=DURATION,
        lags=[0.1 * i for i in range(4)],
    )


@pytest.fixture(scope="module")
def keys3():
    return key_workload(1, duration=DURATION)


class TestEqualityContracts:
    def test_mjoin_matches_oracle(self, drift3):
        assert mjoin_ids(drift3) == oracle_ids(drift3).id_set

    def test_indexed_matches_oracle(self, keys3):
        assert indexed_ids(keys3) == oracle_ids(keys3).id_set

    def test_grubjoin_at_full_harvest_matches_oracle(self, drift3):
        assert grubjoin_ids(drift3, pin_z=1.0) == oracle_ids(drift3).id_set

    def test_four_way_paths_agree(self, drift4):
        reference = oracle_ids(drift4).id_set
        assert reference  # non-vacuous
        assert mjoin_ids(drift4) == reference
        assert grubjoin_ids(drift4, pin_z=1.0) == reference


class TestShardedEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_sharded_matches_unsharded(self, keys3, num_shards):
        """Router -> K shards -> merger produces the identical merged
        result set for every K (hash routing co-partitions equal keys)."""
        assert sharded_ids(keys3, num_shards) == oracle_ids(keys3).id_set

    def test_single_shard_works_for_any_predicate(self, drift3):
        assert sharded_ids(drift3, 1) == oracle_ids(drift3).id_set


class TestSubsetUnderShedding:
    @pytest.mark.parametrize("workload_fixture", ["drift3", "drift4"])
    @pytest.mark.parametrize("z", [0.3, 0.6, 1.0])
    def test_pinned_z_grid(self, request, workload_fixture, z):
        """GrubJoin pinned at any z stays within the oracle's output;
        at z=1 (full harvest) it reproduces it exactly."""
        workload = request.getfixturevalue(workload_fixture)
        reference = oracle_ids(workload).id_set
        observed = grubjoin_ids(workload, pin_z=z)
        assert observed <= reference
        if z == 1.0:
            assert observed == reference

    def test_feedback_shedding_under_overload(self, drift3):
        capacity = calibrated_shed_capacity(drift3, fraction=0.3)
        reference = oracle_ids(drift3).id_set
        observed = grubjoin_ids(drift3, capacity=capacity)
        assert observed <= reference
        assert len(observed) < len(reference)  # genuinely overloaded

    def test_randomdrop_under_overload(self, keys3):
        capacity = calibrated_shed_capacity(keys3, fraction=0.3)
        assert randomdrop_ids(keys3, capacity=capacity) <= (
            oracle_ids(keys3).id_set
        )

    def test_calibration_scales_with_fraction(self, drift3):
        lo = calibrated_shed_capacity(drift3, fraction=0.1)
        hi = calibrated_shed_capacity(drift3, fraction=0.5)
        assert 0 < lo < hi
        with pytest.raises(ValueError):
            calibrated_shed_capacity(drift3, fraction=0.0)


class TestCompareReports:
    def test_equal_mode_flags_missing_and_extra(self, drift3):
        reference = oracle_ids(drift3)
        observed = set(reference.id_set)
        dropped = min(observed)
        observed.discard(dropped)
        fake = ((0, 10 ** 6), (1, 10 ** 6), (2, 10 ** 6))
        observed.add(fake)
        report = compare(reference, observed, drift3, mode="equal",
                         label="broken")
        assert not report.ok
        assert dropped in report.missing
        assert fake in report.extra

    def test_subset_mode_tolerates_missing_only(self, drift3):
        reference = oracle_ids(drift3)
        observed = set(list(reference.id_set)[:3])
        assert compare(reference, observed, drift3, mode="subset").ok
        observed.add(((0, 10 ** 6), (1, 10 ** 6), (2, 10 ** 6)))
        assert not compare(reference, observed, drift3,
                           mode="subset").ok

    def test_render_pinpoints_first_divergence(self, drift3):
        reference = oracle_ids(drift3)
        report = compare(reference, set(), drift3, mode="equal",
                         label="empty-run")
        text = report.render()
        assert "MISMATCH" in text
        assert "first divergence (missing)" in text
        # every stream's window contents at the divergence time
        for stream in range(drift3.m):
            assert f"window[S{stream + 1}]" in text
        # the divergence is the earliest-completing missing result
        d = report.divergence
        lookup = drift3.lookup()
        completion = max(
            lookup[pair].timestamp for pair in d["ids"]
        )
        assert completion == d["probe_time"]
        assert all(
            completion
            <= max(lookup[pair].timestamp for pair in other)
            for other in report.missing
        )

    def test_rejects_unknown_mode(self, drift3):
        with pytest.raises(ValueError):
            compare(oracle_ids(drift3), set(), drift3, mode="superset")


class TestMatrix:
    def test_matrix_verdict_shape_and_success(self, drift3, keys3):
        spec = MatrixSpec(pinned_zs=(0.5,), shard_counts=(1, 2),
                          include_shedding=False)
        verdict = differential_matrix([drift3, keys3], spec)
        assert verdict["ok"]
        assert verdict["failures"] == []
        drift_checks = verdict["workloads"][drift3.name]["checks"]
        keys_checks = verdict["workloads"][keys3.name]["checks"]
        assert set(drift_checks) == {
            "mjoin", "indexed",
            "grubjoin_z1", "grubjoin_z1_warm",
            "mjoin_range_indexed", "grubjoin_z1_indexed",
            "sharded_k1",
            "grubjoin_z0.5",
        }
        # K>1 sharding only asserted for co-partitioning predicates
        assert "sharded_k2" in keys_checks
        assert "sharded_k2" not in drift_checks
        # hash indexes need interval radius zero: equi yes, epsilon no
        assert "mjoin_hash_indexed" in keys_checks
        assert "mjoin_hash_indexed" not in drift_checks
        assert all(row["ok"] for row in keys_checks.values())

    def test_band_workload_runs_the_reference_pipeline_rows(self):
        # the one default workload without a columnar kernel: the
        # reference pipeline stays under the oracle end to end, and the
        # rows that need an interval predicate are skipped, not failed
        band = band_workload(1, duration=DURATION)
        assert oracle_ids(band).ids, "band workload is vacuous"
        spec = MatrixSpec(pinned_zs=(0.5,), shard_counts=(1, 2))
        verdict = differential_matrix([band], spec)
        assert verdict["ok"], verdict["failures"]
        assert set(verdict["workloads"][band.name]["checks"]) == {
            "mjoin", "grubjoin_z1", "grubjoin_z1_warm", "sharded_k1",
            "grubjoin_z0.5", "grubjoin_shed", "randomdrop_shed",
        }

    def test_matrix_flags_failures(self, drift3, monkeypatch):
        import repro.testkit.differential as differential

        monkeypatch.setattr(
            differential, "mjoin_ids",
            lambda workload, capacity=0, **kw: {
                ((9, 9), (9, 9), (9, 9))
            },
        )
        spec = MatrixSpec(pinned_zs=(), shard_counts=(),
                          include_shedding=False)
        verdict = differential.differential_matrix([drift3], spec)
        assert not verdict["ok"]
        assert any("mjoin" in f for f in verdict["failures"])
