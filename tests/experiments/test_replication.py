"""Tests for replicated measurements and comparisons."""

import numpy as np
import pytest

from repro.experiments.replication import (
    Comparison,
    compare_seeds,
    replicate,
)


class TestReplicate:
    def test_scalar_runner(self):
        summary = replicate(lambda seed: float(seed * 10), seeds=[1, 2, 3])
        metric = summary["result"]
        assert metric.samples == (10.0, 20.0, 30.0)
        assert metric.mean == pytest.approx(20.0)
        assert metric.ci_low <= metric.mean <= metric.ci_high

    def test_dict_runner(self):
        summary = replicate(
            lambda seed: {"out": seed, "lat": seed / 10},
            seeds=[1, 2],
        )
        assert set(summary) == {"out", "lat"}
        assert summary["lat"].mean == pytest.approx(0.15)

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate(lambda s: 0.0, seeds=[])

    def test_inconsistent_metrics_rejected(self):
        outcomes = iter([{"a": 1.0}, {"b": 2.0}])
        with pytest.raises(ValueError):
            replicate(lambda s: next(outcomes), seeds=[1, 2])

    def test_str(self):
        summary = replicate(lambda s: 100.0, seeds=[1, 2])
        assert "result" in str(summary["result"])


class TestCompare:
    def test_clear_winner(self):
        rng = np.random.default_rng(0)
        t_noise = rng.normal(0, 2, 100)
        b_noise = rng.normal(0, 2, 100)
        result = compare_seeds(
            lambda seed: 200.0 + t_noise[seed],
            lambda seed: 100.0 + b_noise[seed],
            seeds=list(range(12)),
        )
        assert result.improvement_pct == pytest.approx(100.0, abs=10.0)
        assert result.significant()

    def test_noise_not_significant(self):
        rng = np.random.default_rng(1)
        noise = rng.normal(0, 10, 200)
        result = compare_seeds(
            lambda seed: 100.0 + noise[seed],
            lambda seed: 100.0 + noise[seed + 50],
            seeds=list(range(8)),
        )
        assert not result.significant(alpha=0.01)

    def test_str(self):
        result = Comparison(
            treatment=replicate(lambda s: 2.0, [1])["result"],
            baseline=replicate(lambda s: 1.0, [1])["result"],
            improvement_pct=100.0,
            p_value=0.02,
        )
        assert "+100.0%" in str(result)


class TestEndToEnd:
    def test_replicated_grubjoin_vs_drop(self):
        """Tiny replicated comparison on the real simulator: GrubJoin's
        win over RandomDrop at 2x overload is statistically solid even
        with few seeds."""
        from repro.engine import SimulationConfig
        from repro.experiments.harness import (
            WorkloadSpec,
            calibrate_capacity,
            run_grubjoin,
            run_random_drop,
        )

        cfg = SimulationConfig(duration=14.0, warmup=4.0,
                               adaptation_interval=2.0)

        def spec(seed, rate=60.0):
            return WorkloadSpec(
                m=3, rate=rate, taus=(0.0, 2.0, 4.0),
                kappas=(1.0, 1.0, 10.0), window=10.0, basic_window=1.0,
                seed=seed,
            )

        capacity = calibrate_capacity(spec(7, rate=30.0), 30.0, cfg)
        result = compare_seeds(
            lambda s: run_grubjoin(spec(s), capacity, cfg)[0].output_rate,
            lambda s: run_random_drop(spec(s), capacity,
                                      cfg)[0].output_rate,
            seeds=[1, 2, 3, 4],
        )
        assert result.treatment.mean > result.baseline.mean
        assert result.p_value < 0.2  # few seeds; direction must hold
