"""Replicated measurements: run a configuration across seeds, report
mean and bootstrap confidence intervals.

The paper reports averages of several runs; :func:`replicate` makes that
explicit and quantified — each metric comes back with its mean and a
bootstrap interval, and :func:`compare_seeds` adds a permutation p-value for
"is GrubJoin really better than the baseline here, or is it seed noise?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.analysis import bootstrap_ci, permutation_test


@dataclass(frozen=True)
class ReplicatedMetric:
    """One metric across the replicated runs."""

    name: str
    samples: tuple[float, ...]
    mean: float
    ci_low: float
    ci_high: float

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.mean:,.1f} "
            f"[{self.ci_low:,.1f}, {self.ci_high:,.1f}] "
            f"(n={len(self.samples)})"
        )


def replicate(
    runner: Callable[[int], float | Mapping[str, float]],
    seeds: Sequence[int],
    confidence: float = 0.95,
) -> dict[str, ReplicatedMetric]:
    """Run ``runner(seed)`` per seed and summarize each returned metric.

    Args:
        runner: returns a scalar (metric name ``result``) or a mapping of
            metric name to value.
        seeds: the replication seeds (at least one).
        confidence: bootstrap interval coverage.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    per_metric: dict[str, list[float]] = {}
    for seed in seeds:
        outcome = runner(seed)
        if not isinstance(outcome, Mapping):
            outcome = {"result": float(outcome)}
        for name, value in outcome.items():
            per_metric.setdefault(name, []).append(float(value))
    lengths = {len(v) for v in per_metric.values()}
    if lengths != {len(seeds)}:
        raise ValueError("runner must return the same metrics every seed")
    summary = {}
    for name, samples in per_metric.items():
        lo, hi = bootstrap_ci(samples, confidence=confidence, rng=0)
        summary[name] = ReplicatedMetric(
            name=name,
            samples=tuple(samples),
            mean=float(np.mean(samples)),
            ci_low=lo,
            ci_high=hi,
        )
    return summary


@dataclass(frozen=True)
class Comparison:
    """Treatment vs baseline across replicated runs."""

    treatment: ReplicatedMetric
    baseline: ReplicatedMetric
    improvement_pct: float
    p_value: float

    def significant(self, alpha: float = 0.05) -> bool:
        """True when the improvement survives the permutation test."""
        return self.p_value < alpha

    def __str__(self) -> str:
        return (
            f"{self.treatment.mean:,.1f} vs {self.baseline.mean:,.1f}: "
            f"{self.improvement_pct:+.1f}% (p={self.p_value:.4f})"
        )


def compare_seeds(
    treatment_runner: Callable[[int], float],
    baseline_runner: Callable[[int], float],
    seeds: Sequence[int],
    confidence: float = 0.95,
) -> Comparison:
    """Replicate both runners on the same seeds and test the difference."""
    treatment = replicate(treatment_runner, seeds, confidence)["result"]
    baseline = replicate(baseline_runner, seeds, confidence)["result"]
    base_mean = baseline.mean
    improvement = (
        100.0 * (treatment.mean / base_mean - 1.0)
        if base_mean > 0
        else float("inf")
    )
    p = permutation_test(
        treatment.samples, baseline.samples, rng=0
    )
    return Comparison(
        treatment=treatment,
        baseline=baseline,
        improvement_pct=improvement,
        p_value=p,
    )
