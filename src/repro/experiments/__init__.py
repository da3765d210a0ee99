"""Experiment drivers regenerating every figure of the paper's evaluation.

Each ``figN_*`` module exposes ``run(...) -> ExperimentTable`` and is
runnable as a script (``python -m repro.experiments.fig7_output_vs_rate``).
Default parameters are scaled down to keep the whole suite in minutes; set
``REPRO_FULL=1`` for paper-length runs.
"""

from . import (
    fig4_optimality,
    fig5_solver_runtime,
    fig6_runtime_vs_z,
    fig7_output_vs_rate,
    fig8_output_vs_correlation,
    fig9_output_vs_m,
    fig10_adaptation,
    shard_scaleout,
)
from .harness import (
    ExperimentTable,
    WorkloadSpec,
    aligned_spec,
    calibrate_capacity,
    default_config,
    full_scale,
    improvement_pct,
    nonaligned_spec,
    run_grubjoin,
    run_random_drop,
)
from .instances import random_instance
from .replication import (
    Comparison,
    ReplicatedMetric,
    compare_seeds,
    replicate,
)
from .report import to_markdown, write_csv, write_markdown_report

__all__ = [
    "Comparison",
    "ExperimentTable",
    "ReplicatedMetric",
    "WorkloadSpec",
    "aligned_spec",
    "calibrate_capacity",
    "compare_seeds",
    "default_config",
    "fig10_adaptation",
    "fig4_optimality",
    "fig5_solver_runtime",
    "fig6_runtime_vs_z",
    "fig7_output_vs_rate",
    "fig8_output_vs_correlation",
    "fig9_output_vs_m",
    "full_scale",
    "improvement_pct",
    "nonaligned_spec",
    "random_instance",
    "replicate",
    "run_grubjoin",
    "run_random_drop",
    "shard_scaleout",
    "to_markdown",
    "write_csv",
    "write_markdown_report",
]
