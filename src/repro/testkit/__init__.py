"""Correctness testkit: oracle, differential harness, chaos, sanitizer.

Four pieces, one contract:

* :mod:`~repro.testkit.oracle` — a brute-force reference join over
  recorded traces: the ground truth;
* :mod:`~repro.testkit.differential` — run any join path (MJoin,
  IndexedMJoin, GrubJoin, RandomDrop, ShardedPlan) on the same frozen
  workload and diff its identity set against the oracle (``equal`` for
  unconstrained runs, ``subset`` for shedding ones);
* :mod:`~repro.testkit.chaos` — deterministic fault injection (stalls,
  spikes, duplicates, reordering, CPU degradation), all replayable from
  a seed;
* :mod:`~repro.testkit.sanitizer` — runtime determinism sanitizer that
  shadow-tracks operators and hard-fails on shared containers, foreign
  writes and changed module or class globals.

``python -m repro.testkit`` runs the standard matrix and prints a
canonical JSON verdict; CI diffs two runs byte-for-byte.  The same
contracts as hypothesis properties over the workload space, join modes
and window policies are ``tests/testkit/test_properties.py``.
"""

from .chaos import (
    ChaosScenario,
    DegradedCpu,
    chaos_ids,
    chaos_matrix,
    default_scenarios,
    duplicate_delivery,
    rate_spike,
    reorder,
    stall,
)
from .differential import (
    DifferentialReport,
    MatrixSpec,
    calibrated_shed_capacity,
    compare,
    differential_matrix,
    grubjoin_ids,
    indexed_ids,
    mjoin_ids,
    oracle_ids,
    procs_ids,
    randomdrop_ids,
    run_config,
    sharded_ids,
)
from .oracle import (
    OracleResult,
    dedupe_tuples,
    effective_horizon,
    oracle_join,
    window_state,
)
from .sanitizer import (
    DeterminismSanitizer,
    DeterminismViolation,
    SanitizedOperator,
)
from .workloads import (
    Workload,
    band_workload,
    build_scenarios,
    default_workloads,
    drift_sources,
    drift_workload,
    freeze,
    key_sources,
    key_workload,
    mixed_key_workload,
    scenario_names,
    scenario_workload,
)

__all__ = [
    "ChaosScenario",
    "DegradedCpu",
    "DeterminismSanitizer",
    "DeterminismViolation",
    "DifferentialReport",
    "MatrixSpec",
    "OracleResult",
    "SanitizedOperator",
    "Workload",
    "band_workload",
    "build_scenarios",
    "calibrated_shed_capacity",
    "chaos_ids",
    "chaos_matrix",
    "compare",
    "dedupe_tuples",
    "default_scenarios",
    "default_workloads",
    "differential_matrix",
    "drift_sources",
    "drift_workload",
    "duplicate_delivery",
    "effective_horizon",
    "freeze",
    "grubjoin_ids",
    "indexed_ids",
    "key_sources",
    "key_workload",
    "mixed_key_workload",
    "mjoin_ids",
    "oracle_ids",
    "oracle_join",
    "procs_ids",
    "randomdrop_ids",
    "rate_spike",
    "reorder",
    "run_config",
    "scenario_names",
    "scenario_workload",
    "sharded_ids",
    "stall",
    "window_state",
]
