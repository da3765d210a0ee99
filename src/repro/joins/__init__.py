"""Join substrate: predicates, join orders, the full MJoin, RandomDrop.

Everything here is shedding-agnostic plumbing plus the two comparison
points of the paper's evaluation: the full (non-shedding) MJoin reference
and the RandomDrop tuple-dropping baseline.
"""

from .age_based import EvictionPolicy, MemoryLimitedMJoin
from .columnar import run_pipeline_columnar, select_kernel, supports_columnar
from .drop_optimizer import DropPlan, evaluate_plan, optimize_keep_fractions
from .indexed import IndexedMJoin
from .join_order import default_orders, low_selectivity_first, validate_order
from .mjoin import MJoinOperator
from .pipeline import HopStats, PipelineResult, merge_slices, run_pipeline
from .predicates import (
    BandJoin,
    EpsilonJoin,
    EquiJoin,
    InnerProductJoin,
    JoinPredicate,
    VectorDistanceJoin,
)
from .random_drop import RandomDropFilter, RandomDropShedder
from .selectivity import SelectivityEstimator
from .two_way import AdaptiveTwoWayJoin
from .variants import SHEDDABLE_MODES, JoinMode, ModeState

__all__ = [
    "AdaptiveTwoWayJoin",
    "BandJoin",
    "DropPlan",
    "EpsilonJoin",
    "EquiJoin",
    "EvictionPolicy",
    "HopStats",
    "IndexedMJoin",
    "InnerProductJoin",
    "JoinMode",
    "JoinPredicate",
    "MJoinOperator",
    "MemoryLimitedMJoin",
    "ModeState",
    "PipelineResult",
    "RandomDropFilter",
    "RandomDropShedder",
    "SHEDDABLE_MODES",
    "SelectivityEstimator",
    "VectorDistanceJoin",
    "default_orders",
    "evaluate_plan",
    "low_selectivity_first",
    "merge_slices",
    "optimize_keep_fractions",
    "run_pipeline",
    "run_pipeline_columnar",
    "select_kernel",
    "supports_columnar",
    "validate_order",
]
