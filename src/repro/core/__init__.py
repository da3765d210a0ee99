"""GrubJoin core: the paper's contribution.

Window partitioning (:mod:`basic_windows`), operator throttling
(:mod:`throttle`), window harvesting (:mod:`cost_model`,
:mod:`brute_force`, :mod:`greedy`, :mod:`harvesting`) and time-correlation
learning (:mod:`histograms`, :mod:`scores`, :mod:`shredding`), assembled
into the :class:`GrubJoinOperator`.
"""

from .aggregate import AggregateResult, ThrottledAggregateOperator
from .basic_windows import (
    GENERIC,
    SCALAR,
    VECTOR,
    PartitionedWindow,
    WindowSlice,
)
from .brute_force import solve_naive, solve_optimal
from .cost_model import JoinProfile, uniform_masses
from .greedy import Metric, greedy_double_sided, greedy_pick, greedy_reverse
from .grubjoin import GrubJoinOperator
from .harvesting import HarvestConfiguration
from .histograms import EquiWidthHistogram
from .scores import rank_scores, scores_from_histograms
from .shredding import shred_slices_for_hop, shredded_slices
from .solver_result import SolverResult
from .throttle import FixedThrottle, ThrottleController
from .windex import (
    PartitionTable,
    WindexTelemetry,
    WindowIndexState,
    check_index_compat,
    make_index_states,
)

__all__ = [
    "AggregateResult",
    "EquiWidthHistogram",
    "FixedThrottle",
    "GENERIC",
    "GrubJoinOperator",
    "HarvestConfiguration",
    "JoinProfile",
    "Metric",
    "PartitionTable",
    "PartitionedWindow",
    "SCALAR",
    "SolverResult",
    "ThrottleController",
    "ThrottledAggregateOperator",
    "VECTOR",
    "WindexTelemetry",
    "WindowIndexState",
    "WindowSlice",
    "check_index_compat",
    "greedy_double_sided",
    "greedy_pick",
    "greedy_reverse",
    "make_index_states",
    "rank_scores",
    "scores_from_histograms",
    "shred_slices_for_hop",
    "shredded_slices",
    "solve_naive",
    "solve_optimal",
    "uniform_masses",
]
