"""GrubJoin reproduction: load shedding for m-way windowed stream joins.

Reproduction of Gedik, Wu, Yu, Liu — "A Load Shedding Framework and
Optimizations for M-way Windowed Stream Joins" (ICDE 2007).

The public API re-exports the pieces a user composes for a typical run::

    from repro import (
        GrubJoinOperator, EpsilonJoin, StreamSource, ConstantRate,
        LinearDriftProcess, CpuModel, Simulation, SimulationConfig,
    )

See ``examples/quickstart.py`` for a complete scenario.
"""

from .core import (
    GrubJoinOperator,
    HarvestConfiguration,
    JoinProfile,
    Metric,
    PartitionedWindow,
    SolverResult,
    ThrottleController,
    ThrottledAggregateOperator,
    greedy_double_sided,
    greedy_pick,
    greedy_reverse,
    solve_naive,
    solve_optimal,
)
from .engine import (
    CpuModel,
    DataflowGraph,
    FilterOperator,
    MapOperator,
    Simulation,
    SimulationConfig,
    SimulationResult,
)
from .joins import (
    AdaptiveTwoWayJoin,
    EpsilonJoin,
    EquiJoin,
    IndexedMJoin,
    InnerProductJoin,
    MemoryLimitedMJoin,
    MJoinOperator,
    RandomDropShedder,
    VectorDistanceJoin,
)
from .streams import (
    ConstantRate,
    LinearDriftProcess,
    PiecewiseRate,
    PoissonArrivals,
    StreamSource,
    StreamTuple,
    TraceSource,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveTwoWayJoin",
    "ConstantRate",
    "CpuModel",
    "DataflowGraph",
    "EpsilonJoin",
    "EquiJoin",
    "FilterOperator",
    "GrubJoinOperator",
    "HarvestConfiguration",
    "IndexedMJoin",
    "InnerProductJoin",
    "JoinProfile",
    "LinearDriftProcess",
    "MJoinOperator",
    "MapOperator",
    "MemoryLimitedMJoin",
    "Metric",
    "PartitionedWindow",
    "PiecewiseRate",
    "PoissonArrivals",
    "RandomDropShedder",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "SolverResult",
    "StreamSource",
    "StreamTuple",
    "ThrottleController",
    "ThrottledAggregateOperator",
    "TraceSource",
    "VectorDistanceJoin",
    "greedy_double_sided",
    "greedy_pick",
    "greedy_reverse",
    "solve_naive",
    "solve_optimal",
]
