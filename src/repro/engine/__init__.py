"""Mini-DSMS runtime: virtual clock, buffers, simulated CPU, event loop.

This package is the substrate the paper ran on System S for: a stream
processing host that feeds input buffers, schedules a join operator on a
CPU, and measures output rates.  Here the CPU is simulated (capacity in
tuple comparisons per virtual second) so CPU load shedding experiments are
deterministic and host-independent.
"""

from .basic_ops import FilterOperator, MapOperator
from .buffers import BufferStats, InputBuffer, OutputBuffer
from .clock import ClockError, VirtualClock
from .cpu import CpuModel
from .events import Event, EventKind, EventQueue
from .graph import (
    DataflowGraph,
    Edge,
    GraphResult,
    NodeResult,
    SimulationConfig,
)
from .metrics import SimulationResult, StreamCounters
from .operator import (
    AdmissionFilter,
    ProcessReceipt,
    StreamOperator,
)
from .runtime import Simulation

__all__ = [
    "AdmissionFilter",
    "BufferStats",
    "ClockError",
    "CpuModel",
    "DataflowGraph",
    "Edge",
    "Event",
    "EventKind",
    "EventQueue",
    "FilterOperator",
    "GraphResult",
    "InputBuffer",
    "MapOperator",
    "NodeResult",
    "OutputBuffer",
    "ProcessReceipt",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "StreamCounters",
    "StreamOperator",
    "VirtualClock",
]
