"""Stream substrate: tuples, value processes, arrivals, sources.

This package models the *inputs* of the join: timestamped tuple streams
with configurable arrival processes and join-attribute value processes,
including the paper's synthetic workload (:class:`LinearDriftProcess`) and
the correlated worlds behind its two motivating applications.
"""

from .arrivals import (
    ArrivalProcess,
    ConstantRate,
    PiecewiseRate,
    PoissonArrivals,
)
from .correlated import ObjectWorld, TopicWorld
from .disorder import DisorderedSource
from .source import StreamSource
from .stochastic import (
    ConstantProcess,
    DiscreteUniformProcess,
    LinearDriftProcess,
    UniformProcess,
    ValueProcess,
    ZipfKeyProcess,
)
from .trace import TraceSource, record_trace
from .tuples import JoinResult, StreamTuple
from .windows import (
    SLIDING,
    SessionWindow,
    SlidingWindow,
    TumblingWindow,
    WindowPolicy,
    resolve_policy,
)

__all__ = [
    "ArrivalProcess",
    "ConstantProcess",
    "ConstantRate",
    "DiscreteUniformProcess",
    "DisorderedSource",
    "JoinResult",
    "LinearDriftProcess",
    "ObjectWorld",
    "PiecewiseRate",
    "PoissonArrivals",
    "SLIDING",
    "SessionWindow",
    "SlidingWindow",
    "StreamSource",
    "StreamTuple",
    "TopicWorld",
    "TraceSource",
    "TumblingWindow",
    "UniformProcess",
    "ValueProcess",
    "WindowPolicy",
    "ZipfKeyProcess",
    "record_trace",
    "resolve_policy",
]
