"""Sharded parallel execution of windowed stream joins.

The paper sheds CPU load on a *single* operator; this package scales the
same operators *out*: ``K`` independent join instances (GrubJoin, MJoin,
or any :class:`~repro.engine.operator.StreamOperator`) run behind a
:class:`RouterOperator` that partitions the input streams (a key's
shard is ``crc32(key) % K``, so equal keys always meet on one shard),
and a :class:`MergerOperator` that combines the shard outputs into one
result stream with correct output-rate accounting.  The architecture
follows the shared-nothing partitioned designs of Chakraborty's
parallel windowed stream joins and Hu & Qiu's runtime-optimized m-way
operator (see PAPERS.md); ``docs/PARALLEL.md`` describes it in detail.

Two execution modes share that topology:

* the **virtual-time plan** (:func:`build_sharded_graph`): shards
  contend for the engine's M/G/k :class:`~repro.engine.cpu.CpuModel`
  (per-core busy-until accounting), and each adaptive shard keeps its
  own :class:`~repro.core.throttle.ThrottleController`, so load
  shedding stays local to the overloaded shards when routing is skewed;
* the **process runtime** (:func:`run_procs` in
  :mod:`repro.parallel.procs`): the same router/merger supervise K
  real ``multiprocessing`` workers over pickled-batch pipes.  The
  fleet is fixed at launch, and its merged output is bit-identical to
  the virtual-time plan's and to the oracle.
"""

from .merger import MergerOperator, shard_result_transform
from .procs import ProcsResult, run_procs
from .router import (
    RoutedTuple,
    RouterOperator,
    stable_key_hash,
)
from .sharded import ShardedPlan, build_sharded_graph

__all__ = [
    "MergerOperator",
    "ProcsResult",
    "RoutedTuple",
    "RouterOperator",
    "ShardedPlan",
    "build_sharded_graph",
    "run_procs",
    "shard_result_transform",
    "stable_key_hash",
]
