"""Assemble a sharded join plan: router -> K shard joins -> merger.

:func:`build_sharded_graph` wires the whole partitioned-parallel topology
into a :class:`repro.engine.graph.DataflowGraph`:

* the :class:`~repro.parallel.router.RouterOperator` receives every
  source stream and emits routed envelopes;
* ``K * m`` filtered fan-out edges deliver each envelope to the owning
  shard's matching input only (``Edge.filter`` keys on the envelope's
  shard and stream, the transform unwraps the plain tuple);
* ``K`` edges funnel shard join results into the
  :class:`~repro.parallel.merger.MergerOperator`, stamped with their
  shard of origin.

Every shard is an independent :class:`StreamOperator` instance — a
GrubJoin shard keeps its own :class:`ThrottleController`, selectivity
estimates and histograms, so shards shed independently when routing skew
overloads some of them.  All nodes contend for the one M/G/k
:class:`CpuModel` passed to :meth:`ShardedPlan.run`; per-core busy-until
accounting in the engine means K shards genuinely run in parallel up to
the core count.

The plan passes the static analyzer (``repro.lint.plan``): the router's
``"routed"`` output kind forces transforms on its fan-out edges (P102),
and P111 checks that the fan-out reaches exactly ``num_shards`` targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.engine.cpu import CpuModel
from repro.engine.graph import DataflowGraph, GraphResult
from repro.engine.operator import StreamOperator
from repro.engine.runtime import SimulationConfig
from repro.streams.tuples import StreamTuple

from .merger import MergerOperator, shard_result_transform
from .router import RoutedTuple, RouterOperator


def _unwrap(routed: RoutedTuple) -> StreamTuple:
    return routed.tuple


def certify_shard_operators(
    shard_ops: Sequence[StreamOperator],
    worker_entry: bool = False,
) -> None:
    """The build-time shard-safety gate (P124, on live objects).

    Runs :func:`repro.lint.plan.certify_shards` — the same function the
    plan analyzer runs at validate time — and raises
    :class:`repro.lint.plan.PlanValidationError` naming every container
    or array two instances can reach (P124; the classic bug: one window
    list, or one operator, handed to every shard).

    ``worker_entry=True`` adds P126: the process runtime is about to
    fork these operators, so no telemetry object — a bound obs sink
    included — may be reachable anywhere in their state graphs (worker
    telemetry is constructed post-fork and shipped back as JSONL with
    the worker's "bye" — see :mod:`repro.parallel.procs`).
    """
    from repro.lint.plan import certify_shards

    certify_shards(shard_ops, worker_entry=worker_entry).raise_for_errors()


def _shard_stream_filter(
    shard: int, stream: int
) -> Callable[[RoutedTuple], bool]:
    def _accept(routed: RoutedTuple) -> bool:
        return routed.shard == shard and routed.tuple.stream == stream

    return _accept


@dataclass
class ShardedPlan:
    """A fully wired sharded join topology, ready to run.

    Attributes:
        graph: the underlying dataflow graph.
        router: router node name.
        shards: shard node names, in shard order.
        merger: merger node name.
        router_op: the router operator (per-shard routing counts).
        merger_op: the merger operator (per-shard output accounting).
        shard_ops: the shard operators, in shard order.
    """

    graph: DataflowGraph
    router: str
    shards: list[str]
    merger: str
    router_op: RouterOperator
    merger_op: MergerOperator
    shard_ops: list[StreamOperator] = field(default_factory=list)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def run(
        self,
        cpu: CpuModel,
        config: SimulationConfig | None = None,
        *,
        validate: bool = True,
        retain_outputs: bool = False,
    ) -> GraphResult:
        """Execute the sharded plan on ``cpu`` (see DataflowGraph.run)."""
        return self.graph.run(cpu, config, validate=validate,
                              retain_outputs=retain_outputs)

    def output_rate(self, result: GraphResult) -> float:
        """The combined (merged) join output rate of a finished run."""
        return result.nodes[self.merger].output_rate

    def output_count(self, result: GraphResult) -> int:
        """Total merged join results over the whole run."""
        return result.nodes[self.merger].output_count

    def shard_output_counts(self, result: GraphResult) -> list[int]:
        """Per-shard local result counts (pre-merge), in shard order."""
        return [result.nodes[name].output_count for name in self.shards]

    def merged_result_ids(self, result: GraphResult) -> set:
        """Identity set of the merged join results of a retained run.

        Requires the plan to have run with ``retain_outputs=True``; each
        merger output is a :class:`StreamTuple` wrapping the shard's
        :class:`~repro.streams.tuples.JoinResult`, whose ``key()`` — the
        ``(stream, seq)`` pairs of its constituents — identifies the
        result independently of which shard produced it.  This is what
        the testkit's differential harness diffs against the oracle.
        """
        outputs = result.nodes[self.merger].outputs
        return {tup.value.key() for tup in outputs}

    def testkit_profile(self) -> dict:
        """Join semantics for the correctness oracle, taken from shard 0
        (every shard joins with identical geometry by construction)."""
        profile = self.shard_ops[0].testkit_profile()
        profile["num_shards"] = self.num_shards
        return profile


def build_sharded_graph(
    sources: Sequence[Any],
    make_shard: Callable[[int], StreamOperator],
    num_shards: int,
    certify: bool = True,
) -> ShardedPlan:
    """Wire router, shards and merger into one dataflow graph.

    Args:
        sources: one stream source per joined stream (attached to the
            router's inputs).
        make_shard: factory called with each shard index; every returned
            operator must consume ``len(sources)`` streams.  Give each
            shard its own operator instance — shards must not share
            windows or controllers.
        num_shards: how many join instances to run in parallel.
        certify: run the shard-safety gate
            (:func:`certify_shard_operators`) over the built shard
            operators — raises
            :class:`repro.lint.plan.PlanValidationError` when instances
            share a container or array (P124).  ``False`` skips the
            gate (the plan analyzer still catches it at validate
            time).

    Returns:
        The assembled :class:`ShardedPlan`.
    """
    if num_shards < 1:
        raise ValueError("need at least one shard")
    m = len(sources)
    router = RouterOperator(num_streams=m, num_shards=num_shards)
    merger = MergerOperator(num_shards)
    graph = DataflowGraph()
    graph.add_node("router", router)
    for s, source in enumerate(sources):
        graph.add_source("router", s, source)

    shard_names: list[str] = []
    shard_ops: list[StreamOperator] = []
    for k in range(num_shards):
        operator = make_shard(k)
        if operator.num_streams != m:
            raise ValueError(
                f"shard {k} consumes {operator.num_streams} streams, "
                f"but {m} sources were given"
            )
        name = f"shard{k}"
        graph.add_node(name, operator)
        for s in range(m):
            graph.connect(
                "router",
                name,
                target_input=s,
                transform=_unwrap,
                filter=_shard_stream_filter(k, s),
            )
        shard_names.append(name)
        shard_ops.append(operator)

    if certify:
        certify_shard_operators(shard_ops)

    graph.add_node("merger", merger)
    for k, name in enumerate(shard_names):
        graph.connect(
            name, "merger", target_input=0,
            transform=shard_result_transform(k),
        )
    return ShardedPlan(
        graph=graph,
        router="router",
        shards=shard_names,
        merger="merger",
        router_op=router,
        merger_op=merger,
        shard_ops=shard_ops,
    )
