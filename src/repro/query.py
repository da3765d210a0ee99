"""Declarative continuous-query builder over the dataflow runtime.

A thin fluent layer for the common query shape the paper targets —
m input streams, one windowed join with a load-shedding policy, optional
downstream projection/filtering/aggregation::

    from repro.query import Query

    result = (
        Query()
        .streams(*sources)
        .window(20.0, basic=2.0)
        .join(EpsilonJoin(1.0), shedding="grubjoin")
        .project(lambda r: max(t.value for t in r.constituents))
        .where(lambda v: v < 900)
        .aggregate("count", window=5.0, slide=1.0)
        .run(capacity=1e6, duration=60.0, warmup=20.0)
    )

``run`` wires a :class:`repro.engine.graph.DataflowGraph`, executes it on
a fresh simulated CPU, and returns a :class:`QueryResult` exposing the
per-stage measurements and the join operator (for throttle/harvest
introspection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .core import GrubJoinOperator, ThrottledAggregateOperator
from .engine import (
    CpuModel,
    DataflowGraph,
    FilterOperator,
    GraphResult,
    MapOperator,
    SimulationConfig,
)
from .joins import JoinPredicate, MJoinOperator, RandomDropShedder
from .joins.variants import JoinMode
from .streams import StreamTuple
from .streams.windows import WindowPolicy, resolve_policy

#: load-shedding policies the builder understands
SHEDDING_POLICIES = ("grubjoin", "randomdrop", "none")


def _default_projection(result) -> StreamTuple:
    """JoinResult -> StreamTuple carrying the tuple of constituent values."""
    return StreamTuple(
        value=tuple(t.value for t in result.constituents),
        timestamp=result.timestamp,
        stream=0,
        seq=0,
    )


@dataclass
class QueryResult:
    """Outcome of one query run."""

    graph_result: GraphResult
    join_operator: Any
    shedder: RandomDropShedder | None
    stage_names: list[str]

    @property
    def output_rate(self) -> float:
        """Post-warm-up output rate of the query's final stage."""
        return self.graph_result.nodes[self.stage_names[-1]].output_rate

    def stage(self, name: str):
        """Per-stage measurements by node name."""
        return self.graph_result.nodes[name]


class Query:
    """Fluent builder: streams -> window -> join -> [stages] -> run."""

    def __init__(self) -> None:
        self._sources: list[Any] = []
        self._window: float | None = None
        self._basic: float | None = None
        self._predicate: JoinPredicate | None = None
        self._shedding = "grubjoin"
        self._mode = JoinMode.INNER
        self._policy = resolve_policy(None)
        self._join_kwargs: dict[str, Any] = {}
        self._stages: list[tuple[str, Any]] = []
        self._projection: Callable | None = None

    # ---- inputs ------------------------------------------------------

    def streams(self, *sources) -> "Query":
        """Attach the input stream sources (one per join input)."""
        self._sources = list(sources)
        return self

    def window(
        self,
        seconds: float,
        basic: float,
        policy: "WindowPolicy | str | None" = None,
    ) -> "Query":
        """Set the join window and basic-window sizes (seconds).

        ``policy`` selects the window membership policy over the same
        basic-window substrate: ``None``/``"sliding"`` (the paper's
        default), ``"tumbling"``, ``"session:<gap>"``, or a
        :class:`~repro.streams.windows.WindowPolicy` instance.
        """
        if seconds <= 0 or basic <= 0 or basic > seconds:
            raise ValueError("need 0 < basic <= window")
        self._window = float(seconds)
        self._basic = float(basic)
        self._policy = resolve_policy(policy)
        return self

    def join(
        self,
        predicate: JoinPredicate,
        shedding: str = "grubjoin",
        mode: "JoinMode | str" = JoinMode.INNER,
        **operator_kwargs,
    ) -> "Query":
        """Set the join predicate, load-shedding policy and join mode.

        ``shedding``: ``grubjoin`` (window harvesting), ``randomdrop``
        (drop operators in front of the buffers) or ``none`` (plain
        MJoin).  ``mode``: ``inner`` (default), ``semi``, ``anti`` or
        ``outer`` (the last two only with ``shedding="none"`` — P131).
        Extra kwargs go to the join operator, under every shedding
        policy — e.g. ``index="hash"`` / ``"range"`` / ``"adaptive"``
        for a partition index (:func:`repro.core.windex
        .check_index_compat`, checked by :meth:`validate` as P133).
        """
        if shedding not in SHEDDING_POLICIES:
            raise ValueError(
                f"shedding must be one of {SHEDDING_POLICIES}"
            )
        self._predicate = predicate
        self._shedding = shedding
        self._mode = JoinMode(mode)
        self._join_kwargs = operator_kwargs
        return self

    # ---- downstream stages -------------------------------------------

    def project(self, fn: Callable[[Any], Any]) -> "Query":
        """Project each join result to a payload (``JoinResult -> value``)."""
        self._projection = fn
        return self

    def where(self, predicate: Callable[[Any], bool]) -> "Query":
        """Filter projected payloads."""
        self._stages.append(("where", predicate))
        return self

    def select(self, fn: Callable[[Any], Any]) -> "Query":
        """Transform projected payloads."""
        self._stages.append(("select", fn))
        return self

    def aggregate(self, function: str, window: float,
                  slide: float) -> "Query":
        """Terminal sliding-window aggregate over the payloads."""
        self._stages.append(("aggregate", (function, window, slide)))
        return self

    # ---- execution -----------------------------------------------------

    def build(self, capacity: float) -> tuple[DataflowGraph, QueryResult]:
        """Assemble the dataflow graph (without running it)."""
        if not self._sources:
            raise ValueError("no input streams; call .streams(...)")
        if self._window is None or self._predicate is None:
            raise ValueError("call .window(...) and .join(...) first")
        m = len(self._sources)
        if m < 2:
            raise ValueError("a join needs at least two streams")

        plain = self._mode is JoinMode.INNER and self._policy.is_sliding
        graph = DataflowGraph()
        shedder: RandomDropShedder | None = None
        if self._shedding == "grubjoin":
            if not plain:
                raise ValueError(
                    "grubjoin shedding only speaks inner-mode "
                    "sliding-window joins (P131); use "
                    "shedding='randomdrop' or 'none'"
                )
            join_op: Any = GrubJoinOperator(
                self._predicate, [self._window] * m, self._basic,
                **self._join_kwargs,
            )
            graph.add_node("join", join_op)
        else:
            join_op = MJoinOperator(
                self._predicate, [self._window] * m, self._basic,
                mode=self._mode, window_policy=self._policy,
                **self._join_kwargs,
            )
            if self._shedding == "randomdrop":
                shedder = RandomDropShedder(join_op, capacity)
                graph.add_node("join", join_op,
                               admission=shedder.filters)
            else:
                graph.add_node("join", join_op)
        for i, source in enumerate(self._sources):
            graph.add_source("join", i, source)

        names = ["join"]
        projection = self._projection
        transform = (
            _default_projection
            if projection is None
            else lambda r, fn=projection: StreamTuple(
                value=fn(r), timestamp=r.timestamp, stream=0, seq=0
            )
        )
        previous = "join"
        pending_transform: Callable | None = transform
        for index, (kind, arg) in enumerate(self._stages):
            name = f"{kind}{index}"
            if kind == "where":
                graph.add_node(name, FilterOperator(arg))
            elif kind == "select":
                graph.add_node(name, MapOperator(arg))
            else:
                function, window, slide = arg
                graph.add_node(
                    name,
                    ThrottledAggregateOperator(
                        function, window_size=window, slide=slide
                    ),
                )
            graph.connect(previous, name, transform=pending_transform)
            pending_transform = None  # only the join edge needs it
            previous = name
            names.append(name)

        placeholder = QueryResult(
            graph_result=None,  # filled by run()
            join_operator=join_op,
            shedder=shedder,
            stage_names=names,
        )
        return graph, placeholder

    def validate(self, assumptions=None):
        """Run the static plan analyzer over the declared query.

        Returns a :class:`repro.lint.plan.PlanReport` listing every
        problem at once (unknown policy, non-divisible windows,
        slide > window, schema mismatches, infeasible harvest
        hypothesis, ...).  ``assumptions`` is an optional
        :class:`repro.lint.plan.HarvestAssumptions` enabling the
        symbolic §4 feasibility check ``z * C(1) >= C({z_ij})``.
        """
        from .lint.plan import analyze_query

        return analyze_query(self, assumptions)

    def run(
        self,
        capacity: float,
        duration: float = 60.0,
        warmup: float = 20.0,
        adaptation_interval: float = 5.0,
        validate: bool = True,
        obs=None,
    ) -> QueryResult:
        """Build and execute the query on a fresh simulated CPU.

        ``validate=True`` (the default) first runs the static plan
        analyzer and raises
        :class:`repro.lint.plan.PlanValidationError` when it reports
        ERROR-level findings, so misconfigured plans fail before any
        virtual time is spent.

        ``obs`` (a :class:`repro.obs.Obs`) is forwarded to
        :meth:`DataflowGraph.run` to instrument the whole run.
        """
        if validate:
            self.validate().raise_for_errors()
        graph, result = self.build(capacity)
        config = SimulationConfig(
            duration=duration,
            warmup=warmup,
            adaptation_interval=adaptation_interval,
        )
        # the analyzer already ran (or the caller opted out) — skip the
        # per-run graph validation to avoid doing the work twice
        result.graph_result = graph.run(
            CpuModel(capacity), config, validate=False, obs=obs
        )
        return result
