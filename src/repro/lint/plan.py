"""Static query-plan analyzer (the ``P``-series checks).

Validates a configured :class:`repro.engine.graph.DataflowGraph` *before*
any tuple flows, the way compile-time front-ends of multi-way join
systems validate operator graphs.  A misconfigured plan should fail
here, with every problem reported at once, instead of raising (or
silently misbehaving) minutes into a simulation.

Checks
======

=====  ==================================================================
P101   Operator graph must be acyclic (the scheduler assumes a DAG; a
       cycle feeds outputs back into their own input buffers forever).
P102   Schema compatibility: an edge whose source emits join results
       (``output_kind == "join-result"``) must carry a ``transform``
       turning them into the ``StreamTuple`` the target consumes.
P103   Every join window ``w_i`` must be an integral multiple of the
       basic window ``b`` (the logical basic-window algebra of §4.1.1
       assumes ``w = n * b``).
P107   Every operator input should be fed by a source or an edge
       (warning: a starved input usually means a wiring mistake).
P109   Aggregate windows should be an integral multiple of the slide
       (warning: ragged emission boundaries).
P111   Router fan-out: a partitioning router (``output_kind ==
       "routed"``, declaring ``num_shards``) must feed exactly
       ``num_shards`` distinct shard targets, and every fan-out edge
       must carry a ``filter`` — an unfiltered edge would deliver every
       routed tuple to every shard (duplicated results), a missing
       target would silently drop that shard's share of the input.
P121   Merger order-insensitivity: an operator that fans shard outputs
       back in must declare ``order_insensitive = True`` (or expose a
       ``merge_key``) — shard completion order is scheduling-dependent,
       and an order-sensitive merge would make results depend on it.
P124   Instance aliasing: no container or array (list, dict, set,
       deque, ndarray, bytearray, memoryview) may be reachable from two
       of the *actual* shard operator instances (a shared read-only
       predicate object is fine; a shared window list is one shard
       scribbling on another).  A shard factory returning one instance
       for two shards is the limiting case: every container is shared.
P126   Worker telemetry (process runtime): worker telemetry is
       constructed *post-fork* and stays private to its worker — no
       telemetry-plane object (a bound ``Obs`` sink, registry,
       instrument, span/flight recorder) may be reachable anywhere in
       a to-be-forked operator's state graph, and no two worker probes
       may reach the same telemetry object (cross-worker sharing).
P130   Mode placement: shard targets behind a router require the
       paper's home configuration — inner mode over sliding windows.
       An anti or outer join with outgoing edges is a WARNING: its
       end-of-run flush is recorded on the join node but travels no
       edge (nothing is serviced after ``STOP``).
P131   Shedding soundness: an admission filter in front of an anti or
       outer join is an ERROR — dropping a tuple's matches turns the
       tuple into a spurious "survivor", inventing results instead of
       losing them.
P132   Session-gap geometry (warnings): a session gap that is not an
       integral multiple of the basic window makes expiry granularity
       ragged; a gap at or above the effective window horizon can
       never close a session inside the window, degenerating the
       policy to sliding.
=====  ==================================================================

The constructors refuse what they cannot build, so the analyzer never
sees it: :class:`~repro.core.aggregate.ThrottledAggregateOperator`
raises on an unknown function or a bad slide
(:func:`repro.core.aggregate.aggregate_errors`, once P108 / P104), a
join operator on an ``index=`` spec its predicate cannot serve
(:func:`repro.core.windex.check_index_compat`, once P133), and
``GrubJoinOperator`` takes no join mode or window policy (its harvest
algebra is defined for inner-mode sliding windows only).

The shard checks (P121, P124) run exactly when the graph contains a
routed topology; P124/P126 are one function, :func:`certify_shards`,
shared with the build-time gate.  All of them look at live objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import TYPE_CHECKING, Any, Sequence

from .diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.graph import DataflowGraph

#: relative tolerance for the divisibility checks
_DIV_TOL = 1e-9


class PlanValidationError(ValueError):
    """Raised by ``raise_for_errors`` when a plan has ERROR findings."""

    def __init__(self, report: "PlanReport") -> None:
        self.report = report
        lines = [d.render() for d in report.errors]
        super().__init__(
            "invalid query plan:\n  " + "\n  ".join(lines)
        )


@dataclass
class PlanReport:
    """All diagnostics from one plan analysis."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no ERROR-level findings exist."""
        return not self.errors

    def add(
        self,
        code: str,
        message: str,
        severity: Severity = Severity.ERROR,
        node: str | None = None,
    ) -> None:
        self.diagnostics.append(
            Diagnostic(code=code, message=message, severity=severity,
                       node=node)
        )

    def raise_for_errors(self) -> None:
        """Raise :class:`PlanValidationError` if any ERROR was found."""
        if not self.ok:
            raise PlanValidationError(self)

    def render(self) -> str:
        if not self.diagnostics:
            return "plan ok: no findings"
        return "\n".join(d.render() for d in self.diagnostics)


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def _is_multiple(value: float, base: float) -> bool:
    if base <= 0:
        return False
    ratio = value / base
    return abs(ratio - round(ratio)) <= _DIV_TOL * max(ratio, 1.0)


def _check_join_windows(
    report: PlanReport,
    window_sizes: Sequence[float],
    basic: float,
    node: str,
) -> None:
    for i, w in enumerate(window_sizes):
        if not _is_multiple(w, basic):
            report.add(
                "P103",
                f"window w_{i + 1}={w:g}s is not an integral multiple "
                f"of the basic window b={basic:g}s; the logical "
                "basic-window algebra assumes w = n*b",
                node=node,
            )


def _join_mode_of(op: Any):
    """The operator's :class:`~repro.joins.variants.JoinMode`, if any."""
    from repro.joins.variants import JoinMode

    mode = getattr(op, "mode", None)
    return mode if isinstance(mode, JoinMode) else None


def _window_policy_of(op: Any):
    """The operator's :class:`~repro.streams.windows.WindowPolicy`."""
    from repro.streams.windows import WindowPolicy

    policy = getattr(op, "window_policy", None)
    return policy if isinstance(policy, WindowPolicy) else None


def _check_session_policy(
    report: PlanReport,
    policy: Any,
    window_sizes: Sequence[float],
    basic: float,
    node: str,
) -> None:
    """P132 — session-gap geometry warnings."""
    from repro.streams.windows import SessionWindow

    if not isinstance(policy, SessionWindow):
        return
    if not _is_multiple(policy.gap, basic):
        report.add(
            "P132",
            f"session gap={policy.gap:g}s is not an integral multiple "
            f"of the basic window b={basic:g}s; gap boundaries land "
            "mid-slice, so session expiry granularity is ragged",
            severity=Severity.WARNING,
            node=node,
        )
    horizon = min(
        math.ceil(w / basic) * basic for w in window_sizes
    )
    if policy.gap >= horizon:
        report.add(
            "P132",
            f"session gap={policy.gap:g}s is >= the effective window "
            f"horizon {horizon:g}s; no session can close inside the "
            "window, so the policy degenerates to sliding",
            severity=Severity.WARNING,
            node=node,
        )


def _check_aggregate(
    report: PlanReport, window: float, slide: float, node: str
) -> None:
    """P109 — ragged emission boundaries (the constructor already
    refused a bad function or slide)."""
    if not _is_multiple(window, slide):
        report.add(
            "P109",
            f"aggregate window={window:g}s is not a multiple of "
            f"slide={slide:g}s; emission boundaries will be ragged",
            severity=Severity.WARNING,
            node=node,
        )


# --------------------------------------------------------------------------
# shard-safety checks (P121, P124, P126)
# --------------------------------------------------------------------------


def certify_shards(
    shard_ops: Sequence[Any],
    labels: Sequence[str] | None = None,
    *,
    worker_entry: bool = False,
) -> PlanReport:
    """The shard-safety gate on live objects: P124 (+ P126 for worker
    entry).

    The only implementation of both checks: the plan analyzer runs it
    per routed shard group, ``build_sharded_graph`` and ``run_procs``
    through :func:`repro.parallel.sharded.certify_shard_operators`.

    * P124 — no container or array is reachable from two of the
      instances (one instance handed to two shards shares every
      container it holds);
    * P126 — ``worker_entry=True``: the process runtime is about to
      fork these operators, see :func:`_check_worker_telemetry`.

    ``labels`` name the operators in messages (default ``shard<k>``).
    """
    from .stategraph import shared_containers

    if labels is None:
        labels = [f"shard{k}" for k in range(len(shard_ops))]
    report = PlanReport()
    if worker_entry:
        _check_worker_telemetry(report, shard_ops, labels)
    for shared in shared_containers(shard_ops):
        hits = shared.sites(labels)
        report.add(
            "P124",
            f"shard instances share one mutable {shared.type_name} "
            f"({shared.render()}) reachable through written state; "
            f"writes at {', '.join(hits)} would leak across shards — "
            "give every shard its own instance",
            node=hits[0].split(".", 1)[0],
        )
    return report


def _check_worker_telemetry(
    report: PlanReport, shard_ops: Sequence[Any], labels: Sequence[str]
) -> None:
    """P126 — worker telemetry is constructed post-fork and private.

    The cross-process telemetry plane builds each worker's
    :class:`~repro.obs.Obs` *inside the forked child* and ships its
    recording back with the worker's "bye" (write-only from the shard);
    the supervisor's merge is the only reader.  That design holds only
    if the operators about to be forked carry no telemetry at all:

    * any reachable telemetry-plane object (an ``Obs`` bound with
      ``bind_obs``, a registry or instrument, a span or flight
      recorder) was necessarily constructed *pre-fork* — the forked
      copy would record into dead supervisor-side state instead of the
      worker's own post-fork plane (bind obs on the supervisor's
      router/merger instead);
    * one telemetry object reachable from two worker probes is
      cross-worker sharing: after the fork it silently becomes K
      divergent copies no runtime check can see across.

    Walks the operator's whole reachable state graph, *including* the
    ``obs``/``_obs*`` roots the P124 aliasing walk deliberately skips.
    """
    from .stategraph import is_telemetry_object, walk_state

    owners: dict[int, tuple[int, str]] = {}
    for k, op in enumerate(shard_ops):
        for node in walk_state(op, include_telemetry=True):
            if not is_telemetry_object(node.obj):
                continue
            type_name = type(node.obj).__qualname__
            prior = owners.get(id(node.obj))
            if prior is None:
                owners[id(node.obj)] = (k, node.path)
                report.add(
                    "P126",
                    f"worker operator {labels[k]} "
                    f"({type(op).__qualname__}) reaches telemetry "
                    f"object {type_name} at {node.path!r} before the "
                    "fork; worker telemetry must be constructed inside "
                    "the child (the procs runtime builds each worker's "
                    "Obs post-fork and ships its recording back)",
                    node=labels[k],
                )
            elif prior[0] != k:
                report.add(
                    "P126",
                    f"telemetry object {type_name} is reachable from "
                    f"worker probes {prior[0]} (at {prior[1]!r}) and "
                    f"{k} (at {node.path!r}) — cross-worker telemetry "
                    "sharing",
                    node=labels[k],
                )


def _shard_checks(
    report: PlanReport,
    nodes: dict[str, Any],
    shard_groups: list[tuple[str, list[str]]],
    edges: list[Any],
) -> None:
    """P121 / P124 over a routed plan."""
    for _router_name, targets in shard_groups:
        report.diagnostics.extend(
            certify_shards([nodes[t] for t in targets], targets)
            .diagnostics
        )

        # P121 — whatever fans the shards back in must tolerate any
        # shard completion order
        merge_targets = sorted({
            e.target for e in edges
            if e.source in targets and e.target not in targets
        })
        for merge_target in merge_targets:
            merger_op = nodes[merge_target]
            if getattr(merger_op, "order_insensitive", False):
                continue
            if getattr(merger_op, "merge_key", None) is not None:
                continue
            report.add(
                "P121",
                f"operator {type(merger_op).__qualname__} on node "
                f"{merge_target!r} merges {len(targets)} shard streams "
                "but neither declares order_insensitive = True nor "
                "exposes a merge_key; shard completion order is "
                "scheduling-dependent and would leak into results",
                node=merge_target,
            )


# --------------------------------------------------------------------------
# graph analysis
# --------------------------------------------------------------------------


def analyze_graph(graph: "DataflowGraph") -> PlanReport:
    """Validate a constructed dataflow graph (checks P101-P132, plus the
    shard-safety checks P121/P124 for routed topologies)."""
    report = PlanReport()
    for name, op in graph.node_operators().items():
        _check_operator(report, op, name)
    _check_topology(report, graph)
    return report


def _check_operator(report: PlanReport, op: Any, name: str) -> None:
    """P103 / P132 on a join's windows, P109 on an aggregate's."""
    window_sizes = getattr(op, "window_sizes", None)
    basic = getattr(op, "basic_window_size", None)
    if window_sizes is not None and basic is not None:
        _check_join_windows(report, window_sizes, basic, name)
        policy = _window_policy_of(op)
        if policy is not None:
            _check_session_policy(report, policy, window_sizes, basic,
                                  name)
    slide = getattr(op, "slide", None)
    window = getattr(op, "window_size", None)
    if slide is not None and window is not None:
        _check_aggregate(report, window, slide, name)


def _check_topology(report: PlanReport, graph: "DataflowGraph") -> None:
    """The checks that read edges, sources and admission filters: P101,
    P102, P107, P111, P130, P131 and the shard checks P121 / P124."""
    nodes = graph.node_operators()
    edges = graph.edge_list()

    # P101 — cycle detection
    adjacency: dict[str, list[str]] = {name: [] for name in nodes}
    preds: dict[str, list[str]] = {name: [] for name in nodes}
    for edge in edges:
        adjacency[edge.source].append(edge.target)
        preds[edge.target].append(edge.source)
    try:
        TopologicalSorter(preds).prepare()
    except CycleError as error:
        cycle = error.args[1]
        report.add(
            "P101",
            "operator graph contains a cycle: " + " -> ".join(cycle),
            node=cycle[0],
        )

    # P102 — schema compatibility along edges
    for edge in edges:
        producer = nodes[edge.source]
        kind = getattr(producer, "output_kind", "tuple")
        if kind != "tuple" and edge.transform is None:
            report.add(
                "P102",
                f"edge {edge.source!r} -> {edge.target!r} carries "
                f"{kind} outputs but has no transform; the target "
                "consumes StreamTuples",
                node=edge.target,
            )

    # P130 — an anti / outer flush travels no edge
    for name, op in nodes.items():
        mode = _join_mode_of(op)
        if (
            mode is not None
            and mode.value in ("anti", "outer")
            and adjacency[name]
        ):
            report.add(
                "P130",
                f"node {name!r} runs an {mode.value} join with outgoing "
                "edges; survivors released by the end-of-run flush are "
                "recorded on this node but not forwarded (nothing is "
                "serviced after STOP), so downstream stages miss them",
                severity=Severity.WARNING,
                node=name,
            )

    # P131 — shedding in front of an anti / outer join invents survivors
    admission = graph.node_admission()
    for name, op in nodes.items():
        mode = _join_mode_of(op)
        if (
            mode is not None
            and mode.value in ("anti", "outer")
            and any(gate is not None for gate in admission[name])
        ):
            report.add(
                "P131",
                f"node {name!r} sheds in front of an {mode.value} join: "
                "dropping a tuple's matches makes the tuple a spurious "
                "survivor, so shedding would invent results instead of "
                "losing them; run it without admission filters",
                node=name,
            )

    # P107 — starved inputs
    fed = {(node_name, i) for node_name, i, _source in graph.source_list()}
    fed.update((edge.target, edge.target_input) for edge in edges)
    for name, op in nodes.items():
        for i in range(getattr(op, "num_streams", 1)):
            if (name, i) not in fed:
                report.add(
                    "P107",
                    f"input {i} of node {name!r} is fed by no source "
                    "and no edge; the operator will starve",
                    severity=Severity.WARNING,
                    node=name,
                )

    # P111 — router fan-out coverage and filtering
    shard_groups: list[tuple[str, list[str]]] = []
    for name, op in nodes.items():
        if getattr(op, "output_kind", "tuple") != "routed":
            continue
        num_shards = getattr(op, "num_shards", None)
        if num_shards is None:
            continue
        fanout = [e for e in edges if e.source == name]
        targets = {e.target for e in fanout}
        shard_groups.append((name, sorted(targets)))
        if len(targets) != num_shards:
            report.add(
                "P111",
                f"router {name!r} declares {num_shards} shards but its "
                f"fan-out reaches {len(targets)} distinct target(s); "
                "unreached shards would silently receive none of the "
                "input",
                node=name,
            )
        for e in fanout:
            if e.filter is None:
                report.add(
                    "P111",
                    f"fan-out edge {name!r} -> {e.target!r} has no "
                    "filter; every routed tuple would be delivered to "
                    "every shard, duplicating results",
                    node=name,
                )

    # P130 — shard targets must run the certified home configuration
    for router_name, targets in shard_groups:
        for target in targets:
            op = nodes[target]
            mode = _join_mode_of(op)
            policy = _window_policy_of(op)
            offending = []
            if mode is not None and mode.value != "inner":
                offending.append(f"mode={mode.value}")
            if policy is not None and not policy.is_sliding:
                offending.append(f"window_policy={policy.name}")
            if offending:
                report.add(
                    "P130",
                    f"shard node {target!r} behind router "
                    f"{router_name!r} runs {', '.join(offending)}; "
                    "hash-partitioned sharding is only certified for "
                    "inner-mode sliding-window joins",
                    node=target,
                )

    # P121 / P124 — shard safety of routed plans
    if shard_groups:
        _shard_checks(report, nodes, shard_groups, edges)
