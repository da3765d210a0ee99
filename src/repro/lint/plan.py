"""Static query-plan analyzer (the ``P``-series checks).

Validates a configured :class:`repro.engine.graph.DataflowGraph` or a
declarative :class:`repro.query.Query` *before* any tuple flows, the way
compile-time front-ends of multi-way join systems validate operator
graphs.  A misconfigured plan should fail here, with every problem
reported at once, instead of raising (or silently misbehaving) minutes
into a simulation.

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
P104   Aggregates need ``slide <= window``.
P105   The load-shedding policy must be one the builder knows.
P106   Harvest feasibility: a hypothesised harvest configuration must
       satisfy the paper's §4 constraint ``z * C(1) >= C({z_ij})``.
P107   Every operator input should be fed by a source or an edge
       (warning: a starved input usually means a wiring mistake).
P108   Aggregate function must exist.
P109   Aggregate windows should be an integral multiple of the slide
       (warning: ragged emission boundaries).
P110   A query aggregating join results needs ``.project(...)`` (or a
       scalar ``.select(...)``): the default projection packs each
       result into a tuple of constituent values, which the numeric
       aggregate window cannot store.
P111   Router fan-out: a partitioning router (``output_kind ==
       "routed"``, declaring ``num_shards``) must feed exactly
       ``num_shards`` distinct shard targets, and every fan-out edge
       must carry a ``filter`` — an unfiltered edge would deliver every
       routed tuple to every shard (duplicated results), a missing
       target would silently drop that shard's share of the input.
P120   Shard safety: every operator replicated behind a router must
       certify ``pure``/``stream-local``/``shard-safe`` in the effect
       manifest (:mod:`repro.lint.effects`); a ``shared-state`` or
       ``unknown`` operator is never sharded.
P121   Merger order-insensitivity: an operator that fans shard outputs
       back in must declare ``order_insensitive = True`` (or expose a
       ``merge_key``) or certify ``pure`` — shard completion order is
       scheduling-dependent, and an order-sensitive merge would make
       results depend on it.
P122   Telemetry direction: operator entry paths may *write* obs
       instruments but never read them; reading telemetry feeds the
       metrics plane back into results and (under sharding) couples
       shards through the shared obs tree.
P124   Instance aliasing: the *actual* shard operator instances must
       not share mutable objects reachable through attributes their
       certificates say they write (a shared read-only table is fine;
       a shared written window is one shard scribbling on another).
       A shard factory returning one instance for two shards is the
       limiting case: every written root is aliased.
P126   Worker telemetry (process runtime): worker telemetry is
       constructed *post-fork* and stays private to its worker — no
       telemetry-plane object (a bound ``Obs`` sink, registry,
       instrument, span/flight recorder, delta shipper) may be
       reachable anywhere in a to-be-forked operator's state graph,
       and no two worker probes may reach the same telemetry object
       (cross-worker sharing).
P130   Mode placement: shard targets behind a router require the
       paper's home configuration — inner mode over sliding windows.
       An anti or outer join with outgoing edges is a WARNING: its
       end-of-run flush is recorded on the join node but travels no
       edge (nothing is serviced after ``STOP``).
P131   Shedding soundness: load shedding with an anti or outer join is
       an ERROR — dropping a tuple's matches turns the tuple into a
       spurious "survivor", inventing results instead of losing them.
       The ``grubjoin`` policy further requires inner-mode
       sliding-window joins (the only configuration its harvest
       algebra is defined for).
P132   Session-gap geometry (warnings): a session gap that is not an
       integral multiple of the basic window makes expiry granularity
       ragged; a gap at or above the effective window horizon can
       never close a session inside the window, degenerating the
       policy to sliding.
P133   Partition-index compatibility: an ``index=`` spec must agree
       with the predicate's capabilities — the single contract of
       :func:`repro.core.windex.check_index_compat` (columnar-capable
       predicate; ``hash`` only for exact equi probes, radius 0).
       Checked on a declared query's ``.join(index=...)``; a built
       operator already passed the same check in its constructor.
=====  ==================================================================

The effect checks (P120-P124) run exactly when the graph contains a
routed topology; P120/P124/P126 are one function,
:func:`certify_shards`, shared with the build-time gate.

Feasibility (P106) is *symbolic*: rates, selectivities and throttle come
from :class:`HarvestAssumptions`, not from a run.  With uniform
time-correlation masses it reduces to checking the §4.2.2 pipeline cost
model, exactly what the greedy solver enforces at runtime — the analyzer
catches configurations the solver could never make feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

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


@dataclass
class HarvestAssumptions:
    """Workload hypothesis for the symbolic feasibility check (P106).

    Attributes:
        rates: assumed per-stream arrival rates ``lambda_i`` (tuples/s).
        throttle: the throttle fraction ``z`` the plan must survive.
        counts: hypothesised harvest counts ``{z_ij}`` as an
            ``(m, m-1)`` array of logical-basic-window counts; None
            means the full join (every logical window selected) — the
            strictest configuration.
        selectivity: assumed uniform per-hop selectivity.
    """

    rates: Sequence[float]
    throttle: float = 1.0
    counts: Any = None
    selectivity: float = 0.005

    def __post_init__(self) -> None:
        if not 0 < self.throttle <= 1:
            raise ValueError("throttle must be in (0, 1]")
        if not 0 < self.selectivity <= 1:
            raise ValueError("selectivity must be in (0, 1]")


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
    report: PlanReport,
    function: str,
    window: float,
    slide: float,
    node: str,
) -> None:
    from repro.core.aggregate import _AGGREGATES

    if function not in _AGGREGATES:
        report.add(
            "P108",
            f"unknown aggregate function {function!r}; choose from "
            f"{sorted(_AGGREGATES)}",
            node=node,
        )
    if slide <= 0 or window <= 0:
        report.add(
            "P104",
            f"aggregate window/slide must be positive "
            f"(window={window:g}, slide={slide:g})",
            node=node,
        )
    elif slide > window:
        report.add(
            "P104",
            f"aggregate slide={slide:g}s exceeds its window="
            f"{window:g}s; every emission would drop tuples unseen",
            node=node,
        )
    elif not _is_multiple(window, slide):
        report.add(
            "P109",
            f"aggregate window={window:g}s is not a multiple of "
            f"slide={slide:g}s; emission boundaries will be ragged",
            severity=Severity.WARNING,
            node=node,
        )


def check_harvest_feasibility(
    profile: Any,
    throttle: float,
    counts: Any = None,
) -> Diagnostic | None:
    """P106 against an explicit :class:`repro.core.cost_model.JoinProfile`.

    Returns the diagnostic when ``throttle * C(1) < C(counts)``, else
    None.  ``counts=None`` checks the full configuration.
    """
    if counts is None:
        counts = profile.full_counts()
    counts = np.asarray(counts, dtype=float)
    cost = profile.cost(counts)
    budget = throttle * profile.full_cost()
    if cost <= budget * (1 + 1e-12):
        return None
    return Diagnostic(
        code="P106",
        message=(
            f"harvest configuration infeasible: C({{z_ij}})={cost:.4g} "
            f"exceeds the budget z*C(1)={budget:.4g} "
            f"(z={throttle:g}); the §4 constraint z*C(1) >= C({{z_ij}}) "
            "cannot hold"
        ),
        severity=Severity.ERROR,
        node="join",
    )


def _feasibility_profile(
    m: int,
    window_sizes: Sequence[float],
    basic: float,
    assumptions: HarvestAssumptions,
) -> Any:
    """Build the symbolic JoinProfile the P106 check evaluates."""
    from repro.core.cost_model import JoinProfile, uniform_masses
    from repro.joins.join_order import default_orders

    rates = np.asarray(assumptions.rates, dtype=float)
    if len(rates) != m:
        raise ValueError(
            f"assumptions carry {len(rates)} rates for {m} streams"
        )
    segments = np.array(
        [max(1, math.ceil(w / basic)) for w in window_sizes], dtype=int
    )
    window_counts = rates * np.asarray(window_sizes, dtype=float)
    orders = default_orders(m)
    selectivity = np.full((m, m), assumptions.selectivity)
    return JoinProfile(
        rates=rates,
        window_counts=window_counts,
        segments=segments,
        selectivity=selectivity,
        orders=orders,
        masses=uniform_masses(segments, orders),
    )


# --------------------------------------------------------------------------
# effect certification checks (P120-P126)
# --------------------------------------------------------------------------


def certify_shards(
    shard_ops: Sequence[Any],
    labels: Sequence[str] | None = None,
    *,
    worker_entry: bool = False,
) -> PlanReport:
    """The shard-safety gate: P120 + P124 (+ P126 for worker entry).

    The only implementation of the three checks: the plan analyzer runs
    it per routed shard group, ``build_sharded_graph`` and ``run_procs``
    through :func:`repro.parallel.sharded.certify_shard_operators`.

    * P120 — every replicated operator *class* certifies
      ``pure``/``stream-local``/``shard-safe`` (one finding per class,
      naming the shards that carry it);
    * P124 — the *instances* alias no mutable object through a root
      their certificates say they mutate (one instance handed to two
      shards aliases every such root);
    * P126 — ``worker_entry=True``: the process runtime is about to
      fork these operators, see :func:`_check_worker_telemetry`.

    ``labels`` name the operators in messages (default ``shard<k>``).
    """
    from .effects import SHARDABLE, classify_class
    from .stategraph import written_aliases

    if labels is None:
        labels = [f"shard{k}" for k in range(len(shard_ops))]
    report = PlanReport()
    if worker_entry:
        _check_worker_telemetry(report, shard_ops, labels)
    certificates = [classify_class(type(op)) for op in shard_ops]

    carriers: dict[str, list[int]] = {}
    for k, cert in enumerate(certificates):
        carriers.setdefault(cert.qualname, []).append(k)
    for indices in carriers.values():
        cert = certificates[indices[0]]
        if cert.classification in SHARDABLE:
            continue
        detail = cert.why[0] if cert.why else "no certificate"
        report.add(
            "P120",
            f"shard operator {cert.qualname} (on "
            f"{', '.join(labels[k] for k in indices)}) certifies "
            f"{cert.classification!r} ({detail}); only pure/"
            "stream-local/shard-safe operators may be replicated — "
            "fix the shared state",
            node=labels[indices[0]],
        )

    mutated = [
        frozenset(cert.effects.get("mutated_writes", ()))
        for cert in certificates
    ]
    for shared, hits in written_aliases(shard_ops, mutated, labels):
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
    :class:`~repro.obs.Obs` *inside the forked child* and ships
    incremental deltas back over the pipe (write-only from the shard —
    P122 polices the entry paths); the supervisor-side aggregator is
    the only reader.  That design holds only if the operators about to
    be forked carry no telemetry at all:

    * any reachable telemetry-plane object (an ``Obs`` bound with
      ``bind_obs``, a registry or instrument, a span or flight
      recorder, a delta shipper) was necessarily constructed
      *pre-fork* — the forked copy would record into dead
      supervisor-side state instead of the worker's own post-fork
      plane (bind obs on the supervisor's router/merger instead);
    * one telemetry object reachable from two worker probes is
      cross-worker sharing: after the fork it silently becomes K
      divergent copies no runtime check can see across.

    Walks the operator's whole reachable state graph, *including* the
    ``obs``/``_obs*`` roots the P124 aliasing walk deliberately skips.
    """
    from .stategraph import is_telemetry_object, iter_state

    owners: dict[int, tuple[int, str]] = {}
    for k, op in enumerate(shard_ops):
        for node in iter_state(op, include_telemetry=True):
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
                    "Obs post-fork and ships deltas back)",
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


def _effect_checks(
    report: PlanReport,
    nodes: dict[str, Any],
    shard_groups: list[tuple[str, list[str]]],
    edges: list[Any],
) -> None:
    """P120-P124 over a routed plan."""
    from .effects import classify_class

    # P122 — obs hooks must be write-only, on every node in the plan
    for name, op in sorted(nodes.items()):
        cert = classify_class(type(op))
        if cert.effects.get("obs") == "reads":
            methods = ", ".join(
                d for d in cert.why if d.startswith("reads telemetry")
            ) or "reads telemetry"
            report.add(
                "P122",
                f"operator {cert.qualname} on node {name!r} reads obs "
                f"instruments ({methods}); telemetry is write-only from "
                "operator entry paths — feedback through the metrics "
                "plane makes results depend on what is being observed",
                node=name,
            )

    for _router_name, targets in shard_groups:
        # P120 / P124 — the one shard-safety gate
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
            cert = classify_class(type(merger_op))
            if cert.classification == "pure":
                continue
            report.add(
                "P121",
                f"operator {cert.qualname} on node {merge_target!r} "
                f"merges {len(targets)} shard streams but neither "
                "declares order_insensitive = True, nor exposes a "
                "merge_key, nor certifies pure; shard completion order "
                "is scheduling-dependent and would leak into results",
                node=merge_target,
            )


# --------------------------------------------------------------------------
# graph analysis
# --------------------------------------------------------------------------


def analyze_graph(
    graph: "DataflowGraph",
    assumptions: HarvestAssumptions | None = None,
) -> PlanReport:
    """Validate a constructed dataflow graph (checks P101-P111, plus the
    effect-certification checks P120-P124 for routed topologies)."""
    report = PlanReport()
    nodes = graph.node_operators()
    edges = graph.edge_list()
    sources = graph.source_list()

    # P101 — cycle detection (iterative DFS, 3-colour)
    adjacency: dict[str, list[str]] = {name: [] for name in nodes}
    for edge in edges:
        adjacency[edge.source].append(edge.target)
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {name: WHITE for name in nodes}
    for start in nodes:
        if colour[start] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        trail = [start]
        colour[start] = GREY
        while stack:
            name, idx = stack[-1]
            if idx < len(adjacency[name]):
                stack[-1] = (name, idx + 1)
                nxt = adjacency[name][idx]
                if colour[nxt] == GREY:
                    cycle = trail[trail.index(nxt):] + [nxt]
                    report.add(
                        "P101",
                        "operator graph contains a cycle: "
                        + " -> ".join(cycle),
                        node=nxt,
                    )
                elif colour[nxt] == WHITE:
                    colour[nxt] = GREY
                    stack.append((nxt, 0))
                    trail.append(nxt)
            else:
                colour[name] = BLACK
                stack.pop()
                trail.pop()

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

    # P103 / P104 / P108 / P109 — per-operator window parameters
    # P130 / P132 — unforwarded flush, session geometry
    for name, op in nodes.items():
        window_sizes = getattr(op, "window_sizes", None)
        basic = getattr(op, "basic_window_size", None)
        if window_sizes is not None and basic is not None:
            _check_join_windows(report, window_sizes, basic, name)
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
        policy = _window_policy_of(op)
        if (
            policy is not None
            and window_sizes is not None
            and basic is not None
        ):
            _check_session_policy(report, policy, window_sizes, basic,
                                  name)
        slide = getattr(op, "slide", None)
        window = getattr(op, "window_size", None)
        function = getattr(op, "function", None)
        if slide is not None and window is not None and function is not None:
            _check_aggregate(report, function, window, slide, name)

    # P107 — starved inputs
    fed: set[tuple[str, int]] = set()
    for node_name, input_index, _source in sources:
        fed.add((node_name, input_index))
    for edge in edges:
        fed.add((edge.target, edge.target_input))
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

    # P106 — symbolic harvest feasibility, when a hypothesis is given
    if assumptions is not None:
        for name, op in nodes.items():
            window_sizes = getattr(op, "window_sizes", None)
            basic = getattr(op, "basic_window_size", None)
            if window_sizes is None or basic is None:
                continue
            profile = _feasibility_profile(
                len(window_sizes), window_sizes, basic, assumptions
            )
            diag = check_harvest_feasibility(
                profile, assumptions.throttle, assumptions.counts
            )
            if diag is not None:
                report.diagnostics.append(
                    Diagnostic(
                        code=diag.code,
                        message=diag.message,
                        severity=diag.severity,
                        node=name,
                    )
                )

    # P120-P124 — effect certification of routed plans
    if shard_groups:
        _effect_checks(report, nodes, shard_groups, edges)
    return report


# --------------------------------------------------------------------------
# query analysis
# --------------------------------------------------------------------------


def analyze_query(
    query: Any,
    assumptions: HarvestAssumptions | None = None,
) -> PlanReport:
    """Validate a declarative :class:`repro.query.Query` before it runs.

    Works on the builder's declared state — no operator is constructed
    unless the declaration is structurally sound — so *every* problem is
    reported in one pass instead of whichever constructor raises first.
    """
    from repro.joins.variants import JoinMode
    from repro.query import SHEDDING_POLICIES
    from repro.streams.windows import resolve_policy

    report = PlanReport()

    sources = getattr(query, "_sources", [])
    window = getattr(query, "_window", None)
    basic = getattr(query, "_basic", None)
    predicate = getattr(query, "_predicate", None)
    shedding = getattr(query, "_shedding", "grubjoin")
    stages = getattr(query, "_stages", [])
    mode = getattr(query, "_mode", JoinMode.INNER)
    policy = resolve_policy(getattr(query, "_policy", None))
    plain = mode is JoinMode.INNER and policy.is_sliding

    if not sources:
        report.add("P100", "no input streams; call .streams(...)",
                   node="query")
    elif len(sources) < 2:
        report.add("P100", "a join needs at least two streams",
                   node="query")
    if window is None or predicate is None:
        report.add("P100", "incomplete query: call .window(...) and "
                   ".join(...) before running", node="query")

    # P105 — shedding policy
    if shedding not in SHEDDING_POLICIES:
        report.add(
            "P105",
            f"unknown shedding policy {shedding!r}; expected one of "
            f"{SHEDDING_POLICIES}",
            node="join",
        )

    # P131 — shedding soundness and policy support for variant modes
    if shedding in SHEDDING_POLICIES and shedding != "none":
        if mode in (JoinMode.ANTI, JoinMode.OUTER):
            report.add(
                "P131",
                f"load shedding is unsound for {mode.value} joins: "
                "dropping a tuple's matches makes the tuple a spurious "
                "survivor, so shedding would invent results instead of "
                "losing them; use shedding='none'",
                node="join",
            )
        elif shedding == "grubjoin" and not plain:
            report.add(
                "P131",
                "shedding policy 'grubjoin' only speaks inner-mode "
                f"sliding-window joins (got mode={mode.value}, "
                f"window_policy={policy.name}); use "
                "shedding='randomdrop' or 'none'",
                node="join",
            )

    # P133 — partition-index / predicate compatibility (the same
    # contract the operator constructor enforces at build time, but
    # reported alongside everything else instead of raising first)
    from repro.core.windex import check_index_compat
    from repro.joins.columnar import supports_columnar

    spec = getattr(query, "_join_kwargs", {}).get("index")
    if spec is not None and predicate is not None:
        try:
            check_index_compat(
                spec,
                columnar_ok=supports_columnar(predicate),
                radius=getattr(predicate, "interval_radius", None),
            )
        except ValueError as exc:
            report.add("P133", str(exc), node="join")

    # P103 — window divisibility
    m = len(sources)
    if window is not None and basic is not None and m >= 2:
        _check_join_windows(report, [window] * m, basic, "join")

    # P132 — session-gap geometry
    if window is not None and basic is not None and m >= 2:
        _check_session_policy(report, policy, [window] * m, basic,
                              "join")

    # P104 / P108 / P109 — declared aggregate stages
    for index, (kind, arg) in enumerate(stages):
        if kind != "aggregate":
            continue
        function, agg_window, slide = arg
        _check_aggregate(
            report, function, agg_window, slide, f"aggregate{index}"
        )

    # P110 — aggregate over the default (tuple-of-values) projection.
    # Without .project(...) every join result is packed into a tuple of
    # its m constituent values; a numeric aggregate window cannot store
    # that and the run would die on the first match.  A .select(...)
    # before the aggregate may rescale the payload, so only the certain
    # case is an error.
    if getattr(query, "_projection", None) is None:
        for index, (kind, arg) in enumerate(stages):
            if kind == "select":
                break
            if kind == "aggregate":
                report.add(
                    "P110",
                    "aggregate over the default projection: join "
                    "results become tuples of constituent values, "
                    "which the numeric aggregate window cannot store; "
                    "add .project(...) (or a scalar .select(...)) "
                    "before the aggregate",
                    node=f"aggregate{index}",
                )
                break

    # P106 — symbolic feasibility of the hypothesised harvest config
    if (
        assumptions is not None
        and window is not None
        and basic is not None
        and m >= 2
    ):
        profile = _feasibility_profile(
            m, [window] * m, basic, assumptions
        )
        diag = check_harvest_feasibility(
            profile, assumptions.throttle, assumptions.counts
        )
        if diag is not None:
            report.diagnostics.append(diag)

    # graph-level checks (cycles are impossible from the linear builder,
    # but schema/starvation checks still apply) — only when the declared
    # state can actually be assembled
    if report.ok and sources and window is not None and predicate is not None:
        graph, _ = query.build(capacity=1.0)
        graph_report = analyze_graph(graph)
        report.diagnostics.extend(graph_report.diagnostics)
    return report
