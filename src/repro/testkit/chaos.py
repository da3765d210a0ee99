"""Deterministic fault injection for the join paths.

Every fault here is a *pure function of a frozen trace and a seed*: it
rewrites the recorded tuples' delivery times (or clones/removes tuples)
and returns a new frozen, delivery-ordered
:class:`~repro.streams.trace.TraceSource`.  Nothing is sampled at
simulation time, so a chaos run is exactly as replayable as a clean one —
the property the determinism check in CI leans on.

Fault types (mirroring the failure modes a real DSMS ingest sees):

* :func:`stall` — a stream goes silent for an interval; deliveries either
  pile up and release in a burst (``defer``) or are lost (``drop``);
* :func:`rate_spike` — an interval's arrival rate is multiplied by
  cloning real tuples at jittered timestamps (new logical tuples, so the
  oracle accounts for them too);
* :func:`duplicate_delivery` — at-least-once delivery: some tuples show
  up twice; identity sets make the duplicates visible only if an engine
  double-counts;
* :func:`reorder` — bounded out-of-order delivery via
  :class:`repro.streams.disorder.DisorderedSource`, frozen;
* :class:`DegradedCpu` — the machine itself degrades: capacity follows a
  step schedule over virtual time (the load-shedding trigger scenario).

The chaos contract is the paper's max-subset invariant: whatever the
fault, an engine may lose results but must never invent one —
``engine ⊆ oracle(faulted logical stream)``.  :func:`chaos_matrix`
checks that, plus bit-replayability, for every scenario × workload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from repro.core import GrubJoinOperator
from repro.engine import CpuModel, Simulation
from repro.joins import MJoinOperator, RandomDropShedder
from repro.joins.variants import SHEDDABLE_MODES
from repro.streams.disorder import DisorderedSource
from repro.streams.trace import TraceSource
from repro.streams.tuples import StreamTuple

from .differential import (
    calibrated_shed_capacity,
    compare,
    run_config,
)
from .oracle import IdVector, oracle_join
from .workloads import Workload


def _freeze(stream: int, tuples: Sequence[StreamTuple]) -> TraceSource:
    ordered = sorted(
        tuples, key=lambda t: (t.delivery_time, t.timestamp, t.seq)
    )
    return TraceSource(stream, ordered)


def stall(trace, start: float, end: float, mode: str = "defer") -> TraceSource:
    """Silence a stream's deliveries in ``[start, end)``.

    ``defer`` releases the stalled tuples in one burst at ``end`` (a
    network partition healing); ``drop`` loses them outright (a sensor
    power cycle) — in drop mode the tuples leave the logical stream, so
    the oracle does not expect their results either.
    """
    if mode not in ("defer", "drop"):
        raise ValueError("mode must be 'defer' or 'drop'")
    if not start < end:
        raise ValueError("need start < end")
    out = []
    for t in trace.tuples:
        d = t.delivery_time
        if start <= d < end:
            if mode == "drop":
                continue
            out.append(replace(t, delivery=end))
        else:
            out.append(t)
    return _freeze(trace.stream, out)


def rate_spike(
    trace,
    start: float,
    end: float,
    factor: float,
    rng: np.random.Generator | int | None = None,
    jitter: float = 0.05,
) -> TraceSource:
    """Multiply the arrival rate in ``[start, end)`` by ``factor``.

    Extra tuples are jittered clones of the interval's real tuples —
    plausible values, new identities (fresh ``seq`` numbers above the
    trace's maximum), so they are genuinely *new logical tuples* that the
    oracle must account for.
    """
    if factor < 1:
        raise ValueError("spike factor must be >= 1")
    if not start < end:
        raise ValueError("need start < end")
    rng = np.random.default_rng(rng)
    out = list(trace.tuples)
    next_seq = max((t.seq for t in out), default=-1) + 1
    clones = []
    for t in trace.tuples:
        if not start <= t.timestamp < end:
            continue
        copies = int(factor) - 1
        if rng.random() < factor - int(factor):
            copies += 1
        for _ in range(copies):
            ts = min(
                t.timestamp + float(rng.uniform(0.0, jitter)),
                np.nextafter(end, start),
            )
            clones.append((ts, t.value))
    for ts, value in sorted(clones):
        out.append(
            StreamTuple(
                value=value, timestamp=ts, stream=trace.stream,
                seq=next_seq,
            )
        )
        next_seq += 1
    return _freeze(trace.stream, out)


def duplicate_delivery(
    trace,
    probability: float,
    max_delay: float = 0.5,
    rng: np.random.Generator | int | None = None,
) -> TraceSource:
    """At-least-once delivery: each tuple is re-delivered with the given
    probability, ``U(0, max_delay)`` seconds after its first delivery.
    Duplicates keep their ``(stream, seq)`` identity, so a correct engine
    produces the same identity set as without them."""
    if not 0 <= probability <= 1:
        raise ValueError("probability must be in [0, 1]")
    if max_delay < 0:
        raise ValueError("max_delay must be non-negative")
    rng = np.random.default_rng(rng)
    out = list(trace.tuples)
    for t in trace.tuples:
        if rng.random() < probability:
            out.append(
                replace(
                    t,
                    delivery=t.delivery_time
                    + float(rng.uniform(0.0, max_delay)),
                )
            )
    return _freeze(trace.stream, out)


def reorder(
    trace,
    max_delay: float,
    rng: np.random.Generator | int | None = None,
) -> TraceSource:
    """Bounded out-of-order delivery: each tuple is delayed by
    ``U(0, max_delay)``, so consecutive deliveries can be out of
    timestamp order.  Wraps :class:`DisorderedSource` and freezes the
    resulting delivery schedule."""
    span = trace.tuples[-1].timestamp if trace.tuples else 0.0
    disordered = DisorderedSource(trace, max_delay, rng=rng)
    return _freeze(
        trace.stream, disordered.generate(span + max_delay + 1.0)
    )


class DegradedCpu(CpuModel):
    """A CPU whose capacity follows a step schedule over virtual time.

    ``schedule`` is ``[(time, factor), ...]``: from each ``time`` onward
    capacity is ``base * factor`` until the next entry.  Before the first
    entry the factor is 1.  A mid-run drop to e.g. ``0.1`` reproduces the
    paper's motivating scenario — load shedding triggered not by input
    rates rising but by the machine losing headroom.
    """

    def __init__(
        self,
        comparisons_per_second: float,
        schedule: Sequence[tuple[float, float]],
        tuple_overhead: float = 1.0,
        cores: int = 1,
    ) -> None:
        super().__init__(comparisons_per_second, tuple_overhead, cores)
        ordered = sorted((float(t), float(f)) for t, f in schedule)
        if any(f <= 0 for _, f in ordered):
            raise ValueError("capacity factors must be positive")
        self._base = self.comparisons_per_second
        self.schedule = ordered

    def factor_at(self, now: float) -> float:
        """The capacity multiplier in effect at virtual time ``now``."""
        factor = 1.0
        for t, f in self.schedule:
            if now < t:
                break
            factor = f
        return factor

    def begin(self, now: float, comparisons: int):
        self.comparisons_per_second = self._base * self.factor_at(now)
        try:
            return super().begin(now, comparisons)
        finally:
            self.comparisons_per_second = self._base


# ----------------------------------------------------------------------
# scenarios and the chaos matrix
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosScenario:
    """One named fault configuration.

    ``inject`` maps ``(workload, seed)`` to the faulted per-stream
    sources; ``make_cpu`` (optional) builds the CPU — scenarios that
    degrade the machine instead of the streams use it.
    """

    name: str
    inject: Callable[[Workload, int], list]
    make_cpu: Callable[[float], CpuModel] | None = None


def _stall_defer(workload: Workload, seed: int) -> list:
    d = workload.duration
    faulted = [stall(workload.traces[0], 0.3 * d, 0.5 * d, mode="defer")]
    return faulted + list(workload.traces[1:])


def _stall_drop(workload: Workload, seed: int) -> list:
    d = workload.duration
    faulted = [stall(workload.traces[0], 0.3 * d, 0.5 * d, mode="drop")]
    return faulted + list(workload.traces[1:])


def _spike(workload: Workload, seed: int) -> list:
    d = workload.duration
    out = list(workload.traces)
    out[1] = rate_spike(out[1], 0.4 * d, 0.6 * d, factor=3.0,
                        rng=seed + 11)
    return out


def _duplicates(workload: Workload, seed: int) -> list:
    return [
        duplicate_delivery(t, probability=0.2, max_delay=0.5,
                           rng=seed + 21 + i)
        for i, t in enumerate(workload.traces)
    ]


def _reorder(workload: Workload, seed: int) -> list:
    return [
        reorder(t, max_delay=0.4, rng=seed + 31 + i)
        for i, t in enumerate(workload.traces)
    ]


def _clean(workload: Workload, seed: int) -> list:
    return list(workload.traces)


def default_scenarios() -> list[ChaosScenario]:
    """The standard chaos battery (one instance of every fault type)."""
    return [
        ChaosScenario("stall_defer", _stall_defer),
        ChaosScenario("stall_drop", _stall_drop),
        ChaosScenario("rate_spike", _spike),
        ChaosScenario("duplicates", _duplicates),
        ChaosScenario("reorder", _reorder),
        ChaosScenario(
            "cpu_drop",
            _clean,
            make_cpu=lambda capacity: DegradedCpu(
                capacity, [(0.4, 0.1), (0.7, 1.0)]
            ),
        ),
    ]


def chaos_ids(
    workload: Workload,
    sources: Sequence,
    capacity: float,
    cpu: CpuModel | None = None,
) -> set[IdVector]:
    """Run a feedback-shedding join over (possibly faulted) sources.

    Plain workloads (inner mode, sliding windows) run the paper's
    feedback-throttled GrubJoin.  Scenario-grid workloads whose mode and
    policy GrubJoin does not speak run a mode-aware MJoin behind the
    RandomDrop admission filter instead, so chaos coverage extends to
    the variant semantics without misrepresenting what GrubJoin
    supports.  Modes where shedding is unsound (anti/outer) are the
    caller's responsibility to skip — :func:`chaos_matrix` does.
    """
    admission = None
    if workload.plain:
        operator = GrubJoinOperator(
            workload.predicate,
            workload.window_sizes,
            workload.basic,
            rng=workload.seed + 303,
        )
    else:
        operator = MJoinOperator(
            workload.predicate,
            workload.window_sizes,
            workload.basic,
            mode=workload.mode,
            window_policy=workload.window_policy,
        )
        admission = RandomDropShedder(
            operator, capacity, rng=workload.seed + 303
        ).filters
    sim = Simulation(
        list(sources),
        operator,
        cpu if cpu is not None else CpuModel(capacity),
        run_config(workload),
        admission=admission,
        retain_outputs=True,
    )
    sim.run()
    return {r.key() for r in sim.output_buffer.results}


def chaos_matrix(
    workloads: Sequence[Workload],
    seed: int = 0,
    scenarios: Sequence[ChaosScenario] | None = None,
    overload_fraction: float = 0.8,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run every scenario over every workload; JSON-able verdict.

    Per cell, three checks:

    * ``subset`` — engine output ⊆ oracle over the *faulted* logical
      stream (deferred/reordered/duplicated tuples still count once;
      dropped tuples and their results don't; spiked tuples do);
    * ``replay`` — running the identical faulted simulation twice gives
      the identical identity set (same-seed determinism);
    * the oracle/observed counts, so a scenario silently producing zero
      results is visible in the verdict.
    """
    scenarios = (
        list(scenarios) if scenarios is not None else default_scenarios()
    )
    verdict: dict = {"seed": seed, "workloads": {}, "ok": True,
                     "failures": []}
    for workload in workloads:
        if workload.mode not in SHEDDABLE_MODES:
            # every chaos cell sheds (overloaded CPU or admission
            # filter), and shedding an anti/outer join invents results
            # for the dropped tuples — there is no subset contract to
            # check, so the cell is recorded as skipped, not silently
            # green
            verdict["workloads"][workload.name] = {
                "skipped": (
                    f"shedding is unsound for {workload.mode.value} "
                    "joins (dropped tuples would surface as survivors)"
                )
            }
            continue
        capacity = calibrated_shed_capacity(
            workload, fraction=overload_fraction
        )
        rows: dict = {}
        for scenario in scenarios:
            if progress is not None:
                progress(f"{workload.name} / {scenario.name}")
            sources = scenario.inject(workload, seed)
            reference = oracle_join(
                sources,
                workload.predicate,
                workload.window_sizes,
                workload.basic,
                mode=workload.mode,
                window_policy=workload.window_policy,
            )

            def make_cpu() -> CpuModel | None:
                if scenario.make_cpu is None:
                    return None
                return scenario.make_cpu(capacity)

            first = chaos_ids(workload, sources, capacity, make_cpu())
            second = chaos_ids(workload, sources, capacity, make_cpu())
            report = compare(
                reference, first, workload, mode="subset",
                label=f"{workload.name}/{scenario.name}",
            )
            replay_ok = first == second
            rows[scenario.name] = {
                "subset_ok": report.ok,
                "replay_ok": replay_ok,
                "oracle": len(reference.ids),
                "observed": len(first),
            }
            if not report.ok:
                verdict["ok"] = False
                verdict["failures"].append(report.render())
            if not replay_ok:
                verdict["ok"] = False
                verdict["failures"].append(
                    f"[{workload.name}/{scenario.name}] replay "
                    f"mismatch: {len(first)} vs {len(second)} results"
                )
        verdict["workloads"][workload.name] = rows
    return verdict


__all__ = [
    "ChaosScenario",
    "DegradedCpu",
    "chaos_ids",
    "chaos_matrix",
    "default_scenarios",
    "duplicate_delivery",
    "rate_spike",
    "reorder",
    "stall",
]
