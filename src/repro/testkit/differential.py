"""Differential harness: every join path versus the brute-force oracle.

The harness runs a frozen :class:`~repro.testkit.workloads.Workload`
through any of the repo's execution paths — plain MJoin, the indexed
variant, GrubJoin (feedback-throttled or pinned at a fixed ``z``), the
RandomDrop baseline, and the sharded dataflow plan — and diffs the
resulting identity sets against :func:`repro.testkit.oracle.oracle_join`.

Two comparison modes cover the repo's two correctness contracts:

* ``equal`` — unconstrained CPU, no shedding: the engine must produce the
  oracle's output exactly (MJoin, IndexedMJoin, GrubJoin at ``z = 1``,
  ShardedPlan at any ``K`` for co-partitioning predicates).
* ``subset`` — any shedding configuration: the engine may drop results
  but must never invent one (the paper's max-subset semantics).

:func:`differential_matrix` bundles the standard grid into one JSON-able
verdict; ``python -m repro.testkit`` prints it, and CI diffs two runs for
bit-identical determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core import FixedThrottle, GrubJoinOperator
from repro.engine import CpuModel, Simulation, SimulationConfig
from repro.joins import IndexedMJoin, MJoinOperator, RandomDropShedder
from repro.joins.columnar import supports_columnar
from repro.joins.variants import SHEDDABLE_MODES
from repro.parallel import build_sharded_graph

from .oracle import IdVector, OracleResult, oracle_join, window_state
from .workloads import Workload

#: capacity large enough that no equality run is ever CPU-bound
UNBOUNDED_CAPACITY = 1e12

#: virtual seconds appended after the last arrival so in-flight
#: completions land before the STOP event discards them
DRAIN_TAIL = 1.0


def run_config(workload: Workload) -> SimulationConfig:
    """The harness's canonical run parameters: no warm-up (every result
    counts), a drain tail past the last arrival, and frequent adaptation
    so throttled runs exercise their feedback loop."""
    return SimulationConfig(
        duration=workload.duration + DRAIN_TAIL,
        warmup=0.0,
        adaptation_interval=2.0,
    )


def oracle_ids(workload: Workload) -> OracleResult:
    """The ground-truth result set for ``workload`` (in the workload's
    join mode over its window policy)."""
    return oracle_join(
        workload.traces,
        workload.predicate,
        workload.window_sizes,
        workload.basic,
        mode=workload.mode,
        window_policy=workload.window_policy,
    )


def _make_sanitizer(sanitize: bool):
    """One sanitizer per run when asked for (lazy import keeps the
    lint machinery off the fast path of unsanitized runs)."""
    if not sanitize:
        return None
    from .sanitizer import DeterminismSanitizer

    return DeterminismSanitizer()


def _simulate(workload: Workload, operator, capacity: float,
              admission=None, sanitizer=None) -> set[IdVector]:
    if sanitizer is not None:
        operator = sanitizer.wrap("op", operator)
    sim = Simulation(
        workload.traces,
        operator,
        CpuModel(capacity),
        run_config(workload),
        admission=admission,
        retain_outputs=True,
    )
    sim.run()
    if sanitizer is not None:
        sanitizer.finish()
    return {r.key() for r in sim.output_buffer.results}


def mjoin_ids(
    workload: Workload,
    capacity: float = UNBOUNDED_CAPACITY,
    sanitize: bool = False,
    index: str | None = None,
) -> set[IdVector]:
    """Run the full MJoin (on the kernel its predicate selects) and
    return its identity set."""
    operator = MJoinOperator(
        workload.predicate, workload.window_sizes, workload.basic,
        mode=workload.mode, window_policy=workload.window_policy,
        index=index,
    )
    return _simulate(workload, operator, capacity,
                     sanitizer=_make_sanitizer(sanitize))


def indexed_ids(
    workload: Workload, capacity: float = UNBOUNDED_CAPACITY,
    sanitize: bool = False,
) -> set[IdVector]:
    """Run the block-probing IndexedMJoin (interval predicates only)."""
    operator = IndexedMJoin(
        workload.predicate, workload.window_sizes, workload.basic,
        mode=workload.mode, window_policy=workload.window_policy,
    )
    return _simulate(workload, operator, capacity,
                     sanitizer=_make_sanitizer(sanitize))


def grubjoin_ids(
    workload: Workload,
    capacity: float = UNBOUNDED_CAPACITY,
    pin_z: float | None = None,
    sanitize: bool = False,
    **operator_kwargs,
) -> set[IdVector]:
    """Run GrubJoin; ``pin_z`` swaps in a :class:`FixedThrottle` so the
    shed fraction is an experimental control instead of feedback state."""
    operator = GrubJoinOperator(
        workload.predicate,
        workload.window_sizes,
        workload.basic,
        rng=workload.seed + 101,
        **operator_kwargs,
    )
    if pin_z is not None:
        operator.throttle = FixedThrottle(pin_z)
    return _simulate(workload, operator, capacity,
                     sanitizer=_make_sanitizer(sanitize))


def randomdrop_ids(
    workload: Workload, capacity: float = UNBOUNDED_CAPACITY,
    sanitize: bool = False,
) -> set[IdVector]:
    """Run the RandomDrop baseline (input shedding ahead of a full join)."""
    operator = MJoinOperator(
        workload.predicate, workload.window_sizes, workload.basic,
        mode=workload.mode, window_policy=workload.window_policy,
    )
    shedder = RandomDropShedder(
        operator, capacity, rng=workload.seed + 202
    )
    return _simulate(workload, operator, capacity,
                     admission=shedder.filters,
                     sanitizer=_make_sanitizer(sanitize))


def sharded_ids(
    workload: Workload,
    num_shards: int,
    capacity: float = UNBOUNDED_CAPACITY,
    cores: int | None = None,
    sanitize: bool = False,
) -> set[IdVector]:
    """Run the router -> K shards -> merger dataflow plan and return the
    merged identity set.  Hash routing co-partitions equal keys, so for
    equi-join workloads any ``K`` must reproduce the unsharded output.

    With ``sanitize=True`` every shard runs behind a
    :class:`~repro.testkit.sanitizer.SanitizedOperator` proxy, so a
    cross-shard write (one shard's state changing while another runs)
    hard-fails with provenance instead of silently corrupting the merge.
    """
    sanitizer = _make_sanitizer(sanitize)

    def _shard(k: int):
        operator = MJoinOperator(
            workload.predicate, workload.window_sizes, workload.basic,
        )
        if sanitizer is not None:
            return sanitizer.wrap(f"shard{k}", operator)
        return operator

    plan = build_sharded_graph(
        workload.traces,
        _shard,
        num_shards,
        policy="hash",
        # the bucket map stays put: equality must not lean on the
        # unbounded CPU never letting a shard queue build
        rebalance_threshold=None,
    )
    cpu = CpuModel(
        capacity, cores=cores if cores is not None else num_shards + 2
    )
    result = plan.run(cpu, run_config(workload), retain_outputs=True)
    if sanitizer is not None:
        sanitizer.finish()
    return plan.merged_result_ids(result)


def procs_ids(workload: Workload, num_shards: int) -> set[IdVector]:
    """Run the wall-clock process-parallel runtime and return the
    merged identity set.

    ``K`` real ``multiprocessing`` workers behind the supervisor-owned
    router/merger (:func:`repro.parallel.procs.run_procs`) — a fleet
    fixed at launch, a constant bucket map — and the same adaptation
    cadence as :func:`run_config`, so for equi-join workloads the
    result must be bit-identical to :func:`sharded_ids` and the oracle.

    No ``sanitize`` parameter: the determinism sanitizer shadow-tracks
    operator state in-process and cannot observe writes across a
    process boundary, so the matrix skips the procs rows when
    sanitizing (the worker entry path is certified statically instead —
    lint P120/P124/P126).
    """
    from repro.parallel.procs import run_procs

    def _shard(k: int):
        return MJoinOperator(
            workload.predicate, workload.window_sizes, workload.basic,
        )

    result = run_procs(
        workload.traces,
        _shard,
        num_shards,
        duration=workload.duration + DRAIN_TAIL,
        adaptation_interval=2.0,
    )
    return set(result.merged_ids)


def calibrated_shed_capacity(
    workload: Workload, fraction: float = 0.3
) -> float:
    """A CPU capacity that genuinely overloads the workload.

    Measures the work units per second the unconstrained full join spends
    on this workload and returns ``fraction`` of it — deterministic, and
    guaranteed to force shedding rather than guessing a magic constant.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    operator = MJoinOperator(
        workload.predicate, workload.window_sizes, workload.basic,
        mode=workload.mode, window_policy=workload.window_policy,
    )
    cpu = CpuModel(UNBOUNDED_CAPACITY)
    Simulation(
        workload.traces, operator, cpu, run_config(workload)
    ).run()
    demand = cpu.busy_time * UNBOUNDED_CAPACITY / workload.duration
    return max(demand * fraction, 1.0)


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------


@dataclass
class DifferentialReport:
    """Outcome of one engine-versus-oracle diff.

    Attributes:
        label: which run this was (keys the JSON verdict).
        mode: ``"equal"`` or ``"subset"``.
        ok: whether the contract held.
        reference_count / observed_count: set sizes.
        missing: ids the reference has but the run lacks (only a failure
            in ``equal`` mode).
        extra: ids the run produced that the reference never did — a
            correctness bug in *either* mode.
        divergence: structured description of the first divergent result
            (or ``None`` when ok); :meth:`render` prints it.
    """

    label: str
    mode: str
    ok: bool
    reference_count: int
    observed_count: int
    missing: tuple[IdVector, ...] = ()
    extra: tuple[IdVector, ...] = ()
    divergence: dict | None = None

    def summary(self) -> dict:
        """The JSON-able row the verdict matrix stores."""
        return {
            "mode": self.mode,
            "ok": self.ok,
            "reference": self.reference_count,
            "observed": self.observed_count,
            "missing": len(self.missing),
            "extra": len(self.extra),
        }

    def render(self) -> str:
        """Human-readable report; one paragraph per divergence."""
        lines = [
            f"[{self.label}] mode={self.mode} "
            f"{'OK' if self.ok else 'MISMATCH'}: "
            f"reference={self.reference_count} "
            f"observed={self.observed_count} "
            f"missing={len(self.missing)} extra={len(self.extra)}"
        ]
        d = self.divergence
        if d is not None:
            lines.append(
                f"  first divergence ({d['kind']}) at virtual time "
                f"{d['probe_time']:.6f}: {d['ids']}"
            )
            for c in d["constituents"]:
                lines.append(
                    f"    stream {c['stream']} seq {c['seq']} "
                    f"t={c['timestamp']:.6f} value={c['value']!r}"
                )
            for w in d["window_state"]:
                span = w["seq_range"]
                lines.append(
                    f"    window[S{w['stream'] + 1}] unexpired="
                    f"{w['unexpired']} seqs={span} "
                    f"horizon={w['horizon']:g}"
                )
        return "\n".join(lines)


def _describe_divergence(
    kind: str, ids: IdVector, workload: Workload
) -> dict:
    lookup = workload.lookup()
    constituents = []
    probe_time = 0.0
    for stream, seq in ids:
        t = lookup.get((stream, seq))
        if t is None:
            constituents.append(
                {"stream": stream, "seq": seq,
                 "timestamp": float("nan"), "value": None}
            )
            continue
        probe_time = max(probe_time, t.timestamp)
        constituents.append(
            {
                "stream": t.stream,
                "seq": t.seq,
                "timestamp": t.timestamp,
                "value": t.value,
            }
        )
    return {
        "kind": kind,
        "ids": ids,
        "probe_time": probe_time,
        "constituents": constituents,
        "window_state": window_state(
            workload.traces,
            workload.window_sizes,
            workload.basic,
            probe_time,
        ),
    }


def _first(ids: frozenset[IdVector] | set[IdVector],
           workload: Workload) -> IdVector:
    """The divergent vector completed earliest (ties broken by ids)."""
    lookup = workload.lookup()

    def completion(vec: IdVector) -> tuple:
        times = [
            lookup[(s, q)].timestamp
            for s, q in vec
            if (s, q) in lookup
        ]
        return (max(times) if times else float("inf"), vec)

    return min(ids, key=completion)


def compare(
    reference: OracleResult | set[IdVector] | frozenset[IdVector],
    observed: set[IdVector] | frozenset[IdVector],
    workload: Workload,
    mode: str = "equal",
    label: str = "run",
) -> DifferentialReport:
    """Diff an engine's identity set against a reference set.

    ``equal`` fails on any difference; ``subset`` fails only on results
    the reference never produced.  The report pinpoints the divergent
    result that completed earliest — the one to debug first — along with
    every stream's window contents at that virtual time.
    """
    if mode not in ("equal", "subset"):
        raise ValueError("mode must be 'equal' or 'subset'")
    ref_ids = (
        reference.id_set
        if isinstance(reference, OracleResult)
        else frozenset(reference)
    )
    obs_ids = frozenset(observed)
    missing = ref_ids - obs_ids
    extra = obs_ids - ref_ids
    ok = not extra and (mode == "subset" or not missing)
    divergence = None
    if not ok:
        blamed = extra if extra else missing
        kind = "extra" if extra else "missing"
        divergence = _describe_divergence(
            kind, _first(blamed, workload), workload
        )
    return DifferentialReport(
        label=label,
        mode=mode,
        ok=ok,
        reference_count=len(ref_ids),
        observed_count=len(obs_ids),
        missing=tuple(sorted(missing)),
        extra=tuple(sorted(extra)),
        divergence=divergence,
    )


# ----------------------------------------------------------------------
# the standard matrix
# ----------------------------------------------------------------------


@dataclass
class MatrixSpec:
    """Which checks :func:`differential_matrix` runs.

    Attributes:
        pinned_zs: FixedThrottle settings checked for subset behaviour.
        shard_counts: ``K`` values checked for sharded equivalence
            (restricted to equi-join workloads for ``K > 1`` — hash
            routing only co-partitions equal keys).
        procs_counts: worker counts checked for the wall-clock
            process-parallel runtime (``Procs(K)`` ≡ Sharded ≡ oracle;
            equi-join workloads only, and skipped when sanitizing —
            the sanitizer cannot see across a process boundary).
        shed_fraction: overload level for the feedback-shedding runs
            (capacity = this fraction of measured full-join demand).
        include_shedding: run the overloaded GrubJoin / RandomDrop
            subset checks (slowest part of the matrix).
    """

    pinned_zs: tuple[float, ...] = (0.3, 0.6)
    shard_counts: tuple[int, ...] = (1, 2, 4)
    procs_counts: tuple[int, ...] = (2, 4)
    shed_fraction: float = 0.3
    include_shedding: bool = True


def _check(
    reports: dict,
    renders: list[str],
    label: str,
    reference,
    observed: set[IdVector],
    workload: Workload,
    mode: str,
) -> None:
    report = compare(reference, observed, workload, mode=mode,
                     label=label)
    reports[label] = report.summary()
    if not report.ok:
        renders.append(report.render())


def differential_matrix(
    workloads: Sequence[Workload],
    spec: MatrixSpec | None = None,
    progress: Callable[[str], None] | None = None,
    sanitize: bool = False,
) -> dict:
    """Run the full differential grid and return a JSON-able verdict.

    Per workload: oracle ≡ MJoin ≡ GrubJoin(z=1) ≡ ShardedPlan(K) for
    co-partitioning predicates, each on the kernel its predicate
    selects (:func:`repro.joins.columnar.select_kernel`: interval
    predicates run the columnar kernel, the band workload keeps the
    reference pipeline under the oracle) — and, when the predicate is
    columnar-capable, ≡ IndexedMJoin and ≡ the same operators with
    partition indexes under the kernel (``*_indexed`` rows: range
    always, hash at interval radius zero, GrubJoin under the adaptive
    policy) — plus subset for every shedding configuration (pinned z
    grid, feedback throttling under measured overload, RandomDrop under
    the same overload).  Equi-join
    workloads additionally run the wall-clock process-parallel rows
    (``procs_k{K}``): real worker processes whose merged identity set
    must be bit-identical to the same-K sharded plan (skipped under
    ``sanitize`` — a process boundary hides writes from the sanitizer).

    Non-plain workloads (semi/anti/outer modes, tumbling/session
    windows — the scenario grid) run the rows their contracts cover:
    the MJoin/IndexedMJoin and ``mjoin_*_indexed`` equality rows
    always, the GrubJoin, sharded/procs and pinned-z rows only on the
    paper's home turf (inner + sliding, where they are defined), and the
    RandomDrop subset row whenever shedding is sound for the mode
    (inner/semi — an anti/outer run would *invent* results for dropped
    tuples) over sliding windows (under backlog a stale probe evaluates
    a tumbling/session cut at a later instant than the oracle, which
    can legitimately resurrect results the probe-time cut excluded).

    ``sanitize=True`` runs every row under the determinism sanitizer
    (:mod:`repro.testkit.sanitizer`): a write that contradicts the
    static effect manifest raises
    :class:`~repro.testkit.sanitizer.DeterminismViolation` instead of
    producing a (possibly still passing) verdict.

    The verdict contains no wall-clock material: two invocations with the
    same workloads and spec serialize byte-identically.
    """
    spec = spec or MatrixSpec()
    verdict: dict = {"workloads": {}, "ok": True, "failures": [],
                     "sanitized": bool(sanitize)}
    for workload in workloads:
        if progress is not None:
            progress(f"workload {workload.name}")
        reference = oracle_ids(workload)
        reports: dict = {}
        renders: list[str] = []

        plain = workload.plain
        _check(reports, renders, "mjoin", reference,
               mjoin_ids(workload, sanitize=sanitize), workload, "equal")
        if plain:
            _check(reports, renders, "grubjoin_z1", reference,
                   grubjoin_ids(workload, pin_z=1.0, warm_start=False,
                                sanitize=sanitize),
                   workload, "equal")
            # same pin, warm-started solver: the warm path must land on
            # the same identity set (its configurations may differ, its
            # z=1 harvests may not)
            _check(reports, renders, "grubjoin_z1_warm", reference,
                   grubjoin_ids(workload, pin_z=1.0, warm_start=True,
                                sanitize=sanitize),
                   workload, "equal")

        # rows that need an interval predicate: the sorted-index join
        # and the partition indexes under the columnar kernel
        if supports_columnar(workload.predicate):
            _check(reports, renders, "indexed", reference,
                   indexed_ids(workload, sanitize=sanitize), workload,
                   "equal")
            # partition-indexed probes are charged less and must find
            # exactly the unindexed kernel's hit set: range indexes apply
            # to any columnar predicate, hash only at interval radius 0
            _check(reports, renders, "mjoin_range_indexed", reference,
                   mjoin_ids(workload, index="range", sanitize=sanitize),
                   workload, "equal")
            if workload.predicate.interval_radius == 0:
                _check(reports, renders, "mjoin_hash_indexed",
                       reference,
                       mjoin_ids(workload, index="hash",
                                 sanitize=sanitize),
                       workload, "equal")
            if plain:
                _check(reports, renders, "grubjoin_z1_indexed",
                       reference,
                       grubjoin_ids(workload, pin_z=1.0,
                                    index="adaptive", sanitize=sanitize),
                       workload, "equal")
        equi = workload.tags.get("kind") == "keys"
        sharded_sets: dict[int, set[IdVector]] = {}
        for k in spec.shard_counts:
            if not plain or (k > 1 and not equi):
                continue
            observed = sharded_ids(workload, k, sanitize=sanitize)
            sharded_sets[k] = observed
            _check(reports, renders, f"sharded_k{k}", reference,
                   observed, workload, "equal")

        if plain and equi and not sanitize:
            for k in spec.procs_counts:
                # diff against the same-K sharded set when it ran, so
                # Procs(K) ≡ Sharded is checked literally; the sharded
                # row already proved Sharded ≡ oracle
                _check(reports, renders, f"procs_k{k}",
                       sharded_sets.get(k, reference),
                       procs_ids(workload, k),
                       workload, "equal")

        if plain:
            for z in spec.pinned_zs:
                _check(reports, renders, f"grubjoin_z{z:g}", reference,
                       grubjoin_ids(workload, pin_z=z,
                                    sanitize=sanitize),
                       workload, "subset")

        sheddable = (
            workload.mode in SHEDDABLE_MODES
            and workload.policy.is_sliding
        )
        if spec.include_shedding and sheddable:
            capacity = calibrated_shed_capacity(
                workload, spec.shed_fraction
            )
            if plain:
                _check(reports, renders, "grubjoin_shed", reference,
                       grubjoin_ids(workload, capacity=capacity,
                                    sanitize=sanitize),
                       workload, "subset")
            _check(reports, renders, "randomdrop_shed", reference,
                   randomdrop_ids(workload, capacity=capacity,
                                  sanitize=sanitize),
                   workload, "subset")

        entry = {
            "m": workload.m,
            "seed": workload.seed,
            "tuples": workload.tuple_count(),
            "mode": workload.mode.value,
            "window": workload.policy.name,
            "oracle_results": len(reference.ids),
            "checks": reports,
        }
        verdict["workloads"][workload.name] = entry
        if renders:
            verdict["ok"] = False
            verdict["failures"].extend(renders)
    return verdict
