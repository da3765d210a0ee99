"""perfbench: the wall-clock ratio harness behind ``BENCH_PERF.json``.

Three pinned, seeded macros, each a paired comparison on one host:

* ``macro3_skew`` — flat columnar scan vs the hash partition index on a
  zipf-skewed equi-join, driving the operator directly (no event engine)
  so the ratio isn't diluted by engine overhead both legs would share;
* ``fig10_solver`` — GrubJoin solver wall time with warm starts off and
  on (accumulated ``solver_seconds_total`` via an injected
  :func:`repro.timing.wall_clock_timer`, plus microseconds per tick);
* ``procs_scaling`` — merged rate of the process runtime at K workers
  vs K=1.

Every macro whose legs must agree asserts they produce the same result
identity set before reporting any number; a perf harness that silently
benchmarks a wrong kernel is worse than none.

Absolute numbers are machine-specific, so the CI gate runs on the
**ratios** in ``gate_metrics``, which transfer across hosts.  Absolute
end-to-end throughput and latency (tuples/s, service percentiles, a
per-layer breakdown) are the job of ``BENCHMARK.json`` /
``benchmarks/e2e``, not of this module.

Usage::

    PYTHONPATH=src python benchmarks/perfbench/bench.py          # full run
    PYTHONPATH=src python benchmarks/perfbench/bench.py --quick  # CI sizes
    PYTHONPATH=src python benchmarks/perfbench/bench.py \
        --check benchmarks/perfbench/BENCH_PERF.json

``--check`` compares the fresh run's gate metrics against a committed
baseline with a relative tolerance (default ±15%) plus the absolute
floors the reproduction promises (≥3x hash-index speedup on the skewed
macro, ≥30% solver time drop), and exits non-zero on regression.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import IO, Sequence

from repro.core import GrubJoinOperator
from repro.engine import CpuModel, Simulation, SimulationConfig
from repro.joins import EpsilonJoin, MJoinOperator
from repro.testkit.workloads import (
    Workload,
    key_workload,
    zipf_key_workload,
)
from repro.timing import wall_clock_timer

#: which direction is "better" for each *gated* metric
GATE_DIRECTIONS = {
    "macro3_skew_speedup_x": "higher",
    "fig10_solver_time_ratio": "lower",
}

#: absolute floors from the reproduction's acceptance criteria.  The
#: procs floor only applies when the run reports the metric at all —
#: ``run_bench`` omits it on hosts with fewer than four cores, where a
#: wall-clock scaling number would be noise.
GATE_FLOORS = {
    "macro3_skew_speedup_x": ("higher", 3.0),
    "fig10_solver_time_ratio": ("lower", 0.7),
    "procs_k4_speedup_x": ("higher", 2.5),
}


def _mjoin_drive_leg(workload: Workload, tuples, index: str | None):
    """Feed a pre-sorted trace straight into ``MJoinOperator.process``.

    The skew macro compares two variants of the *same* operator, so the
    event engine's per-tuple cost (heap push/pop, arrival bookkeeping)
    would be pure dead weight added equally to both legs, diluting the
    measured ratio toward 1.  Driving the operator directly leaves only
    the cost the index actually changes — the probe — plus the operator's
    own fixed overhead.  Virtual time still comes from the tuples'
    timestamps and adaptation still ticks every 2s of it, so the output
    identity set is exactly what the simulator would produce.
    """
    operator = MJoinOperator(
        workload.predicate,
        workload.window_sizes,
        workload.basic,
        index=index,
    )
    ids = set()
    next_adapt = 2.0
    started = wall_clock_timer()
    for tup in tuples:
        now = tup.timestamp
        while now >= next_adapt:
            operator.on_adapt(next_adapt, [], 2.0)
            next_adapt += 2.0
        for result in operator.process(tup, now).outputs:
            ids.add(result.key())
    wall = wall_clock_timer() - started
    stats = {
        "wall_s": round(wall, 6),
        "tuples": len(tuples),
        "tuples_per_s": round(len(tuples) / wall, 1) if wall > 0 else 0.0,
    }
    return stats, frozenset(ids)


# ----------------------------------------------------------------------
# the pinned macros
# ----------------------------------------------------------------------


def macro3_skew(quick: bool, repeats: int) -> dict:
    """3-way zipf-skewed equi-join, flat columnar kernel vs the hash
    partition index, driven without the event engine.

    Both legs run the same columnar-kernel MJoin, so the measured ratio
    isolates the partition index: the "slow" leg scans every candidate
    row per hop, the "fast" leg only the probe key's hash bucket.  Many
    keys (2M) over wide, dense windows (~86k rows per stream) keep the
    bucket tiny relative to the window while keeping the equi-join
    output modest, so shared materialization cost doesn't dilute the
    ratio.  Legs are paired per repeat and the gated speedup is the best
    *paired* ratio — back-to-back legs see the same host load, which
    makes the ratio far more stable than cross-pairing each leg's best
    wall.  Quick mode runs the full trace: the 3x floor is absolute, so
    shrinking the pool (which is what the flat leg's cost scales with)
    would gate CI on a different, easier claim.  Identity is asserted
    before any number is reported, as everywhere else."""
    workload = zipf_key_workload(
        seed=15,
        m=3,
        rate=5750.0,
        duration=12.0,
        window=15.0,
        basic=7.5,
        n_keys=2_000_000,
        alpha=0.5,
    )
    tuples = sorted(
        (t for trace in workload.traces for t in trace.tuples),
        key=lambda t: (t.timestamp, t.stream, t.seq),
    )
    best: dict[str, dict] = {}
    ids: dict[str, frozenset] = {}
    best_ratio = 0.0
    for _ in range(repeats):
        pair: dict[str, dict] = {}
        for label, index in (("slow", None), ("fast", "hash")):
            stats, leg_ids = _mjoin_drive_leg(workload, tuples, index)
            if label in ids and ids[label] != leg_ids:
                raise AssertionError(
                    f"macro3_skew/{label}: non-deterministic result set"
                )
            ids[label] = leg_ids
            pair[label] = stats
            if (
                label not in best
                or stats["wall_s"] < best[label]["wall_s"]
            ):
                best[label] = stats
        if ids["slow"] != ids["fast"]:
            raise AssertionError(
                f"macro3_skew: hash index diverged from flat scan "
                f"(slow={len(ids['slow'])} results, "
                f"fast={len(ids['fast'])})"
            )
        if pair["fast"]["wall_s"] > 0:
            best_ratio = max(
                best_ratio,
                pair["slow"]["wall_s"] / pair["fast"]["wall_s"],
            )
    return {
        "slow": best["slow"],
        "fast": best["fast"],
        "speedup_x": round(best_ratio, 3),
        "results": len(ids["fast"]),
        "identical": True,
    }


def procs_scaling(quick: bool, repeats: int) -> dict:
    """Process-runtime scaling: merged rate at K workers vs K=1.

    Every leg runs the same frozen equi-join workload through
    :func:`repro.parallel.procs.run_procs`, so the
    merged identity set must be bit-identical across all K — that part
    hard-fails anywhere.  The *timing* claim (near-linear merged-rate
    scaling, the k4 >= 2.5x gate) is only meaningful with real cores to
    scale onto, so the report carries ``gated`` and ``run_bench`` only
    promotes the k4 speedup into ``gate_metrics`` on 4+-core hosts.
    """
    from repro.parallel import run_procs

    workload = key_workload(
        seed=14,
        m=3,
        rate=120.0,
        duration=8.0 if quick else 12.0,
        window=12.0,
        n_keys=400,
    )

    def make_shard(_worker_id: int):
        return MJoinOperator(
            workload.predicate,
            workload.window_sizes,
            workload.basic,
        )

    ks = (1, 2) if quick else (1, 2, 4, 8)
    legs: dict[str, dict] = {}
    rates: dict[int, float] = {}
    ids: frozenset | None = None
    for k in ks:
        best = None
        for _ in range(repeats):
            result = run_procs(
                workload.traces,
                make_shard,
                k,
                duration=workload.duration + 1.0,
                adaptation_interval=2.0,
            )
            if ids is None:
                ids = result.merged_ids
            elif result.merged_ids != ids:
                raise AssertionError(
                    f"procs_k{k}: merged identity set diverged from "
                    f"k={ks[0]} ({len(result.merged_ids)} vs "
                    f"{len(ids)} results)"
                )
            if best is None or result.wall_seconds < best.wall_seconds:
                best = result
        legs[f"k{k}"] = {
            "wall_s": round(best.wall_seconds, 6),
            "merged": best.merged_count,
            "merged_per_s": round(best.merged_rate, 1),
            "workers": best.workers_spawned,
        }
        rates[k] = best.merged_rate
    base_rate = rates[ks[0]]
    speedups = {
        f"k{k}_speedup_x": (
            round(rates[k] / base_rate, 3) if base_rate > 0 else 0.0
        )
        for k in ks
    }
    return {
        "legs": legs,
        "speedups": speedups,
        "results": len(ids or ()),
        "identical": True,
        "gated": (os.cpu_count() or 1) >= 4,
    }


def fig10_solver(quick: bool, repeats: int) -> dict:
    """The Fig. 10 adaptation slice, solver wall time cold vs warm.

    Reuses the obs CLI's stepped-rate scenario so the numbers line up
    with the recorded golden slice.  Warm starts are path-dependent (the
    refined solution may differ from a cold solve), so this macro gates
    on solver time, not output identity.
    """
    from repro.experiments.harness import NONALIGNED_TAUS, WorkloadSpec
    from repro.obs.cli import DEFAULT_CAPACITY, STEP_PATTERN

    duration = 16.0 if quick else 48.0

    def step_profile() -> tuple[tuple[float, float], ...]:
        breakpoints: list[tuple[float, float]] = []
        t = 0.0
        while t < duration:
            for rate, hold in STEP_PATTERN:
                breakpoints.append((t, rate))
                t += hold
                if t >= duration:
                    break
        return tuple(breakpoints)

    def leg(warm: bool) -> tuple[float, int, int]:
        spec = WorkloadSpec(
            m=3,
            rate=None,
            rate_profile=step_profile(),
            taus=NONALIGNED_TAUS[:3],
            kappas=(2.0, 2.0, 50.0),
            window=8.0,
            basic_window=1.0,
            seed=7,
        )
        operator = GrubJoinOperator(
            EpsilonJoin(spec.epsilon),
            [spec.window] * spec.m,
            spec.basic_window,
            rng=spec.seed + 101,
            warm_start=warm,
            solver_timer=wall_clock_timer,
        )
        ticks = 0
        solve = operator._solve

        def counted(profile, z, warm_start=None):
            nonlocal ticks
            ticks += 1
            return solve(profile, z, warm_start)

        operator._solve = counted
        Simulation(
            spec.sources(),
            operator,
            CpuModel(DEFAULT_CAPACITY),
            SimulationConfig(
                duration=duration, warmup=0.0, adaptation_interval=2.0
            ),
        ).run()
        return operator.solver_seconds_total, ticks, operator.warmstart_hits

    cold_s = warm_s = float("inf")
    cold_ticks = warm_ticks = hits = 0
    for _ in range(repeats):
        s, t, _h = leg(False)
        if s < cold_s:
            cold_s, cold_ticks = s, t
        s, t, h = leg(True)
        if s < warm_s:
            warm_s, warm_ticks, hits = s, t, h
    ratio = warm_s / cold_s if cold_s > 0 else 1.0
    return {
        "cold": {
            "solver_s": round(cold_s, 6),
            "ticks": cold_ticks,
            "solver_us_per_tick": round(cold_s / cold_ticks * 1e6, 2)
            if cold_ticks
            else 0.0,
        },
        "warm": {
            "solver_s": round(warm_s, 6),
            "ticks": warm_ticks,
            "solver_us_per_tick": round(warm_s / warm_ticks * 1e6, 2)
            if warm_ticks
            else 0.0,
            "warmstart_hits": hits,
        },
        "solver_time_ratio": round(ratio, 3),
    }


def run_bench(quick: bool = False, repeats: int | None = None) -> dict:
    """Run every macro and assemble the ``BENCH_PERF.json`` document."""
    if repeats is None:
        repeats = 1 if quick else 3
    benchmarks = {
        "macro3_skew": macro3_skew(quick, repeats),
        "procs_scaling": procs_scaling(quick, repeats),
        "fig10_solver": fig10_solver(quick, repeats),
    }
    gate_metrics = {
        "macro3_skew_speedup_x": benchmarks["macro3_skew"]["speedup_x"],
        "fig10_solver_time_ratio": benchmarks["fig10_solver"][
            "solver_time_ratio"
        ],
    }
    procs = benchmarks["procs_scaling"]
    if procs["gated"] and "k4_speedup_x" in procs["speedups"]:
        gate_metrics["procs_k4_speedup_x"] = (
            procs["speedups"]["k4_speedup_x"]
        )
    return {
        "meta": {"quick": quick, "repeats": repeats},
        "benchmarks": benchmarks,
        "gate_metrics": gate_metrics,
    }


def check_against_baseline(
    current: dict, baseline: dict, tolerance: float = 0.15
) -> list[str]:
    """Regression check: current gate metrics vs a committed baseline.

    A metric regresses when it moves in its *bad* direction by more than
    ``tolerance`` relative to the baseline; movement in the good
    direction never fails.  Absolute floors are enforced on top.
    Returns human-readable failure lines (empty = pass).
    """
    failures: list[str] = []
    base = baseline.get("gate_metrics", {})
    cur = current.get("gate_metrics", {})
    for name, direction in GATE_DIRECTIONS.items():
        if name not in base or name not in cur:
            failures.append(f"{name}: missing from baseline or run")
            continue
        b, c = float(base[name]), float(cur[name])
        if direction == "higher" and c < b * (1.0 - tolerance):
            failures.append(
                f"{name}: {c:g} fell more than {tolerance:.0%} below "
                f"baseline {b:g}"
            )
        elif direction == "lower" and c > b * (1.0 + tolerance):
            failures.append(
                f"{name}: {c:g} rose more than {tolerance:.0%} above "
                f"baseline {b:g}"
            )
    for name, (direction, floor) in GATE_FLOORS.items():
        if name not in cur:
            continue
        c = float(cur[name])
        if direction == "higher" and c < floor:
            failures.append(f"{name}: {c:g} below required floor {floor:g}")
        elif direction == "lower" and c > floor:
            failures.append(f"{name}: {c:g} above required cap {floor:g}")
    return failures


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/perfbench/bench.py",
        description="wall-clock ratio regression benchmarks",
    )
    parser.add_argument(
        "-o", "--output", default="BENCH_PERF.json",
        help="where to write the JSON report (default: BENCH_PERF.json)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke sizes (shorter traces, one repeat)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="wall-clock repeats per leg, best-of (default: 3, quick: 1)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="compare gate metrics against a committed BENCH_PERF.json",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.15,
        help="relative regression tolerance for --check (default 0.15)",
    )
    return parser


def main(argv: Sequence[str] | None = None,
         out: IO[str] | None = None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    report = run_bench(quick=args.quick, repeats=args.repeats)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, value in sorted(report["gate_metrics"].items()):
        out.write(f"{name}: {value:g}\n")
    out.write(f"wrote {args.output}\n")
    if args.check is not None:
        with open(args.check) as fh:
            baseline = json.load(fh)
        failures = check_against_baseline(
            report, baseline, args.tolerance
        )
        if failures:
            for line in failures:
                out.write(f"REGRESSION {line}\n")
            return 1
        out.write(f"gate ok (tolerance {args.tolerance:.0%})\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
