"""``python -m repro.obs`` — record and inspect instrumented runs.

Two subcommands:

``record``
    Run the seeded Fig. 10-style adaptation slice (stepped input rates,
    GrubJoin under a constrained CPU) with full instrumentation and
    write the JSONL event log.  The workload, the simulator, and the
    exporter are all deterministic, so the same seed always produces a
    byte-identical file — CI records a slice and diffs it against the
    committed golden copy.  ``--procs K`` records the *process-parallel*
    slice instead: GrubJoin shards with a pinned throttle on ``K``
    forked workers, their recordings shipped back and merged under
    ``worker=<id>`` labels; only the worker-scoped (deterministic)
    records are exported, so this too is byte-stable and CI-diffable.

``report``
    Replay a recorded JSONL log and print the inspection report:
    throttle trajectory, per-direction harvest heat map, top-k most
    expensive services, latency summary, per-stream accounting.
    ``--fleet`` renders the fleet dashboard instead of the single-run
    report.

Examples::

    python -m repro.obs record -o /tmp/slice.jsonl
    python -m repro.obs record --procs 2 -o /tmp/procs.jsonl
    python -m repro.obs report /tmp/slice.jsonl --top 3
    python -m repro.obs report /tmp/procs.jsonl --fleet
"""

from __future__ import annotations

import argparse
import sys
from typing import IO, Sequence

from .dashboard import render_fleet, render_report
from .export import load_recording, worker_scoped, write_jsonl
from .hub import Obs

#: the recorded slice's stepped input rates (a scaled-down Fig. 10
#: scenario: rate steps every 4 virtual seconds, cycling)
STEP_PATTERN = ((20.0, 4.0), (30.0, 4.0), (10.0, 4.0))

#: CPU capacity (comparisons/sec) — low enough that GrubJoin sheds
DEFAULT_CAPACITY = 8e3

DEFAULT_DURATION = 16.0
DEFAULT_SEED = 7


def _step_profile(duration: float) -> tuple[tuple[float, float], ...]:
    breakpoints: list[tuple[float, float]] = []
    t = 0.0
    while t < duration:
        for rate, hold in STEP_PATTERN:
            breakpoints.append((t, rate))
            t += hold
            if t >= duration:
                break
    return tuple(breakpoints)


def record_slice(
    seed: int = DEFAULT_SEED,
    duration: float = DEFAULT_DURATION,
    capacity: float = DEFAULT_CAPACITY,
) -> Obs:
    """Run the instrumented Fig. 10-style slice and return its ``Obs``."""
    # imported here so `repro.obs report` works without pulling the
    # whole simulator in
    from repro.core import GrubJoinOperator
    from repro.engine import CpuModel, Simulation, SimulationConfig
    from repro.experiments.harness import NONALIGNED_TAUS, WorkloadSpec
    from repro.joins import EpsilonJoin

    spec = WorkloadSpec(
        m=3,
        rate=None,
        rate_profile=_step_profile(duration),
        taus=NONALIGNED_TAUS[:3],
        kappas=(2.0, 2.0, 50.0),
        window=8.0,
        basic_window=1.0,
        seed=seed,
    )
    operator = GrubJoinOperator(
        EpsilonJoin(spec.epsilon),
        [spec.window] * spec.m,
        spec.basic_window,
        rng=seed + 101,
    )
    config = SimulationConfig(
        duration=duration, warmup=0.0, adaptation_interval=2.0
    )
    obs = Obs()
    obs.meta = {
        "workload": "fig10-slice",
        "seed": seed,
        "duration": duration,
        "capacity": capacity,
        "adaptation_interval": config.adaptation_interval,
        "operator": operator.describe(),
    }
    Simulation(
        spec.sources(), operator, CpuModel(capacity), config, obs=obs
    ).run()
    return obs


#: pinned throttle for the procs slice — z < 1 keeps the per-worker
#: solver running (rich, deterministic shedding telemetry)
PROCS_THROTTLE_Z = 0.5

PROCS_DURATION = 10.0


def record_procs_slice(
    seed: int = DEFAULT_SEED,
    workers: int = 2,
    throttle_z: float = PROCS_THROTTLE_Z,
) -> Obs:
    """Run the pinned process-parallel ``procs_k{K}`` slice.

    GrubJoin shards with a :class:`~repro.core.throttle.FixedThrottle`
    replay a frozen keyed workload on ``K`` forked workers; every
    worker ships its recording back with its "bye" and the returned
    supervisor ``Obs`` holds the merged fleet.  With the throttle
    fixed, the worker-scoped export
    (``jsonl_lines(obs, select=worker_scoped)``) is byte-identical
    across reruns — the CI aggregated-golden slice depends on it.
    """
    # imported here so `repro.obs report` works without pulling the
    # whole simulator in
    from repro.core import GrubJoinOperator
    from repro.core.throttle import FixedThrottle
    from repro.parallel import run_procs
    from repro.testkit import key_workload
    from repro.testkit.differential import DRAIN_TAIL
    from repro.timing import ManualTimer

    workload = key_workload(seed=seed, duration=PROCS_DURATION)

    def make_shard(worker_id: int):
        operator = GrubJoinOperator(
            workload.predicate,
            list(workload.window_sizes),
            workload.basic,
            rng=seed * 1000 + worker_id,
        )
        operator.throttle = FixedThrottle(throttle_z)
        return operator

    obs = Obs()
    run_procs(
        workload.traces,
        make_shard,
        workers,
        duration=workload.duration + DRAIN_TAIL,
        adaptation_interval=2.0,
        obs=obs,
        meta={
            "workload": f"procs-k{workers}-{workload.name}",
            "seed": seed,
            "throttle_z": throttle_z,
        },
        timer=ManualTimer(),
    )
    return obs


def _cmd_record(args: argparse.Namespace, out: IO[str]) -> int:
    if args.procs:
        obs = record_procs_slice(seed=args.seed, workers=args.procs)
        # only worker-provenance records are deterministic; the
        # supervisor's wall-relative transport counters are not
        lines = write_jsonl(obs, args.output, select=worker_scoped)
        out.write(f"wrote {lines} records to {args.output}\n")
        if args.dashboard:
            out.write(render_fleet(obs) + "\n")
        return 0
    obs = record_slice(seed=args.seed, duration=args.duration,
                       capacity=args.capacity)
    lines = write_jsonl(obs, args.output)
    out.write(f"wrote {lines} records to {args.output}\n")
    if args.dashboard:
        out.write(render_report(obs, top=args.top) + "\n")
    return 0


def _cmd_report(args: argparse.Namespace, out: IO[str]) -> int:
    obs = load_recording(args.path)
    if args.fleet:
        out.write(render_fleet(obs) + "\n")
    else:
        out.write(render_report(obs, top=args.top) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="record and inspect instrumented simulation runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser(
        "record", help="run the seeded Fig. 10 slice, write JSONL"
    )
    rec.add_argument("-o", "--output", default="obs-run.jsonl",
                     help="JSONL output path (default: obs-run.jsonl)")
    rec.add_argument("--seed", type=int, default=DEFAULT_SEED)
    rec.add_argument("--duration", type=float, default=DEFAULT_DURATION,
                     help="virtual seconds to simulate")
    rec.add_argument("--capacity", type=float, default=DEFAULT_CAPACITY,
                     help="CPU capacity in comparisons/sec")
    rec.add_argument("--procs", type=int, default=0, metavar="K",
                     help="record the process-parallel slice on K "
                          "forked workers instead (worker-scoped "
                          "export: deterministic, CI-diffable)")
    rec.add_argument("--dashboard", action="store_true",
                     help="print the run's report (the fleet view "
                          "with --procs) after recording")
    rec.add_argument("--top", type=int, default=5,
                     help="top-k services in the report")
    rec.set_defaults(func=_cmd_record)

    rep = sub.add_parser("report", help="replay a recorded JSONL log")
    rep.add_argument("path", help="JSONL file written by `record`")
    rep.add_argument("--fleet", action="store_true",
                     help="render the fleet dashboard instead of the "
                          "single-run report")
    rep.add_argument("--top", type=int, default=5,
                     help="top-k services in the report")
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: Sequence[str] | None = None, out: IO[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args, out if out is not None else sys.stdout)
