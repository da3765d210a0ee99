"""Telemetry overhead guard: obs must be free when off, cheap when on.

Two invariants protect the simulator's measurements:

1. **Same virtual world.**  Instrumentation only records — it never
   schedules, drops, or perturbs.  A run with an ``Obs`` attached must
   produce bit-identical simulation results to the same run without one.
2. **Off means off.**  The disabled path pays only ``is None`` guards,
   so its wall-clock cost must stay within noise of the enabled run's
   (the enabled run does strictly more Python work; if *disabled* ever
   gets close to 1x of *enabled* times a generous margin, the guards
   have rotted into unconditional work).

The same pair of invariants is enforced for the **process-parallel
telemetry plane**: a ``run_procs`` fleet whose workers ship their
recordings home with their parting "bye" must merge the identical
result identity set as the telemetry-off run, and the telemetry-off
transport must not pay for the shipping machinery it isn't using.
"""

import time

from repro.core import GrubJoinOperator
from repro.engine import CpuModel, Simulation, SimulationConfig
from repro.experiments import ExperimentTable
from repro.joins import EpsilonJoin
from repro.obs import Obs
from repro.testkit.workloads import drift_sources

RATE = 60.0
DURATION = 20.0
CAPACITY = 5e4


def run_once(obs=None):
    op = GrubJoinOperator(EpsilonJoin(1.0), [8.0] * 3, 1.0, rng=11)
    cfg = SimulationConfig(duration=DURATION, warmup=5.0,
                           adaptation_interval=2.0)
    sources = drift_sources(m=3, rate=RATE, seed=13,
                            lags=[0.0, 1.0, 2.0])
    start = time.perf_counter()
    result = Simulation(sources, op, CpuModel(CAPACITY), cfg,
                        obs=obs).run()
    elapsed = time.perf_counter() - start
    return result, op, elapsed


def run_bench():
    # interleave to decorrelate from machine noise; keep the fastest of
    # each (the usual microbenchmark floor estimator)
    disabled = enabled = float("inf")
    for _ in range(3):
        _, _, t_off = run_once(obs=None)
        _, _, t_on = run_once(obs=Obs())
        disabled = min(disabled, t_off)
        enabled = min(enabled, t_on)

    res_off, op_off, _ = run_once(obs=None)
    obs = Obs()
    res_on, op_on, _ = run_once(obs=obs)

    table = ExperimentTable(
        title="Telemetry overhead — GrubJoin, 20 s run",
        headers=["mode", "wall s", "output/s", "final z", "metrics",
                 "spans"],
    )
    table.add("obs disabled", disabled, res_off.output_rate,
              op_off.throttle.z, 0, 0)
    table.add("obs enabled", enabled, res_on.output_rate,
              op_on.throttle.z, len(obs.registry), len(obs.spans))
    return table, res_off, res_on, op_off, op_on, obs, disabled, enabled


def test_obs_overhead(benchmark, show_table):
    (table, res_off, res_on, op_off, op_on, obs,
     disabled, enabled) = benchmark.pedantic(
        run_bench, rounds=1, iterations=1
    )
    show_table(table)
    # 1. identical virtual behaviour, instrumented or not
    assert res_on.output_count == res_off.output_count
    assert res_on.output_rate == res_off.output_rate
    assert res_on.mean_latency == res_off.mean_latency
    assert op_on.throttle.z == op_off.throttle.z
    assert op_on.comparisons_total == op_off.comparisons_total
    assert [s.arrived for s in res_on.streams] == [
        s.arrived for s in res_off.streams
    ]
    # 2. the telemetry actually recorded something when enabled
    assert len(obs.spans) > 0
    assert obs.registry.get(
        "grubjoin_adaptations_total",
        mode="inner", window_policy="sliding",
    ).value > 0
    # 3. off means off: the disabled run must not cost more than the
    #    enabled one (which does strictly more work) plus generous noise
    assert disabled < enabled * 1.25


# -- process-parallel leg -------------------------------------------------

PROCS_SEED = 13
PROCS_DURATION = 6.0
PROCS_WORKERS = 2


def run_procs_once(obs=None):
    from repro.core.throttle import FixedThrottle
    from repro.parallel import run_procs
    from repro.testkit import key_workload
    from repro.testkit.differential import DRAIN_TAIL

    workload = key_workload(seed=PROCS_SEED, duration=PROCS_DURATION)

    def make_shard(worker_id: int):
        op = GrubJoinOperator(
            workload.predicate,
            list(workload.window_sizes),
            workload.basic,
            rng=PROCS_SEED * 1000 + worker_id,
        )
        op.throttle = FixedThrottle(0.5)
        return op

    start = time.perf_counter()
    result = run_procs(
        workload.traces,
        make_shard,
        PROCS_WORKERS,
        duration=workload.duration + DRAIN_TAIL,
        adaptation_interval=2.0,
        obs=obs,
    )
    elapsed = time.perf_counter() - start
    return result, elapsed


def run_procs_bench():
    disabled = enabled = float("inf")
    for _ in range(3):
        _, t_off = run_procs_once(obs=None)
        _, t_on = run_procs_once(obs=Obs())
        disabled = min(disabled, t_off)
        enabled = min(enabled, t_on)

    res_off, _ = run_procs_once(obs=None)
    obs = Obs()
    res_on, _ = run_procs_once(obs=obs)

    table = ExperimentTable(
        title=f"Procs telemetry overhead — GrubJoin x{PROCS_WORKERS}, "
              f"{PROCS_DURATION:g} s trace",
        headers=["mode", "wall s", "merged", "metrics", "spans"],
    )
    table.add("obs disabled", disabled, res_off.merged_count, 0, 0)
    table.add("obs enabled", enabled, res_on.merged_count,
              len(obs.registry), len(obs.spans))
    return table, res_off, res_on, obs, disabled, enabled


def test_procs_obs_overhead(benchmark, show_table):
    (table, res_off, res_on, obs,
     disabled, enabled) = benchmark.pedantic(
        run_procs_bench, rounds=1, iterations=1
    )
    show_table(table)
    # 1. the telemetry plane never changes results: identical identity
    #    sets and per-worker accounting, shipped recordings or not
    assert res_on.merged_ids == res_off.merged_ids
    assert res_on.routed_per_worker == res_off.routed_per_worker
    assert res_on.comparisons_per_worker == res_off.comparisons_per_worker
    # 2. the fleet actually shipped telemetry when enabled: spans and
    #    decisions from every worker arrived at the supervisor
    assert len(obs.spans) > 0
    assert {d.worker for d in obs.decisions} == set(
        range(PROCS_WORKERS)
    )
    # 3. off means off: a telemetry-free transport must not pay for the
    #    telemetry plane (enabled records, ships and merges each
    #    worker's recording — strictly more work) beyond process-spawn
    #    noise
    assert disabled < enabled * 1.5

