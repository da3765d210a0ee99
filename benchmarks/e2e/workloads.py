"""The four end-to-end workloads: definitions, set-up, and one pass.

Everything here goes through the public API only (``repro.core``,
``repro.joins``, ``repro.engine``, ``repro.parallel``,
``repro.testkit``); it never passes ``fastpath=`` and never imports
``repro.perf``, so the ROADMAP deletions can land without touching it.
This module is imported by the timed child, so it must not import
``trace.py`` (tracing lives in the second child only).

Load model: closed loop, one client.  The host replays a frozen trace
as fast as it can; arrivals follow an open-loop constant-rate schedule
only in *virtual* time.
"""

from __future__ import annotations

import gc
import heapq
import os
import resource
import statistics
import time
import traceback
from array import array
from dataclasses import dataclass, field
from multiprocessing.util import Finalize
from typing import Any, Callable

import numpy as np

from repro.core import GrubJoinOperator
from repro.engine import CpuModel, Simulation, SimulationConfig
from repro.joins import MJoinOperator
from repro.parallel import run_procs
from repro.parallel.sharded import certify_shard_operators
from repro.testkit import workloads as builders
from repro.testkit.differential import calibrated_shed_capacity

#: capacity large enough that a full-join run is never CPU-bound
UNBOUNDED = 1e12
#: virtual seconds appended after the last arrival so in-flight
#: completions land before STOP discards them
DRAIN_TAIL = 1.0
#: worker processes of ``procs_k2_keys`` (= nproc of the sizing host;
#: one supervisor + K workers already oversubscribe two cores)
PROCS_WORKERS = 2


@dataclass(frozen=True)
class Spec:
    """One workload: which builder, with what, on which host."""

    name: str
    why: str
    builder: str
    params: dict
    smoke: dict
    operator: str                      # "grubjoin" | "mjoin" | "mjoin-adaptive"
    host: str = "sim"                  # "sim" | "procs"
    shed_fraction: float | None = None
    adaptation_interval: float = 2.0


# Sized so that one pass takes ~1.1 s on the 2-core sizing host: the
# benchmark contract leaves ~30 s per run, and twelve passes plus three
# set-ups and the verification have to fit in it.  Every duration stays
# at 2x the window or more, so each window fills and then rotates.
SPECS: dict[str, Spec] = {
    s.name: s
    for s in (
        Spec(
            name="shed3_drift",
            why="the paper's regime: CPU at 25% of full-join demand, so "
                "throttle, harvested slice cutting, shredding and the "
                "greedy solver all work and recall is below 1",
            builder="drift_workload",
            # the drift process wraps every 50 s, so a 50 s window holds two
            # match bands; shorter windows hold one, harvesting then keeps
            # ~85% of the output at any budget and recall stops moving
            params=dict(rate=28.0, duration=100.0, window=50.0, basic=2.0,
                        epsilon=0.5),
            smoke=dict(rate=28.0, duration=10.0, window=5.0, basic=0.5,
                       epsilon=0.5),
            operator="grubjoin",
            shed_fraction=0.25,
        ),
        Spec(
            name="full3_zipf",
            why="read-heavy window store: full probes over wide windows "
                "through the adaptive hash index and the columnar kernel; "
                "no solver, few results (PanJoin's regime)",
            builder="zipf_key_workload",
            # rate 800, not 1000: the builders de-phase streams by 1 ms, and
            # at a 1 ms period cross-stream ages would land exactly on the
            # window boundary, where float rounding decides membership
            params=dict(rate=800.0, duration=6.0, window=3.0, basic=0.5,
                        n_keys=200_000, alpha=0.5),
            smoke=dict(rate=800.0, duration=3.0, window=1.2, basic=0.3,
                       n_keys=200_000, alpha=0.5),
            operator="mjoin-adaptive",
            adaptation_interval=0.5,
        ),
        Spec(
            name="ingest3_sparse",
            why="write-heavy use of the same store: tiny windows rotate "
                "and expire constantly, probes scan <=240 rows, so event "
                "heap, buffers, insert and fixed per-call costs dominate",
            builder="drift_workload",
            params=dict(rate=1200.0, duration=4.0, window=0.2, basic=0.05,
                        epsilon=0.002, lags=[0.0, 0.0, 0.0]),
            smoke=dict(rate=1200.0, duration=0.6, window=0.2, basic=0.05,
                       epsilon=0.002, lags=[0.0, 0.0, 0.0]),
            operator="mjoin",
        ),
        Spec(
            name="procs_k2_keys",
            why="the wall-clock runtime: router, pickled batches, 2 forked "
                "workers, acks, merger; no event queue or CPU model, so "
                "transport and merge dominate (Chakraborty's regime)",
            builder="key_workload",
            params=dict(rate=400.0, duration=8.0, window=4.0, n_keys=333),
            smoke=dict(rate=400.0, duration=1.5, window=0.7, basic=0.35,
                       n_keys=60),
            operator="mjoin",
            host="procs",
        ),
    )
}


@dataclass
class Prepared:
    """A workload after set-up: frozen traces plus everything a pass needs."""

    spec: Spec
    seed: int
    workload: Any
    capacity: float
    config: SimulationConfig

    @property
    def offered(self) -> int:
        """Tuples one pass offers to the system."""
        return self.workload.tuple_count()

    def make_operator(self, **extra):
        """A fresh operator (shard operator on procs) for one pass."""
        w = self.workload
        if self.spec.operator == "grubjoin":
            return GrubJoinOperator(
                w.predicate, w.window_sizes, w.basic,
                rng=self.seed + 101, **extra,
            )
        index = "adaptive" if self.spec.operator == "mjoin-adaptive" else None
        return MJoinOperator(
            w.predicate, w.window_sizes, w.basic, index=index, **extra
        )

    def make_reference(self):
        """The unshed, unindexed full join the outputs are checked against."""
        w = self.workload
        return MJoinOperator(w.predicate, w.window_sizes, w.basic)


def prepare(name: str, seed: int, smoke: bool = False) -> Prepared:
    """Set-up: generate and freeze the trace, calibrate the shed capacity,
    certify the shard operators (procs).  This is what ``setup_s`` times,
    together with the interpreter start and the imports above."""
    spec = SPECS[name]
    params = spec.smoke if smoke else spec.params
    workload = getattr(builders, spec.builder)(seed, m=3, **params)
    capacity = UNBOUNDED
    if spec.shed_fraction is not None:
        capacity = calibrated_shed_capacity(workload, spec.shed_fraction)
    prep = Prepared(
        spec=spec,
        seed=seed,
        workload=workload,
        capacity=capacity,
        config=SimulationConfig(
            duration=workload.duration + DRAIN_TAIL,
            warmup=0.0,
            adaptation_interval=spec.adaptation_interval,
        ),
    )
    if spec.host == "procs":
        # the passes wrap process() for service timing, which the static
        # certifier cannot see through: certify the plain shards here,
        # once, and run the wrapped ones with certify=False
        certify_shard_operators(
            [prep.make_operator() for _ in range(PROCS_WORKERS)],
            worker_entry=True,
        )
    return prep


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------

#: seconds one calibration kernel takes on the sizing host at full speed
REFERENCE_KERNEL_S = 0.0145

_KERNEL_VALUES = np.arange(1024, dtype=np.float64)


def calibration_kernel(rounds: int = 3000) -> float:
    """Wall seconds of a fixed piece of work shaped like the tuple path:
    heap push/pop, a dict write, and a ``searchsorted`` plus a boolean
    mask over a short numpy slice per round.  It touches no repo code, so
    a change to the program cannot move it; only the host can."""
    clock = time.perf_counter
    push, pop = heapq.heappush, heapq.heappop
    values = _KERNEL_VALUES
    heap: list = []
    slots: dict = {}
    hits = 0
    t0 = clock()
    for i in range(rounds):
        push(heap, ((i * 7919) % 1009, i))
        if i & 1:
            pop(heap)
        lo = int(np.searchsorted(values, float(i % 900)))
        window = values[lo:lo + 96]
        hits += int(np.count_nonzero((window >= lo) & (window <= lo + 3.0)))
        slots[i & 255] = (hits, i)
    return clock() - t0


def kernel_seconds(repeats: int = 3) -> float:
    """Median of ``repeats`` calibration kernels (~15 ms each)."""
    return statistics.median(calibration_kernel() for _ in range(repeats))


def speed_factor(*kernel_times: float) -> float:
    """Host speed relative to the sizing host at full speed, from kernel
    times taken around a measurement: 1.0 = as fast, 0.5 = half as fast.
    Multiplying a measured duration by it gives the duration the sizing
    host would have needed (see README, "Host-speed normalisation")."""
    return REFERENCE_KERNEL_S / statistics.fmean(kernel_times)


# ----------------------------------------------------------------------
# service-time proxy
# ----------------------------------------------------------------------


def time_process(operator, samples: list) -> None:
    """Shadow ``operator.process`` with a two-``perf_counter`` proxy that
    appends each call's wall seconds to ``samples`` (<0.5% of a pass)."""
    inner = operator.process
    clock = time.perf_counter
    append = samples.append

    def process(tup, now):
        t0 = clock()
        receipt = inner(tup, now)
        append(clock() - t0)
        return receipt

    operator.process = process


def percentiles_us(samples) -> tuple[float, float, float]:
    """(p50, p95, p99) of per-tuple service seconds, in microseconds."""
    if len(samples) == 0:
        return 0.0, 0.0, 0.0
    cuts = np.percentile(np.asarray(samples, dtype=np.float64), [50, 95, 99])
    return tuple(float(c) * 1e6 for c in cuts)


# ----------------------------------------------------------------------
# one pass
# ----------------------------------------------------------------------


@dataclass
class PassResult:
    """What one pass measured (wall-clock) and counted (deterministic)."""

    wall_s: float
    offered: int
    serviced: int
    dropped: int
    results: int
    service_p50_us: float
    service_p95_us: float
    service_p99_us: float
    service_samples: int
    error: str | None = None
    #: host objects of the pass, for the verification/traced child only
    extras: dict = field(default_factory=dict)


def run_sim_pass(
    prep: Prepared,
    *,
    retain: bool = False,
    obs=None,
    wrap: Callable[[Any], None] | None = None,
    operator_kwargs: dict | None = None,
) -> PassResult:
    """One pass on the virtual-time host: fresh operator, CPU and
    ``Simulation`` over the frozen trace.  ``wrap`` replaces the service
    proxy on the operator (the traced pass hooks it instead)."""
    operator = prep.make_operator(**(operator_kwargs or {}))
    samples: list = []
    if wrap is None:
        time_process(operator, samples)
    else:
        wrap(operator)
    cpu = CpuModel(prep.capacity)
    sim = Simulation(
        prep.workload.traces, operator, cpu, prep.config,
        retain_outputs=retain, obs=obs,
    )
    gc.collect()
    t0 = time.perf_counter()
    result = sim.run()
    wall = time.perf_counter() - t0
    p50, p95, p99 = percentiles_us(samples)
    return PassResult(
        wall_s=wall,
        offered=prep.offered,
        serviced=sum(s.consumed for s in result.streams),
        dropped=result.total_dropped() + sim.operator_errors,
        results=result.output_count_total,
        service_p50_us=p50,
        service_p95_us=p95,
        service_p99_us=p99,
        service_samples=len(samples),
        extras={"sim": sim, "result": result, "operator": operator},
    )


def _dump_samples(samples: list, path: str) -> None:
    with open(path, "wb") as f:
        array("d", samples).tofile(f)


def run_procs_pass(prep: Prepared, workdir: str, *, obs=None) -> PassResult:
    """One pass on the process-parallel runtime.

    Each forked worker times its own ``process()`` calls and flushes the
    samples to ``workdir`` when it exits (``multiprocessing.util.Finalize``
    runs in the child's exit path, after the "bye")."""
    os.makedirs(workdir, exist_ok=True)

    def sample_path(worker_id: int) -> str:
        return os.path.join(workdir, f"service-{worker_id}.f64")

    def make_shard(worker_id: int):
        operator = prep.make_operator()
        samples: list = []
        time_process(operator, samples)
        Finalize(None, _dump_samples,
                 args=(samples, sample_path(worker_id)), exitpriority=0)
        return operator

    gc.collect()
    cpu0 = time.process_time()
    times0 = os.times()
    result = run_procs(
        prep.workload.traces,
        make_shard,
        PROCS_WORKERS,
        duration=prep.config.duration,
        adaptation_interval=prep.spec.adaptation_interval,
        certify=False,
        obs=obs,
    )
    supervisor_cpu = time.process_time() - cpu0
    times1 = os.times()
    samples = array("d")
    for worker_id in range(result.workers_spawned):
        path = sample_path(worker_id)
        with open(path, "rb") as f:
            samples.frombytes(f.read())
        os.remove(path)
    p50, p95, p99 = percentiles_us(samples)
    return PassResult(
        wall_s=result.wall_seconds,
        offered=prep.offered,
        serviced=result.tuples_routed,
        dropped=0,
        results=result.merged_count,
        service_p50_us=p50,
        service_p95_us=p95,
        service_p99_us=p99,
        service_samples=len(samples),
        extras={
            "result": result,
            "supervisor_cpu_s": supervisor_cpu,
            "worker_cpu_s": (
                (times1.children_user - times0.children_user)
                + (times1.children_system - times0.children_system)
            ),
        },
    )


def run_pass(prep: Prepared, workdir: str) -> PassResult:
    """One timed pass of ``prep`` on its host; an exception fails the whole
    pass (every tuple of it counts as failed) instead of aborting the run.
    The host objects are dropped, so one pass's state is gone before the
    next is built and ``peak_rss_mb`` is that of a single pass."""
    try:
        if prep.spec.host == "procs":
            res = run_procs_pass(prep, workdir)
        else:
            res = run_sim_pass(prep)
        res.extras.clear()
        return res
    except Exception as exc:  # noqa: BLE001 - boundary: account, keep going
        traceback.print_exc()
        return PassResult(
            wall_s=0.0, offered=prep.offered, serviced=0, dropped=0,
            results=-1, service_p50_us=0.0, service_p95_us=0.0,
            service_p99_us=0.0, service_samples=0,
            error=f"{type(exc).__name__}: {exc}",
        )


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set of this process (and, on procs, of its largest
    waited-for child) in MB; ``ru_maxrss`` is in KiB on Linux."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(
            peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
    return peak / 1024.0
