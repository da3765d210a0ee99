"""The second child: verification pass, then (optionally) the traced pass.

Runs in its own process so neither the retained outputs nor the tracing
hooks ever touch the timed numbers.  Verification ties every workload to
a reference (the unshed, unindexed ``MJoinOperator`` driven directly)
and the reference to ground truth (``oracle_join`` on a prefix of the
trace).  The traced pass produces every per-layer metric; see
``trace.py`` for how spans are recorded and hook cost is compensated.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import statistics
import time
from dataclasses import dataclass

import trace as e2e_trace  # the benchmark's own trace.py (script dir first)
from workloads import (
    PROCS_WORKERS,
    Prepared,
    kernel_seconds,
    prepare,
    run_procs_pass,
    run_sim_pass,
    speed_factor,
)

from repro.testkit.oracle import oracle_join

#: the oracle is brute force; this many leading tuples tie the reference
#: to ground truth in about a second
ORACLE_PREFIX = 2000
#: untraced passes that give the denominators of the overhead ratios
UNTRACED_PASSES = 3
#: cap on traced passes inside the time budget
MAX_TRACED_PASSES = 5


def _arrivals(prep: Prepared) -> list:
    return sorted(
        (t for trace in prep.workload.traces for t in trace.tuples),
        key=lambda t: (t.delivery_time, t.stream, t.seq),
    )


def _direct_drive(operator, arrivals) -> tuple[set, float]:
    """Feed ``arrivals`` straight into ``operator`` (no host); returns the
    result identity set and the wall seconds of the loop."""
    keys: list = []
    t0 = time.perf_counter()
    for tup in arrivals:
        receipt = operator.process(tup, tup.delivery_time)
        keys.extend(r.key() for r in receipt.outputs)
    wall = time.perf_counter() - t0
    return set(keys), wall


def _digest(ids) -> str:
    return hashlib.sha256(repr(sorted(ids)).encode("ascii")).hexdigest()


def _observed_ids(prep: Prepared, workdir: str, obs=None):
    """One retained-output pass on the workload's own host."""
    if prep.spec.host == "procs":
        res = run_procs_pass(prep, workdir, obs=obs)
        return set(res.extras["result"].merged_ids), res
    res = run_sim_pass(prep, retain=True, obs=obs)
    ids = {r.key() for r in res.extras["sim"].output_buffer.results}
    return ids, res


@dataclass
class Verified:
    """The verdict (JSON-able) plus what the traced pass reuses."""

    verdict: dict
    observed: set
    arrivals: list
    reference_wall_s: float


def verify(prep: Prepared, workdir: str) -> Verified:
    """The identity checks of one workload."""
    arrivals = _arrivals(prep)
    reference, ref_wall = _direct_drive(prep.make_reference(), arrivals)
    observed, res = _observed_ids(prep, workdir)
    checks = {}
    if prep.spec.shed_fraction is None:
        checks["equals_reference"] = observed == reference
    else:
        again, _ = _observed_ids(prep, workdir)
        checks["subset_of_reference"] = observed <= reference
        checks["identical_across_runs"] = observed == again
    # ground truth on a prefix: every reference result whose constituents
    # all arrived before the cut must be exactly the oracle's output
    cut = arrivals[min(ORACLE_PREFIX, len(arrivals) - 1)].timestamp
    w = prep.workload
    oracle = oracle_join(
        w.traces, w.predicate, w.window_sizes, w.basic, until=cut
    )
    when = {(t.stream, t.seq): t.timestamp for t in arrivals}
    prefix = {
        ids for ids in reference if all(when[c] < cut for c in ids)
    }
    checks["reference_equals_oracle_on_prefix"] = prefix == oracle.id_set
    verdict = {
        "ok": all(checks.values()),
        "checks": checks,
        "digest": _digest(observed),
        "reference_digest": _digest(reference),
        "results": len(observed),
        "reference_results": len(reference),
        "oracle_prefix_tuples": oracle.probes,
        "oracle_prefix_results": len(oracle.ids),
        "offered": prep.offered,
        "serviced": res.serviced,
        "dropped": res.dropped,
    }
    return Verified(verdict, observed, arrivals, ref_wall)


# ----------------------------------------------------------------------
# traced pass: virtual-time host
# ----------------------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


class Tally:
    """Failure accounting of the passes this child runs after verifying."""

    def __init__(self, verified: Verified) -> None:
        self.verified = verified
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, res) -> None:
        """Count one pass; all its tuples fail if it raised, dropped a
        tuple or produced another result count than the verified one."""
        self.attempted += res.offered
        if (res.error or res.dropped
                or res.results != self.verified.verdict["results"]):
            self.failed += res.offered


def _obs_overhead(prep: Prepared, workdir: str, tally: Tally,
                  untraced_wall: float):
    """One extra pass with ``obs=Obs()``: wall over the untraced median;
    the result ids must not change."""
    try:
        from repro.obs import Obs
    except ImportError:
        tally.notes.append("obs.overhead_x: repro.obs.Obs is gone")
        return None
    ids, res = _observed_ids(prep, workdir, obs=Obs())
    tally.add(res)
    if ids != tally.verified.observed:
        tally.failed += res.offered
        tally.notes.append("obs-on pass changed the result ids")
    return _ratio(res.wall_s, untraced_wall)


def _untraced(tally: Tally, passes: int | None, one_pass) -> tuple:
    """The untraced passes every overhead ratio is taken against: their
    median wall, plus the p99 service time (too jumpy for a bound, so it
    is reported here) and the host speed while they ran."""
    before = kernel_seconds()
    results = []
    for _ in range(passes or UNTRACED_PASSES):
        results.append(one_pass())
        tally.add(results[-1])
    return statistics.median(r.wall_s for r in results), {
        "operator.service_p99_us":
            statistics.median(r.service_p99_us for r in results),
        "trace.host_speed_x": speed_factor(before, kernel_seconds()),
    }


def _median_by_key(rows: list[dict]) -> dict:
    """Per-key median over the traced passes (``None`` stays ``None``)."""
    out = {}
    for key in rows[0]:
        values = [r[key] for r in rows]
        out[key] = (
            None if any(v is None for v in values)
            else statistics.median(values)
        )
    return out


def _sim_pass_metrics(prep, tracer, res, spans, evaluations) -> dict:
    """Per-layer metrics of one traced ``Simulation`` pass."""
    roll = e2e_trace.rollup(spans, tracer.hook_in_s, tracer.hook_out_s)
    layers = roll["layers"]
    tuples = res.serviced
    operator = res.extras["operator"]
    result = res.extras["result"]
    net_wall = roll["root_s"] - roll["hooks_s"]
    solver_s = float(getattr(operator, "solver_seconds_total", 0.0))
    ticks = int(getattr(operator, "adaptations", 0))
    grub = prep.spec.operator == "grubjoin"

    def per(layer, field, scale, denominator):
        """A layer's total over a denominator; ``None`` if a hook is gone."""
        if layer in tracer.missing:
            return None
        return _ratio(layers[layer][field] * scale, denominator)

    def us(layer):
        return per(layer, "self_s", 1e6, tuples)

    def share(layer):
        return per(layer, "self_s", 1.0, net_wall)

    def calls(layer):
        return per(layer, "spans", 1.0, tuples)

    states = getattr(operator, "windex_states", None) or []
    pruned = sum(s.rows_pruned for s in states)
    scanned = sum(s.rows_scanned for s in states)
    adapt_self = layers["operator.adapt"]["self_s"]
    return {
        "engine.events.us_per_tuple": us("engine.events"),
        "engine.events.share": share("engine.events"),
        "engine.events.ops_per_tuple": calls("engine.events"),
        "engine.buffers.us_per_tuple": us("engine.buffers"),
        "engine.buffers.share": share("engine.buffers"),
        "engine.buffers.backlog_at_stop": float(
            sum(s.admitted - s.consumed for s in result.streams)
        ),
        "engine.cpu.us_per_tuple": us("engine.cpu"),
        "engine.cpu.share": share("engine.cpu"),
        "engine.cpu.utilization": float(result.cpu_utilization),
        "engine.runtime.self_us_per_tuple": us("engine.runtime"),
        "engine.runtime.share": share("engine.runtime"),
        "engine.runtime.vlat_p95_ms": float(result.p95_latency) * 1e3,
        "core.basic_windows.insert_us_per_tuple":
            us("core.basic_windows.insert"),
        "core.basic_windows.insert_share":
            share("core.basic_windows.insert"),
        "core.basic_windows.slice_cut_us_per_tuple":
            us("core.basic_windows.slice_cut"),
        "core.basic_windows.slice_cut_share":
            share("core.basic_windows.slice_cut"),
        "core.basic_windows.slice_cut_calls_per_tuple":
            calls("core.basic_windows.slice_cut"),
        "core.windex.candidates_us_per_tuple": us("core.windex.candidates"),
        "core.windex.candidates_share": share("core.windex.candidates"),
        "core.windex.upkeep_us_per_tuple": us("core.windex.upkeep"),
        "core.windex.upkeep_share": share("core.windex.upkeep"),
        "core.windex.pruned_ratio": _ratio(pruned, pruned + scanned),
        "core.windex.rebuilds": float(sum(s.rebuilds for s in states)),
        "joins.columnar.kernel_self_us_per_tuple":
            us("joins.columnar.kernel"),
        "joins.columnar.kernel_share": share("joins.columnar.kernel"),
        "joins.columnar.comparisons_per_tuple": _ratio(
            float(getattr(operator, "comparisons_total", 0)), tuples
        ),
        "joins.columnar.results_per_tuple": _ratio(res.results, tuples),
        "operator.process_self_us_per_tuple": us("operator.process"),
        "operator.process_share": share("operator.process"),
        "operator.adapt_share": share("operator.adapt"),
        "core.grubjoin.adapt_us_per_tick": (
            _ratio(max(adapt_self - solver_s, 0.0) * 1e6, ticks)
            if grub else 0.0
        ),
        "core.greedy.solver_us_per_tick":
            _ratio(solver_s * 1e6, ticks) if grub else 0.0,
        "core.greedy.evaluations_per_tick":
            _ratio(float(evaluations), ticks) if grub else 0.0,
        "core.throttle.z_final":
            float(getattr(operator, "throttle_fraction", 0.0)),
        "trace.hooks_share": _ratio(roll["hooks_s"], roll["root_s"]),
        "trace.coverage": _ratio(
            sum(v["self_s"] for v in layers.values()) + roll["hooks_s"],
            res.wall_s,
        ),
        "trace.spans_per_tuple": _ratio(float(len(spans)), tuples),
        "_net_wall_s": net_wall,
    }


def trace_sim(prep: Prepared, tally: Tally, budget_s: float,
              trace_out: str | None, passes: int | None) -> dict:
    """Untraced passes, traced passes, one obs-on pass; returns the
    per-layer metrics (medians over the traced passes)."""
    started = time.perf_counter()
    untraced_wall, baseline = _untraced(
        tally, passes, lambda: run_sim_pass(prep)
    )

    tracer = e2e_trace.Tracer()
    tracer.calibrate()
    tracer.install()
    for layer, targets in tracer.missing.items():
        tally.notes.append(
            f"{layer}: hook target gone ({', '.join(targets)}); "
            "its timings are null"
        )
    grub = prep.spec.operator == "grubjoin"
    evaluations = [0]

    def wrap(operator):
        if grub:
            inner = operator.on_adapt
            last = [None]

            def on_adapt(now, stats, interval):
                inner(now, stats, interval)
                solved = getattr(operator, "last_solver_result", None)
                if solved is not None and solved is not last[0]:
                    last[0] = solved
                    evaluations[0] += solved.evaluations

            operator.on_adapt = on_adapt
        tracer.wrap_operator(operator)

    rows, traced_walls = [], []
    try:
        while True:
            evaluations[0] = 0
            tracer.begin()
            res = run_sim_pass(
                prep, wrap=wrap,
                operator_kwargs=(
                    {"solver_timer": time.perf_counter} if grub else None
                ),
            )
            spans = tracer.finish()
            tally.add(res)
            traced_walls.append(res.wall_s)
            rows.append(
                _sim_pass_metrics(prep, tracer, res, spans, evaluations[0])
            )
            if len(rows) >= (passes or MAX_TRACED_PASSES) or (
                passes is None
                and time.perf_counter() - started >= budget_s
            ):
                break
    finally:
        tracer.uninstall()
    if trace_out:
        spans.write(trace_out)

    metrics = _median_by_key(rows)
    net_wall = metrics.pop("_net_wall_s")
    metrics["trace.overhead_x"] = _ratio(
        statistics.median(traced_walls), untraced_wall
    )
    metrics["trace.residual_x"] = _ratio(net_wall, untraced_wall)
    metrics["trace.passes"] = float(len(rows))
    metrics["obs.overhead_x"] = _obs_overhead(prep, "", tally, untraced_wall)
    metrics.update(baseline)
    return metrics


# ----------------------------------------------------------------------
# traced pass: process-parallel host
# ----------------------------------------------------------------------


class _PipeCapture:
    """Keeps a reference to every batch the supervisor sends and every ack
    it receives, so the exact payloads can be pickled again standalone."""

    def __init__(self) -> None:
        from multiprocessing.connection import Connection

        self._cls = Connection
        self._send, self._recv = Connection.send, Connection.recv
        self._pid = os.getpid()
        self.batches: list = []
        self.acks: list = []

    def __enter__(self):
        capture = self

        def send(conn, obj):
            if os.getpid() == capture._pid and obj[0] == "batch":
                capture.batches.append(obj)
            return capture._send(conn, obj)

        def recv(conn):
            obj = capture._recv(conn)
            if os.getpid() == capture._pid and obj[0] == "ack":
                capture.acks.append(obj)
            return obj

        self._cls.send, self._cls.recv = send, recv
        return self

    def __exit__(self, *exc):
        self._cls.send, self._cls.recv = self._send, self._recv


def _transport_metrics(capture: _PipeCapture, tuples: int, results: int):
    from multiprocessing.reduction import ForkingPickler

    t0 = time.perf_counter()
    batch_blobs = [bytes(ForkingPickler.dumps(m)) for m in capture.batches]
    batch_s = time.perf_counter() - t0
    ack_blobs = [bytes(ForkingPickler.dumps(m)) for m in capture.acks]
    t0 = time.perf_counter()
    for blob in ack_blobs:
        pickle.loads(blob)
    ack_s = time.perf_counter() - t0
    return {
        "parallel.procs.batch_bytes_per_tuple":
            _ratio(float(sum(map(len, batch_blobs))), tuples),
        "parallel.procs.ack_bytes_per_result":
            _ratio(float(sum(map(len, ack_blobs))), results),
        "parallel.procs.batch_pickle_us_per_tuple":
            _ratio(batch_s * 1e6, tuples),
        "parallel.procs.ack_unpickle_us_per_result":
            _ratio(ack_s * 1e6, results),
        "parallel.procs.batches": float(len(capture.batches)),
    }


def _router_merger_metrics(arrivals, streams: int, capture: _PipeCapture):
    """Standalone replay of the supervisor's per-tuple / per-result calls."""
    from repro.parallel import MergerOperator, RouterOperator
    from repro.streams import StreamTuple

    router = RouterOperator(
        num_streams=streams, num_shards=PROCS_WORKERS, policy="hash",
        rebalance_threshold=None,
    )
    t0 = time.perf_counter()
    for tup in arrivals:
        router.process(tup, tup.delivery_time)
    router_s = time.perf_counter() - t0
    merger = MergerOperator(PROCS_WORKERS)
    results = 0
    t0 = time.perf_counter()
    for ack in capture.acks:
        worker_id = ack[1]
        for key in ack[4]:
            merger.process(
                StreamTuple(value=key, timestamp=0.0, stream=worker_id), 0.0
            )
            results += 1
    merger_s = time.perf_counter() - t0
    return {
        "parallel.router.us_per_tuple":
            _ratio(router_s * 1e6, len(arrivals)),
        "parallel.merger.us_per_result": _ratio(merger_s * 1e6, results),
    }


def trace_procs(prep: Prepared, tally: Tally, workdir: str,
                passes: int | None) -> dict:
    """Untraced passes, one pass with the pipes captured, the standalone
    replays, one obs-on pass; returns the per-layer metrics."""
    verified = tally.verified
    untraced = []

    def one_pass():
        untraced.append(run_procs_pass(prep, workdir))
        return untraced[-1]

    untraced_wall, baseline = _untraced(tally, passes, one_pass)

    with _PipeCapture() as capture:
        res = run_procs_pass(prep, workdir)
    tally.add(res)
    result = res.extras["result"]
    routed = result.routed_per_worker
    inproc_tps = _ratio(len(verified.arrivals), verified.reference_wall_s)
    metrics = {
        "parallel.router.routed_skew":
            _ratio(float(max(routed)), sum(routed) / len(routed)),
        "parallel.procs.supervisor_cpu_share": statistics.median(
            _ratio(r.extras["supervisor_cpu_s"], r.wall_s) for r in untraced
        ),
        "parallel.procs.worker_cpu_s": statistics.median(
            r.extras["worker_cpu_s"] for r in untraced
        ),
        "parallel.procs.inproc_tuples_per_s": inproc_tps,
        "parallel.procs.speedup_vs_inproc_x": _ratio(
            _ratio(res.serviced, untraced_wall), inproc_tps
        ),
        "joins.columnar.comparisons_per_tuple": _ratio(
            float(sum(result.comparisons_per_worker)), res.serviced
        ),
        "joins.columnar.results_per_tuple":
            _ratio(res.results, res.serviced),
        "trace.overhead_x": _ratio(res.wall_s, untraced_wall),
        "trace.passes": 1.0,
    }
    for name, fn, args in (
        ("transport", _transport_metrics,
         (capture, res.serviced, res.results)),
        ("router/merger replay", _router_merger_metrics,
         (verified.arrivals, prep.workload.m, capture)),
    ):
        try:
            metrics.update(fn(*args))
        except (ImportError, AttributeError, TypeError) as exc:
            tally.notes.append(
                f"parallel {name}: {exc}; its metrics are null"
            )
    metrics["obs.overhead_x"] = _obs_overhead(
        prep, workdir, tally, untraced_wall
    )
    metrics.update(baseline)
    return metrics


# ----------------------------------------------------------------------
# child entry
# ----------------------------------------------------------------------


def run(name: str, seed: int, *, smoke: bool, trace: bool, seconds: float,
        passes: int | None, workdir: str, trace_out: str | None) -> dict:
    """The whole second child; returns a JSON-able report."""
    t0 = time.perf_counter()
    prep = prepare(name, seed, smoke=smoke)
    verified = verify(prep, workdir)
    verify_s = time.perf_counter() - t0
    spec = prep.spec
    report = {
        "workload": name,
        "seed": seed,
        "parameters": {
            "builder": spec.builder,
            **(spec.smoke if smoke else spec.params),
            "operator": spec.operator,
            "host": spec.host,
            "shed_fraction": spec.shed_fraction,
            "adaptation_interval": spec.adaptation_interval,
        },
        "verify": verified.verdict,
        "verify_s": verify_s,
        "layers": None,
        "notes": [],
        "attempted": 0,
        "failed": 0,
    }
    if trace:
        tally = Tally(verified)
        if prep.spec.host == "procs":
            metrics = trace_procs(prep, tally, workdir, passes)
        else:
            metrics = trace_sim(prep, tally, seconds, trace_out, passes)
        metrics["testkit.verify_s"] = verify_s
        report.update(layers=metrics, notes=tally.notes,
                      attempted=tally.attempted, failed=tally.failed)
    return report
