"""End-to-end tests for the procs cross-process telemetry plane.

Three contracts:

* **obs on changes no results** — a telemetry-enabled run merges the
  exact identity set the oracle (and the telemetry-off run) produces;
* **merge exactness** — the supervisor's merged registry is
  byte-identical (worker-scoped JSONL) to an in-process replay of the
  same per-worker event streams, merged straight from the workers'
  ``Obs`` — so the fork, the pipe and the JSONL round trip of the
  "bye" lose nothing;
* **crash forensics** — a crashing worker's post-mortem carries its
  flight-recorder tail with worker provenance.
"""

import pytest

from repro.engine.buffers import BufferStats
from repro.engine.operator import ProcessReceipt, StreamOperator
from repro.joins import MJoinOperator
from repro.lint.plan import PlanValidationError
from repro.obs import Obs, jsonl_lines, worker_scoped
from repro.obs.export import merge_workers
from repro.parallel import procs as runtime
from repro.parallel import run_procs
from repro.parallel.router import RouterOperator
from repro.testkit import key_workload, oracle_ids
from repro.testkit.differential import DRAIN_TAIL
from repro.timing import ManualTimer

ADAPT = 2.0


def grub_factory(workload, seed):
    """The telemetry-rich shard factory: GrubJoin with a pinned
    throttle (z < 1 keeps the per-worker solver and its spans busy)."""
    from repro.core import GrubJoinOperator
    from repro.core.throttle import FixedThrottle

    def _shard(worker_id: int):
        operator = GrubJoinOperator(
            workload.predicate,
            list(workload.window_sizes),
            workload.basic,
            rng=seed * 1000 + worker_id,
        )
        operator.throttle = FixedThrottle(0.5)
        return operator

    return _shard


def procs_obs_run(workload, factory, num_shards, **kwargs):
    obs = Obs()
    result = run_procs(
        workload.traces,
        factory,
        num_shards,
        duration=workload.duration + DRAIN_TAIL,
        adaptation_interval=ADAPT,
        obs=obs,
        timer=ManualTimer(),
        **kwargs,
    )
    return result, obs


def worker_lines(obs):
    """The deterministic export domain: worker-scoped records, meta
    aside."""
    return [
        line
        for line in jsonl_lines(obs, select=worker_scoped)
        if '"type":"meta"' not in line
    ]


def replay_in_process(workload, factory, num_shards):
    """Mirror ``_worker_main`` in-process: same routing, same per-worker
    tuple order, same synthesized-stats adaptation ticks — then merge
    the per-worker ``Obs`` directly (the exactness reference)."""
    m = len(workload.traces)
    router = RouterOperator(num_streams=m, num_shards=num_shards)
    arrivals = sorted(
        (
            tup
            for source in workload.traces
            for tup in source.iter_tuples(workload.duration + DRAIN_TAIL)
        ),
        key=lambda t: (t.delivery_time, t.stream, t.seq),
    )
    workers = {}
    for wid in range(num_shards):
        operator = factory(wid)
        obs = Obs()
        clock = [0.0]
        obs.bind_clock(lambda clock=clock: clock[0])
        operator.bind_obs(obs)
        workers[wid] = {
            "operator": operator,
            "obs": obs,
            "clock": clock,
            "next_adapt": ADAPT,
            "arrivals": [0] * m,
        }
    for tup in arrivals:
        receipt = router.process(tup, tup.delivery_time)
        state = workers[receipt.outputs[0].shard]
        now = tup.delivery_time
        while now >= state["next_adapt"]:
            state["clock"][0] = state["next_adapt"]
            stats = [
                BufferStats(pushed=c, popped=c, dropped=0, depth=0)
                for c in state["arrivals"]
            ]
            state["operator"].on_adapt(state["next_adapt"], stats, ADAPT)
            state["arrivals"] = [0] * m
            state["next_adapt"] += ADAPT
        state["clock"][0] = now
        state["arrivals"][tup.stream] += 1
        state["operator"].process(tup, now)
    for state in workers.values():  # the stop-time flush
        state["operator"].on_finish(state["clock"][0])
    merged = Obs()
    merge_workers(
        merged, {wid: state["obs"] for wid, state in workers.items()}
    )
    return merged


class CrashShard(StreamOperator):
    """Raises mid-stream to exercise the crash post-mortem."""

    num_streams = 3

    def __init__(self):
        self.count = 0

    def process(self, tup, now):
        self.count += 1
        if self.count > 5:
            raise ValueError("boom on purpose")
        return ProcessReceipt(comparisons=1)


class TestResultsUnchanged:
    def test_telemetry_on_matches_oracle_and_telemetry_off(self):
        workload = key_workload(seed=3, duration=6.0)
        factory = grub_factory(workload, seed=3)
        with_obs, _obs = procs_obs_run(workload, factory, 2)
        without_obs = run_procs(
            workload.traces, factory, 2,
            duration=workload.duration + DRAIN_TAIL,
            adaptation_interval=ADAPT,
        )
        assert with_obs.merged_ids == without_obs.merged_ids
        # GrubJoin at z=0.5 sheds, so compare against the full oracle
        # only by inclusion — but the two runs must agree exactly
        assert set(with_obs.merged_ids) <= oracle_ids(workload).id_set

    def test_mjoin_identity_holds_with_telemetry(self):
        workload = key_workload(seed=1, duration=5.0)

        def factory(worker_id: int) -> MJoinOperator:
            return MJoinOperator(
                workload.predicate,
                workload.window_sizes,
                workload.basic,
            )

        result, _obs = procs_obs_run(workload, factory, 2)
        assert set(result.merged_ids) == oracle_ids(workload).id_set


class TestDeltaMergeExactness:
    def test_procs_aggregate_equals_in_process_reference(self):
        # the headline exactness contract: recordings shipped over real
        # process pipes as JSONL reconstruct, byte for byte, what a
        # single process observing every worker's events records
        workload = key_workload(seed=3, duration=6.0)
        factory = grub_factory(workload, seed=3)
        _result, obs = procs_obs_run(workload, factory, 2)
        reference = replay_in_process(workload, factory, 2)
        assert worker_lines(obs) == worker_lines(reference)

    def test_stop_time_flush_telemetry_rides_the_bye(self):
        # an indexed join publishes its windex_* counter deltas at ticks
        # and in on_finish; what accrued after the last tick only
        # reaches the supervisor if the worker runs the flush before
        # it takes its recording
        workload = key_workload(seed=3, duration=6.0)

        def factory(worker_id: int) -> MJoinOperator:
            return MJoinOperator(
                workload.predicate, workload.window_sizes, workload.basic,
                index="hash",
            )

        _result, obs = procs_obs_run(workload, factory, 2)
        reference = replay_in_process(workload, factory, 2)
        assert worker_lines(obs) == worker_lines(reference)
        assert any('"windex_rows_total"' in line
                   for line in worker_lines(obs))

    def test_worker_scoped_export_is_bit_identical_across_runs(self):
        workload = key_workload(seed=4, duration=6.0)
        factory = grub_factory(workload, seed=4)
        _first, obs_a = procs_obs_run(workload, factory, 2)
        _second, obs_b = procs_obs_run(workload, factory, 2)
        lines_a = list(jsonl_lines(obs_a, select=worker_scoped))
        lines_b = list(jsonl_lines(obs_b, select=worker_scoped))
        assert lines_a == lines_b
        assert lines_a, "worker-scoped export is empty — test is vacuous"

    def test_worker_telemetry_carries_shedding_decisions(self):
        workload = key_workload(seed=3, duration=6.0)
        _result, obs = procs_obs_run(
            workload, grub_factory(workload, seed=3), 2
        )
        workers = {d.worker for d in obs.decisions}
        assert workers == {0, 1}
        assert all(d.worker is not None for d in obs.decisions)
        # spans carry worker provenance too
        assert obs.spans.records
        assert all(
            s.labels.get("worker") in {"0", "1"}
            for s in obs.spans.records
        )


class TestRunMetadata:
    def test_meta_merges_runtime_and_user_keys(self):
        workload = key_workload(seed=1, duration=4.0)
        _result, obs = procs_obs_run(
            workload, grub_factory(workload, seed=1), 2,
            meta={"experiment": "telemetry-e2e", "seed": 1},
        )
        assert obs.meta["runtime"] == "procs"
        assert obs.meta["num_shards"] == 2
        assert obs.meta["adaptation_interval"] == ADAPT
        assert obs.meta["experiment"] == "telemetry-e2e"
        assert obs.meta["seed"] == 1


class TestCrashFlightRecorder:
    def test_post_mortem_carries_flight_tail_with_provenance(
        self, monkeypatch
    ):
        monkeypatch.setattr(runtime, "BATCH_SIZE", 4)
        workload = key_workload(seed=1, duration=4.0)
        with pytest.raises(RuntimeError) as excinfo:
            run_procs(
                workload.traces,
                lambda worker_id: CrashShard(),
                2,
                duration=workload.duration,
                certify=False,
                obs=Obs(),
                timer=ManualTimer(),
            )
        message = str(excinfo.value)
        assert "crashed" in message
        assert "boom on purpose" in message          # the traceback
        assert "flight recorder (last" in message    # the tail
        assert "recv batch seq=0" in message         # actual history
        # provenance: the tail names the worker that crashed
        wid = message.split("shard worker ", 1)[1].split(" ", 1)[0]
        assert f"worker {wid} flight recorder" in message

    def test_crash_without_obs_still_ships_the_tail(self, monkeypatch):
        monkeypatch.setattr(runtime, "BATCH_SIZE", 4)
        workload = key_workload(seed=1, duration=4.0)
        with pytest.raises(RuntimeError, match="flight recorder"):
            run_procs(
                workload.traces,
                lambda worker_id: CrashShard(),
                2,
                duration=workload.duration,
                certify=False,
            )

    def test_crash_report_queued_behind_unread_acks_is_found(
        self, monkeypatch
    ):
        """One-tuple batches, a deep inflight cap and no control-tick
        drain: the five acks that precede the crash sit unread in the
        pipe, so the parting error report is the sixth message — the
        supervisor must read past the acks to find it."""
        monkeypatch.setattr(runtime, "BATCH_SIZE", 1)
        monkeypatch.setattr(runtime, "MAX_INFLIGHT", 64)
        monkeypatch.setattr(runtime, "CONTROL_INTERVAL", 10**9)
        workload = key_workload(seed=1, duration=4.0)
        with pytest.raises(RuntimeError) as excinfo:
            run_procs(
                workload.traces,
                lambda worker_id: CrashShard(),
                2,
                duration=workload.duration,
                certify=False,
            )
        message = str(excinfo.value)
        assert "died without an error report" not in message
        assert "boom on purpose" in message          # the child traceback
        assert "flight recorder (last" in message    # the tail


class TestWorkerTelemetryCertification:
    def test_hidden_telemetry_object_is_rejected(self):
        workload = key_workload(seed=1, duration=2.0)
        sink = Obs()

        def _stashed(worker_id: int) -> MJoinOperator:
            operator = MJoinOperator(
                workload.predicate,
                workload.window_sizes,
                workload.basic,
            )
            operator.secret_sink = Obs()
            return operator

        def _shared(worker_id: int) -> MJoinOperator:
            operator = _stashed(worker_id)
            operator.secret_sink = sink
            return operator

        for factory in (_stashed, _shared):
            with pytest.raises(PlanValidationError, match="P126"):
                run_procs(
                    workload.traces, factory, 2,
                    duration=workload.duration,
                )

    def test_clean_grub_factory_passes_the_gate(self):
        # certify=True is the default — a run reaching results proves
        # the P126 gate accepts telemetry-free factories
        workload = key_workload(seed=1, duration=3.0)
        result, _obs = procs_obs_run(
            workload, grub_factory(workload, seed=1), 2
        )
        assert result.workers_spawned == 2
