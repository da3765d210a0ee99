"""Unit tests for merging worker recordings into one ``Obs``.

The exactness contract is the headline: merging K workers' recordings
reproduces exactly the telemetry a single process observing all K
workers' events would have recorded.  Counters add, histograms merge
bucket-wise over the shared fixed log2 edges, series stay per-worker,
spans keep their structure under id remapping, instruments that never
moved are not registered, and the merged export does not depend on the
order the recordings arrived in.
"""

import pytest

from repro.obs import Obs, jsonl_lines, parse_lines, worker_scoped
from repro.obs.export import merge_workers


def populate(obs: Obs, worker: int, events: int) -> Obs:
    """Deterministic per-worker telemetry across every instrument kind."""
    t = [0.0]
    obs.bind_clock(lambda: t[0])
    counter = obs.counter("events_total", kind="demo")
    gauge = obs.gauge("depth")
    hist = obs.histogram("work_units")
    series = obs.series("z")
    for i in range(events):
        t[0] = float(i)
        counter.inc(worker + 1)
        gauge.set(i * 0.5)
        hist.observe(0.3 * (i + 1) * (worker + 1))
        series.observe(float(i), 1.0 / (i + 1))
        with obs.span("service", stream=str(i % 2)) as sp:
            sp.annotate(comparisons=i)
    return obs


def make_worker(worker: int, events: int) -> Obs:
    obs = Obs()
    populate(obs, worker, events)
    return obs


def merged(workers: dict, meta: dict | None = None) -> Obs:
    obs = Obs()
    obs.meta.update(meta or {})
    merge_workers(obs, workers)
    return obs


def shipped(obs: Obs) -> Obs:
    """``obs`` as the supervisor receives it: through JSONL."""
    return parse_lines(list(jsonl_lines(obs)))


class TestExactMerge:
    def test_recording_round_trip_equals_in_process_merge(self):
        workers = {k: make_worker(k, 3 + k) for k in range(3)}
        over_the_pipe = merged({k: shipped(w) for k, w in workers.items()})
        assert list(jsonl_lines(over_the_pipe)) == list(
            jsonl_lines(merged(workers))
        )

    def test_histogram_merge_is_exact(self):
        # the merged histograms must equal one histogram observing
        # every worker's values: same buckets, count, sum, min, max
        workers = {k: make_worker(k, 4 + k) for k in range(3)}
        total = [
            inst
            for inst in merged(workers).registry.collect()
            if inst.name == "work_units"
        ]
        single = Obs().histogram("work_units")
        for k in range(3):
            for i in range(4 + k):
                single.observe(0.3 * (i + 1) * (k + 1))
        assert sum(h.count for h in total) == single.count
        assert sum(h.sum for h in total) == pytest.approx(single.sum)
        combined = [0] * len(single.counts)
        for h in total:
            for i, fill in enumerate(h.counts):
                combined[i] += fill
        assert combined == single.counts
        assert min(h.min for h in total) == single.min
        assert max(h.max for h in total) == single.max

    def test_absorb_order_does_not_change_finalized_export(self):
        # byes arrive in a scheduling-dependent order; the merged
        # export must not depend on it
        def build(order):
            return list(jsonl_lines(merged(
                {k: shipped(make_worker(k, 3 + k)) for k in order}
            )))

        assert build((0, 1, 2)) == build((2, 0, 1))

    def test_worker_provenance_is_stamped(self):
        worker = make_worker(4, 2)
        worker.meta["operator"] = "demo"
        merge = merged({4: worker})
        for inst in merge.registry.collect():
            assert inst.label_dict().get("worker") == "4"
        assert all(
            s.labels.get("worker") == "4" for s in merge.spans.records
        )
        assert merge.meta["worker_meta"] == {"4": {"operator": "demo"}}


class TestUnmovedInstruments:
    def test_zero_counter_empty_histogram_empty_series_are_skipped(self):
        worker = Obs()
        worker.counter("idle_total")
        worker.histogram("idle_units")
        worker.series("idle_z")
        worker.gauge("idle_depth")
        worker.counter("busy_total").inc(2)
        worker.histogram("busy_units").observe(1.5)
        worker.series("busy_z").observe(0.0, 1.0)
        names = {
            inst.name
            for inst in merged({0: shipped(worker)}).registry.collect()
        }
        assert names == {"busy_total", "busy_units", "busy_z", "idle_depth"}


class TestSpanRemapping:
    def test_parent_child_structure_survives_adoption(self):
        source = Obs()
        t = [0.0]
        source.bind_clock(lambda: t[0])
        with source.span("adapt"):
            t[0] = 1.0
            with source.span("solver.greedy") as sp:
                sp.annotate(steps=3)
            t[0] = 2.0
        merge = merged({7: make_worker(7, 2), 8: shipped(source)})
        child = merge.spans.named("solver.greedy")[0]
        parent = merge.spans.named("adapt")[0]
        assert child.parent_id == parent.span_id
        assert child.labels["worker"] == "8"
        assert child.attrs == {"steps": 3}


class TestWorkerScopedFilter:
    def test_keeps_meta_and_worker_records_only(self):
        merge = merged({0: make_worker(0, 2)}, meta={"workload": "demo"})
        merge.counter("procs_batches_total").inc(9)  # supervisor-side
        lines = list(jsonl_lines(merge, select=worker_scoped))
        assert any('"type":"meta"' in line for line in lines)
        assert not any("procs_batches_total" in line for line in lines)
        assert all(
            '"type":"meta"' in line or '"worker"' in line
            for line in lines
        )
