"""Unit tests for the cross-process telemetry aggregation layer.

The exactness contract is the headline: merging K workers' shipped
deltas — however the shipping was chunked — reproduces exactly the
telemetry a single process observing all K workers' events would have
recorded.  Counters add, histograms merge bucket-wise over the shared
fixed log2 edges, series stay per-worker, spans keep their structure
under id remapping, and the finalized export is deterministic.
"""

import pytest

from repro.obs import (
    DeltaShipper,
    Obs,
    TelemetryAggregator,
    TelemetryDelta,
    jsonl_lines,
    reference_aggregate,
    worker_scoped,
)


def populate(obs: Obs, worker: int, events: int) -> Obs:
    """Deterministic per-worker telemetry across every instrument kind.

    Safe to call repeatedly on one ``Obs`` — the virtual clock resumes
    where the previous call left off (series time must not go backwards).
    """
    t = [0.0]
    obs.bind_clock(lambda: t[0])
    counter = obs.counter("events_total", kind="demo")
    gauge = obs.gauge("depth")
    hist = obs.histogram("work_units")
    series = obs.series("z")
    start = len(series)
    for j in range(events):
        i = start + j
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


class TestDeltaShipper:
    def test_first_delta_snapshots_everything(self):
        obs = make_worker(0, 3)
        delta = DeltaShipper(obs, 0).collect()
        assert delta.worker == 0
        names = {name for name, _labels, _v in delta.counters}
        assert names == {"events_total"}
        assert len(delta.spans) == 3

    def test_second_delta_is_incremental(self):
        obs = make_worker(1, 3)
        shipper = DeltaShipper(obs, 1)
        shipper.collect()
        quiet = shipper.collect()
        assert quiet == TelemetryDelta(worker=1, now=quiet.now)
        obs.counter("events_total", kind="demo").inc(5)
        growth = shipper.collect()
        assert growth.counters == (("events_total", {"kind": "demo"}, 5),)
        assert growth.spans == ()

    def test_deltas_are_picklable(self):
        import pickle

        delta = DeltaShipper(make_worker(0, 2), 0).collect()
        clone = pickle.loads(pickle.dumps(delta))
        assert clone.counters == delta.counters
        assert [s.name for s in clone.spans] == [
            s.name for s in delta.spans
        ]


class TestExactMerge:
    def test_chunked_shipping_equals_one_shot_reference(self):
        # ship worker 0 in three increments and worker 1 in one; the
        # merged registry must be byte-identical to the one-shot
        # reference aggregate of fully populated workers
        w0, w1 = Obs(), Obs()
        merged = Obs()
        aggregator = TelemetryAggregator(merged)
        s0, s1 = DeltaShipper(w0, 0), DeltaShipper(w1, 1)
        for chunk in (2, 3, 4):
            populate(w0, 0, chunk)
            aggregator.absorb(s0.collect())
        populate(w1, 1, 6)
        aggregator.absorb(s1.collect())
        aggregator.finalize()

        ref0, ref1 = Obs(), Obs()
        for chunk in (2, 3, 4):
            populate(ref0, 0, chunk)
        populate(ref1, 1, 6)
        reference = reference_aggregate({0: ref0, 1: ref1})
        assert list(jsonl_lines(merged)) == list(jsonl_lines(reference))

    def test_histogram_merge_is_exact(self):
        # the aggregate histogram must equal one histogram observing
        # every worker's values: same buckets, count, sum, min, max
        workers = {k: make_worker(k, 4 + k) for k in range(3)}
        merged = reference_aggregate(workers)
        single = Obs().histogram("work_units")
        for k in range(3):
            for i in range(4 + k):
                single.observe(0.3 * (i + 1) * (k + 1))
        total = [
            inst
            for inst in merged.registry.collect()
            if inst.name == "work_units"
        ]
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
        # ack arrival order is scheduling-dependent; the finalized
        # export must not be
        def build(order):
            merged = Obs()
            aggregator = TelemetryAggregator(merged)
            deltas = {
                k: DeltaShipper(make_worker(k, 3 + k), k).collect()
                for k in (0, 1, 2)
            }
            for k in order:
                aggregator.absorb(deltas[k])
            aggregator.finalize()
            return list(jsonl_lines(merged))

        assert build((0, 1, 2)) == build((2, 0, 1))

    def test_worker_provenance_is_stamped(self):
        merged = reference_aggregate({4: make_worker(4, 2)})
        for inst in merged.registry.collect():
            assert inst.label_dict().get("worker") == "4"
        assert all(
            s.labels.get("worker") == "4" for s in merged.spans.records
        )

    def test_finalize_is_idempotent_and_absorb_after_raises(self):
        merged = Obs()
        aggregator = TelemetryAggregator(merged)
        delta = DeltaShipper(make_worker(0, 2), 0).collect()
        aggregator.absorb(delta)
        aggregator.finalize()
        spans = len(merged.spans.records)
        aggregator.finalize()
        assert len(merged.spans.records) == spans
        with pytest.raises(RuntimeError, match="finalized"):
            aggregator.absorb(delta)


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
        merged = reference_aggregate({7: source})
        child = merged.spans.named("solver.greedy")[0]
        parent = merged.spans.named("adapt")[0]
        assert child.parent_id == parent.span_id
        assert child.labels["worker"] == "7"
        assert child.attrs == {"steps": 3}


class TestWorkerScopedFilter:
    def test_keeps_meta_and_worker_records_only(self):
        merged = reference_aggregate(
            {0: make_worker(0, 2)}, meta={"workload": "demo"}
        )
        merged.counter("procs_batches_total").inc(9)  # supervisor-side
        lines = list(jsonl_lines(merged, select=worker_scoped))
        assert any('"type":"meta"' in line for line in lines)
        assert not any("procs_batches_total" in line for line in lines)
        assert all(
            '"type":"meta"' in line or '"worker"' in line
            for line in lines
        )
