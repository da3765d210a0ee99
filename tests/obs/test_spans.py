"""Tests for virtual-time spans and the Obs facade."""

import pytest

from repro.obs import Obs, SpanRecorder


class FakeClock:
    """A settable virtual clock for unit tests."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestSpanNesting:
    def test_context_manager_reads_clock(self):
        clock = FakeClock()
        rec = SpanRecorder(clock)
        clock.t = 1.0
        with rec.span("outer"):
            clock.t = 3.0
        [span] = rec.records
        assert (span.name, span.start, span.end) == ("outer", 1.0, 3.0)
        assert span.duration == 2.0
        assert span.parent_id is None

    def test_nesting_parents_children(self):
        clock = FakeClock()
        rec = SpanRecorder(clock)
        with rec.span("adapt") as outer:
            with rec.span("solver.greedy") as inner:
                inner.annotate(steps=12)
        adapt, solver = rec.named("adapt")[0], rec.named("solver.greedy")[0]
        assert solver.parent_id == adapt.span_id
        assert [r for r in rec.records if r.parent_id == adapt.span_id] == [
            solver
        ]
        assert solver.attrs == {"steps": 12}
        assert outer.span_id == adapt.span_id

    def test_direct_record_parents_under_open_span(self):
        rec = SpanRecorder(FakeClock())
        with rec.span("adapt"):
            rec.record("service", start=1.0, end=2.0, labels={"stream": "0"})
        service = rec.named("service")[0]
        assert service.parent_id == rec.named("adapt")[0].span_id
        rec.record("service", start=3.0, end=3.0)
        assert rec.named("service")[1].parent_id is None

    def test_record_rejects_backwards_interval(self):
        rec = SpanRecorder(FakeClock())
        with pytest.raises(ValueError, match="end before"):
            rec.record("x", start=2.0, end=1.0)

    def test_max_spans_cap_counts_dropped(self):
        rec = SpanRecorder(FakeClock(), max_spans=2)
        for i in range(5):
            rec.record("s", start=float(i), end=float(i))
        assert len(rec.records) == 2
        assert rec.dropped == 3

    def test_top_by_attr_deterministic_ties(self):
        rec = SpanRecorder(FakeClock())
        rec.record("s", 2.0, 2.0, attrs={"comparisons": 5})
        rec.record("s", 1.0, 1.0, attrs={"comparisons": 5})
        rec.record("s", 0.0, 0.0, attrs={"comparisons": 9})
        top = rec.top_by_attr("s", "comparisons", 3)
        assert [s.attrs["comparisons"] for s in top] == [9, 5, 5]
        # tie broken by earliest start
        assert top[1].start == 1.0 and top[2].start == 2.0


class TestObsFacade:
    def test_bound_clock_drives_spans(self):
        obs = Obs()
        clock = FakeClock()
        obs.bind_clock(clock)
        clock.t = 4.0
        assert obs.now() == 4.0
        with obs.span("tick"):
            clock.t = 6.0
        assert obs.spans.records[0].start == 4.0
        assert obs.spans.records[0].end == 6.0

    def test_registry_shorthands_share_registry(self):
        obs = Obs()
        obs.counter("c").inc()
        obs.gauge("g").set(2.0)
        obs.histogram("h").observe(1.0)
        obs.series("s").observe(0.0, 1.0)
        assert len(obs.registry) == 4
        assert obs.registry.get("c").value == 1

    def test_max_spans_forwarded(self):
        obs = Obs(max_spans=1)
        with obs.span("a"):
            pass
        with obs.span("b"):
            pass
        assert len(obs.spans.records) == 1
        assert obs.spans.dropped == 1
