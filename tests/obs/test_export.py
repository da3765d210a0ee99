"""Exporter determinism, the recording round trip, and the report."""

import io
import json

import numpy as np
import pytest

from repro.obs import (
    Obs,
    jsonl_lines,
    load_recording,
    parse_lines,
    render_report,
    write_jsonl,
)
from repro.obs.export import jsonable


def sample_obs() -> Obs:
    """A small hand-built Obs exercising every record type."""
    obs = Obs()
    obs.meta = {"workload": "unit", "seed": 1}
    t = {"now": 0.0}
    obs.bind_clock(lambda: t["now"])
    with obs.span("adapt") as outer:
        t["now"] = 1.0
        outer.annotate(pushed=[3, 4])
        obs.spans.record("service", 0.25, 0.5, labels={"stream": "0"},
                         attrs={"comparisons": 7})
    obs.counter("drops_total", stream=0).inc(5)
    obs.counter("drops_total", stream=1).inc(2)
    obs.gauge("throttle", node="join").set(0.5)
    h = obs.histogram("latency")
    for v in (0.1, 0.4, 3.0):
        h.observe(v)
    s = obs.series("depth", stream=0)
    s.observe(0.0, 1.0)
    s.observe(1.0, 4.0)
    return obs


class TestJsonl:
    def test_byte_identical_across_calls(self):
        obs = sample_obs()
        assert list(jsonl_lines(obs)) == list(jsonl_lines(obs))

    def test_identical_across_equal_runs(self):
        assert (list(jsonl_lines(sample_obs()))
                == list(jsonl_lines(sample_obs())))

    def test_layout(self):
        lines = [json.loads(line) for line in jsonl_lines(sample_obs())]
        assert lines[0] == {"type": "meta", "workload": "unit", "seed": 1}
        kinds = [line["type"] for line in lines]
        # spans before series before scalar metrics (name-sorted)
        assert kinds == ["meta", "span", "span", "series", "counter",
                         "counter", "histogram", "gauge"]
        # the directly recorded service span parented under "adapt"
        spans = {line["name"]: line for line in lines if line["type"] == "span"}
        assert spans["service"]["parent"] == spans["adapt"]["id"]
        assert spans["adapt"]["attrs"]["pushed"] == [3, 4]

    def test_sorted_compact_keys(self):
        for line in jsonl_lines(sample_obs()):
            assert ": " not in line and ", " not in line
            keys = list(json.loads(line).keys())
            assert keys == sorted(keys)

    def test_write_jsonl_path_and_stream_agree(self, tmp_path):
        obs = sample_obs()
        path = tmp_path / "run.jsonl"
        buf = io.StringIO()
        n_path = write_jsonl(obs, str(path))
        n_buf = write_jsonl(obs, buf)
        assert n_path == n_buf == 8
        assert path.read_text(encoding="utf-8") == buf.getvalue()

    def test_round_trip_through_inspector(self, tmp_path):
        obs = sample_obs()
        path = tmp_path / "run.jsonl"
        write_jsonl(obs, str(path))
        loaded = load_recording(str(path))
        assert loaded.meta == {"workload": "unit", "seed": 1}
        assert loaded.registry.get("drops_total", stream=0).value == 5
        assert loaded.registry.get("throttle", node="join").value == 0.5
        hist = loaded.registry.get("latency")
        assert hist.count == 3 and hist.max == 3.0
        assert hist.counts == obs.registry.get("latency").counts
        series = loaded.registry.get("depth", stream=0)
        assert series.values == [1.0, 4.0]
        assert len(loaded.spans.named("service")) == 1
        assert loaded.now() == 0.0
        assert list(jsonl_lines(loaded)) == list(jsonl_lines(obs))

    def test_unknown_record_type_rejected(self):
        with pytest.raises(ValueError, match="unknown record type"):
            parse_lines(['{"type":"mystery"}'])


class TestReport:
    def test_dropped_sums_over_reasons(self):
        # stream_dropped_total is labelled {reason, stream}: the
        # per-stream line must add admission and buffer drops
        obs = Obs()
        obs.counter("stream_arrived_total", stream=0).inc(10)
        obs.counter("stream_admitted_total", stream=0).inc(7)
        obs.counter("stream_dropped_total", reason="admission",
                    stream=0).inc(3)
        obs.counter("stream_dropped_total", reason="buffer",
                    stream=0).inc(2)
        for view in (parse_lines(jsonl_lines(obs)), obs):
            assert ("stream 0: arrived=10 admitted=7 dropped=5"
                    in render_report(view))


class TestJsonable:
    def test_numpy_values_converted(self):
        out = jsonable({
            "scalar": np.float64(0.5),
            "int": np.int64(3),
            "array": np.array([1.0, 2.0]),
            "nested": [np.int32(1), {"x": np.bool_(True)}],
        })
        assert out == {"scalar": 0.5, "int": 3, "array": [1.0, 2.0],
                       "nested": [1, {"x": True}]}
        json.dumps(out)  # must be serializable as-is

    def test_unknown_objects_stringified(self):
        class Odd:
            def __repr__(self):
                return "odd"

        assert json.dumps(jsonable({"o": Odd()}))
