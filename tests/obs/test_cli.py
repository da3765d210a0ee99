"""CLI record/report behaviour and the committed golden slices.

Three golden files pin deterministic JSONL exports:

* ``fig10_slice.jsonl`` — the full export of the default
  ``python -m repro.obs record`` run (seed 7, 16 s, 8e3 capacity).
* ``fig10_idle_slice.jsonl`` — the same slice on a CPU so fast it is
  idle (``--capacity 1e12``): nothing queues, so almost every service
  completion is the very next event, which the saturated slice barely
  exercises.
* ``procs_k2_slice.jsonl`` — the *worker-scoped* export of
  ``python -m repro.obs record --procs 2``: GrubJoin shards on two
  real forked workers, telemetry shipped back over the ack pipes and
  merged.  Drift here means the delta protocol, the aggregator, or a
  worker-side operator changed behaviour.

The workloads, the runtimes, and the exporters are all deterministic,
so any byte of drift is a behaviour change — regenerate with::

    PYTHONPATH=src python -m repro.obs record -o tests/obs/golden/fig10_slice.jsonl
    PYTHONPATH=src python -m repro.obs record --capacity 1e12 -o tests/obs/golden/fig10_idle_slice.jsonl
    PYTHONPATH=src python -m repro.obs record --procs 2 -o tests/obs/golden/procs_k2_slice.jsonl

and review the diff before committing it.
"""

import io
import pathlib

import pytest

from repro.obs import jsonl_lines, load_recording, worker_scoped
from repro.obs.cli import main, record_procs_slice, record_slice

GOLDEN = pathlib.Path(__file__).parent / "golden" / "fig10_slice.jsonl"
IDLE_GOLDEN = (
    pathlib.Path(__file__).parent / "golden" / "fig10_idle_slice.jsonl"
)
PROCS_GOLDEN = (
    pathlib.Path(__file__).parent / "golden" / "procs_k2_slice.jsonl"
)


@pytest.fixture(scope="module")
def recorded():
    return record_slice()


class TestGolden:
    def test_matches_committed_golden(self, recorded):
        expected = GOLDEN.read_text(encoding="utf-8").splitlines()
        actual = list(jsonl_lines(recorded))
        assert actual == expected

    def test_golden_run_actually_sheds(self):
        # guard against the golden workload degenerating into a no-op:
        # the recorded slice must show real shedding decisions
        rec = load_recording(str(GOLDEN))
        assert rec.meta["workload"] == "fig10-slice"
        assert len(rec.adaptations) == 8
        zs = [a.z for a in rec.adaptations]
        assert min(zs) < 0.8
        assert any(
            not w.kept
            for a in rec.adaptations
            for d in a.directions
            for w in d.windows
        )
        assert len(rec.spans_named("service")) > 500
        assert rec.spans_named("solver.greedy")

    def test_matches_committed_idle_golden(self):
        obs = record_slice(capacity=1e12)
        expected = IDLE_GOLDEN.read_text(encoding="utf-8").splitlines()
        assert list(jsonl_lines(obs)) == expected

    def test_idle_golden_run_never_queues(self):
        # the idle slice must stay idle: every service takes under a
        # nanosecond of virtual time, so the CPU is free long before the
        # next arrival (50 ms apart at the slice's rates)
        rec = load_recording(str(IDLE_GOLDEN))
        assert rec.meta["capacity"] == 1e12
        services = rec.spans_named("service")
        assert len(services) > 500
        assert max(s.end - s.start for s in services) < 1e-9


class TestCli:
    def test_record_then_report_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        out = io.StringIO()
        assert main(["record", "-o", str(path), "--duration", "6"],
                    out=out) == 0
        assert "wrote" in out.getvalue()
        report = io.StringIO()
        assert main(["report", str(path), "--top", "3"], out=report) == 0
        text = report.getvalue()
        assert "fig10-slice" in text
        assert "harvest" in text

    def test_record_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert main(["record", "-o", str(path), "--duration", "6"],
                        out=io.StringIO()) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dashboard_flag(self, tmp_path):
        out = io.StringIO()
        assert main(["record", "-o", str(tmp_path / "r.jsonl"),
                     "--duration", "6", "--dashboard"], out=out) == 0
        assert "obs dashboard" in out.getvalue()


class TestProcsGolden:
    def test_matches_committed_procs_golden(self):
        # a real two-worker procs run, aggregated over the ack pipes,
        # must reproduce the committed worker-scoped export byte for
        # byte — this is the cross-process determinism contract the CI
        # aggregated-golden step also enforces
        obs = record_procs_slice()
        expected = PROCS_GOLDEN.read_text(encoding="utf-8").splitlines()
        actual = list(jsonl_lines(obs, select=worker_scoped))
        assert actual == expected

    def test_procs_golden_has_fleet_telemetry(self):
        rec = load_recording(str(PROCS_GOLDEN))
        assert rec.meta["runtime"] == "procs"
        assert rec.meta["num_shards"] == 2
        assert rec.meta["workload"].startswith("procs-k2-")
        # both workers shed under the pinned throttle and shipped their
        # decisions and solver spans back
        assert {a.worker for a in rec.adaptations} == {0, 1}
        span_workers = {
            s.labels.get("worker") for s in rec.spans_named("solver.greedy")
        }
        assert span_workers == {"0", "1"}


class TestProcsCli:
    def test_record_procs_writes_worker_scoped_export(self, tmp_path):
        path = tmp_path / "procs.jsonl"
        out = io.StringIO()
        assert main(["record", "--procs", "2", "-o", str(path)],
                    out=out) == 0
        assert "wrote" in out.getvalue()
        assert path.read_text(
            encoding="utf-8"
        ) == PROCS_GOLDEN.read_text(encoding="utf-8")

    def test_report_fleet_renders_dashboard(self, tmp_path):
        out = io.StringIO()
        assert main(["report", str(PROCS_GOLDEN), "--fleet"],
                    out=out) == 0
        text = out.getvalue()
        assert "fleet dashboard" in text
        assert "worker 0" in text and "worker 1" in text
