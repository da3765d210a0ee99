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

Two text files pin what the replay prints from them:
``fig10_report.txt`` (``report fig10_slice.jsonl``) and
``procs_k2_fleet.txt`` (``report procs_k2_slice.jsonl --fleet``).

and review the diff before committing it.
"""

import io
import pathlib

import pytest

from repro.obs import (
    jsonl_lines,
    load_recording,
    parse_lines,
    render_fleet,
    render_report,
    worker_scoped,
)
from repro.obs.cli import main, record_procs_slice, record_slice

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "fig10_slice.jsonl"
IDLE_GOLDEN = GOLDEN_DIR / "fig10_idle_slice.jsonl"
PROCS_GOLDEN = GOLDEN_DIR / "procs_k2_slice.jsonl"


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
        obs = load_recording(str(GOLDEN))
        assert obs.meta["workload"] == "fig10-slice"
        assert len(obs.decisions) == 8
        zs = [a.z for a in obs.decisions]
        assert min(zs) < 0.8
        assert any(
            not w.kept
            for a in obs.decisions
            for d in a.directions
            for w in d.windows
        )
        assert len(obs.spans.named("service")) > 500
        assert obs.spans.named("solver.greedy")

    def test_matches_committed_idle_golden(self):
        obs = record_slice(capacity=1e12)
        expected = IDLE_GOLDEN.read_text(encoding="utf-8").splitlines()
        assert list(jsonl_lines(obs)) == expected

    def test_idle_golden_run_never_queues(self):
        # the idle slice must stay idle: every service takes under a
        # nanosecond of virtual time, so the CPU is free long before the
        # next arrival (50 ms apart at the slice's rates)
        obs = load_recording(str(IDLE_GOLDEN))
        assert obs.meta["capacity"] == 1e12
        services = obs.spans.named("service")
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
        assert "obs report" in out.getvalue()


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
        obs = load_recording(str(PROCS_GOLDEN))
        assert obs.meta["runtime"] == "procs"
        assert obs.meta["num_shards"] == 2
        assert obs.meta["workload"].startswith("procs-k2-")
        # both workers shed under the pinned throttle and shipped their
        # decisions and solver spans back
        assert {a.worker for a in obs.decisions} == {0, 1}
        span_workers = {
            s.labels.get("worker") for s in obs.spans.named("solver.greedy")
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


class TestReplay:
    @pytest.mark.parametrize("golden", [GOLDEN, IDLE_GOLDEN, PROCS_GOLDEN],
                             ids=lambda p: p.stem)
    def test_export_of_loaded_golden_is_the_file(self, golden):
        expected = golden.read_text(encoding="utf-8").splitlines()
        assert list(jsonl_lines(load_recording(str(golden)))) == expected

    @pytest.mark.parametrize("capacity", [8e3, 1e12])
    def test_live_and_replayed_reports_agree(self, capacity):
        obs = record_slice(capacity=capacity)
        replayed = parse_lines(jsonl_lines(obs))
        assert render_report(replayed) == render_report(obs)

    def test_report_pinned_with_throttle_trajectory(self):
        text = render_report(load_recording(str(GOLDEN)))
        assert "-- throttle trajectory --" in text
        assert text + "\n" == (
            GOLDEN_DIR / "fig10_report.txt"
        ).read_text(encoding="utf-8")

    def test_fleet_view_pinned(self):
        assert render_fleet(load_recording(str(PROCS_GOLDEN))) + "\n" == (
            GOLDEN_DIR / "procs_k2_fleet.txt"
        ).read_text(encoding="utf-8")
