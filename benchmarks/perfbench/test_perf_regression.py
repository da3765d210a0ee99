"""perfbench harness smoke: gate logic and CLI.

The heavy wall-clock measurements live in the sibling ``bench.py``
(CI runs it with ``--quick --check`` against the committed
``BENCH_PERF.json``).  This module keeps the *harness itself* honest with
fast deterministic checks: the regression gate fires in the right
direction and the CLI's exit code follows it.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "BENCH_PERF.json"

# the sibling harness, loaded under its own module name: a plain
# ``import bench`` would collide with benchmarks/e2e/bench.py when both
# suites are collected in one pytest session
_spec = importlib.util.spec_from_file_location(
    "perfbench_bench", HERE / "bench.py"
)
bench_mod = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_mod)

GATE_DIRECTIONS = bench_mod.GATE_DIRECTIONS
check_against_baseline = bench_mod.check_against_baseline
main = bench_mod.main


def _doc(metrics: dict) -> dict:
    return {"gate_metrics": metrics}


class TestGateLogic:
    GOOD = {
        "macro3_skew_speedup_x": 4.0,
        "fig10_solver_time_ratio": 0.5,
    }

    def test_identical_run_passes(self):
        assert check_against_baseline(_doc(self.GOOD), _doc(self.GOOD)) == []

    def test_improvement_never_fails(self):
        better = {
            "macro3_skew_speedup_x": 9.0,
            "fig10_solver_time_ratio": 0.1,
        }
        assert check_against_baseline(_doc(better), _doc(self.GOOD)) == []

    def test_skew_speedup_regression_fails(self):
        worse = dict(self.GOOD, macro3_skew_speedup_x=4.0 * 0.8)
        failures = check_against_baseline(_doc(worse), _doc(self.GOOD))
        assert any("macro3_skew_speedup_x" in f for f in failures)

    def test_skew_floor_fires_even_with_matching_baseline(self):
        # both runs agree at 2.8x — within tolerance of each other but
        # below the promised 3x index-speedup floor
        low = dict(self.GOOD, macro3_skew_speedup_x=2.8)
        failures = check_against_baseline(_doc(low), _doc(low))
        assert any(
            "macro3_skew_speedup_x" in f and "floor" in f for f in failures
        )

    def test_solver_ratio_regression_fails(self):
        worse = dict(self.GOOD, fig10_solver_time_ratio=0.5 * 1.3)
        failures = check_against_baseline(_doc(worse), _doc(self.GOOD))
        assert any("fig10_solver_time_ratio" in f for f in failures)

    def test_within_tolerance_passes(self):
        wobble = dict(self.GOOD, macro3_skew_speedup_x=4.0 * 0.9)
        assert check_against_baseline(_doc(wobble), _doc(self.GOOD)) == []

    def test_absolute_floor_beats_baseline_tolerance(self):
        # baseline itself below the promised floor: still a failure
        high = dict(self.GOOD, fig10_solver_time_ratio=0.8)
        failures = check_against_baseline(_doc(high), _doc(high))
        assert any("cap" in f for f in failures)

    def test_missing_metric_reported(self):
        failures = check_against_baseline(_doc({}), _doc(self.GOOD))
        assert len(failures) >= len(GATE_DIRECTIONS)


class TestCommittedBaseline:
    def test_baseline_exists_and_meets_promises(self):
        """The committed BENCH_PERF.json upholds the reproduction's
        acceptance criteria: >= 3x hash-index speedup on the skewed
        macro, >= 30% solver time drop."""
        doc = json.loads(BASELINE.read_text())
        gates = doc["gate_metrics"]
        assert gates["macro3_skew_speedup_x"] >= 3.0
        assert gates["fig10_solver_time_ratio"] <= 0.7
        assert doc["benchmarks"]["macro3_skew"]["identical"] is True
        assert doc["benchmarks"]["procs_scaling"]["identical"] is True

    def test_baseline_passes_its_own_gate(self):
        doc = json.loads(BASELINE.read_text())
        assert check_against_baseline(doc, doc) == []


class TestCli:
    def test_check_exit_code_on_regression(self, tmp_path):
        """`--check` must exit non-zero when the baseline is better than
        the run can possibly be; exercised via the real CLI entry."""
        impossible = json.loads(BASELINE.read_text())
        impossible["gate_metrics"]["macro3_skew_speedup_x"] = 1e9
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(impossible))
        out = tmp_path / "run.json"
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "bench.py"), "--quick",
                "--repeats", "1", "-o", str(out),
                "--check", str(baseline),
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "REGRESSION" in proc.stdout
        assert json.loads(out.read_text())["meta"]["quick"] is True

    def test_main_writes_report(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            bench_mod, "run_bench",
            lambda quick=False, repeats=None: {
                "meta": {"quick": quick, "repeats": 1},
                "benchmarks": {},
                "gate_metrics": {"macro3_skew_speedup_x": 3.0},
            },
        )
        out = tmp_path / "r.json"
        assert main(["-o", str(out)]) == 0
        assert json.loads(out.read_text())["gate_metrics"] == {
            "macro3_skew_speedup_x": 3.0
        }
