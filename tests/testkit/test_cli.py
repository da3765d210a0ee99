"""Tests for ``python -m repro.testkit``: verdict shape and determinism."""

import contextlib
import copy
import io
import json

import pytest

from repro.testkit import cli
from repro.testkit.cli import build_parser, main, run_verdict, serialize


def parse(argv):
    return build_parser().parse_args(argv)


class TestArguments:
    def test_defaults(self):
        args = parse([])
        assert args.seeds == "1,2,3"
        assert not args.quick and not args.chaos

    def test_bad_seeds_exit(self):
        with pytest.raises(SystemExit):
            run_verdict(parse(["--seeds", "one,two"]))
        with pytest.raises(SystemExit):
            run_verdict(parse(["--seeds", ","]))


QUICK = ["--quick", "--no-shedding"]


@pytest.fixture(scope="module")
def quick_verdict():
    """One pass of the quick matrix, shared by the shape assertions
    (read-only: tests must not mutate it)."""
    return run_verdict(parse(QUICK))


@pytest.fixture(scope="module")
def main_run():
    """``(exit code, stdout, stderr)`` of one ``main`` pass, progress on."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*QUICK, "--verbose"])
    return code, out.getvalue(), err.getvalue()


class TestVerdict:
    def test_quick_verdict_passes(self, quick_verdict):
        verdict = quick_verdict
        assert verdict["ok"]
        assert verdict["seeds"] == [1]
        assert len(verdict["differential"]["workloads"]) == 5
        assert "chaos" not in verdict

    def test_verdict_serializes_canonically(self, quick_verdict):
        text = serialize(quick_verdict)
        parsed = json.loads(text)
        assert parsed["ok"] is True
        # canonical: re-serializing the parsed document is a fixpoint
        assert serialize(parsed) == text

    def test_two_runs_are_bit_identical(self, quick_verdict, main_run):
        """The determinism contract CI enforces: same seeds -> the same
        bytes, across two full passes from workload generation to JSON
        (``main`` prints ``serialize(verdict)`` at the default indent)."""
        _code, out, _err = main_run
        assert out == serialize(quick_verdict) + "\n"


class TestMain:
    def test_main_prints_json_and_exits_zero(self, main_run):
        code, out, _err = main_run
        verdict = json.loads(out)
        assert code == 0
        assert verdict["ok"] is True

    def test_check_determinism_flag(self, quick_verdict, monkeypatch,
                                    capsys):
        # main's replay-and-compare wiring; the real double run is
        # TestVerdict.test_two_runs_are_bit_identical
        monkeypatch.setattr(
            cli, "run_verdict", lambda args: copy.deepcopy(quick_verdict)
        )
        code = main([*QUICK, "--check-determinism"])
        verdict = json.loads(capsys.readouterr().out)
        assert code == 0
        assert verdict["deterministic"] is True

    def test_verbose_progress_goes_to_stderr(self, main_run):
        _code, out, err = main_run
        assert "workload" in err
        json.loads(out)  # stdout still pure JSON
