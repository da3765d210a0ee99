"""Tests for ``python -m repro.testkit``: verdict shape and determinism."""

import json

import pytest

from repro.testkit.cli import build_parser, main, run_verdict, serialize


def parse(argv):
    return build_parser().parse_args(argv)


class TestArguments:
    def test_defaults(self):
        args = parse([])
        assert args.seeds == "1,2,3"
        assert not args.quick and not args.chaos
        assert args.properties == 0

    def test_bad_seeds_exit(self):
        with pytest.raises(SystemExit):
            run_verdict(parse(["--seeds", "one,two"]))
        with pytest.raises(SystemExit):
            run_verdict(parse(["--seeds", ","]))


class TestVerdict:
    def test_quick_verdict_passes(self):
        verdict = run_verdict(parse(["--quick", "--no-shedding"]))
        assert verdict["ok"]
        assert verdict["seeds"] == [1]
        assert len(verdict["differential"]["workloads"]) == 5
        assert "chaos" not in verdict and "properties" not in verdict

    def test_verdict_serializes_canonically(self):
        verdict = run_verdict(parse(["--quick", "--no-shedding"]))
        text = serialize(verdict)
        parsed = json.loads(text)
        assert parsed["ok"] is True
        # canonical: re-serializing the parsed document is a fixpoint
        assert serialize(parsed) == text

    def test_two_runs_are_bit_identical(self):
        """The determinism contract CI enforces: same seeds -> the same
        bytes, across two full passes from workload generation to JSON."""
        args = parse(["--quick", "--no-shedding"])
        assert serialize(run_verdict(args)) == serialize(
            run_verdict(args)
        )


class TestMain:
    def test_main_prints_json_and_exits_zero(self, capsys):
        code = main(["--quick", "--no-shedding"])
        out = capsys.readouterr().out
        verdict = json.loads(out)
        assert code == 0
        assert verdict["ok"] is True

    def test_check_determinism_flag(self, capsys):
        code = main(["--quick", "--no-shedding",
                     "--check-determinism"])
        verdict = json.loads(capsys.readouterr().out)
        assert code == 0
        assert verdict["deterministic"] is True

    def test_verbose_progress_goes_to_stderr(self, capsys):
        main(["--quick", "--no-shedding", "--verbose"])
        captured = capsys.readouterr()
        assert "workload" in captured.err
        json.loads(captured.out)  # stdout still pure JSON
