"""CLI behavior: exit codes, human output, the JSON schema, goldens.

Exit-code contract (CI depends on it): ``0`` clean, ``1`` findings,
``2`` usage errors *and* rule crashes — a crashing rule must never
masquerade as a clean tree.  The golden tests byte-compare
``--format json``/``sarif`` over the committed fixture tree — the
version-1 schema is frozen.
"""

import json
from pathlib import Path

import pytest

from repro.lint.cli import main
from repro.lint.rules import REGISTRY, RULES_BY_CODE, Rule

HERE = Path(__file__).resolve().parent

CLEAN = "def f(x=None):\n    return x\n"
DIRTY = (
    "import time\n"
    "\n"
    "def f():\n"
    "    return time.perf_counter()\n"
)


@pytest.fixture
def tree(tmp_path):
    """A miniature repro-shaped tree with one clean and one dirty file."""
    core = tmp_path / "repro" / "core"
    core.mkdir(parents=True)
    (core / "clean.py").write_text(CLEAN)
    (core / "dirty.py").write_text(DIRTY)
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "ok.py").write_text(CLEAN)
        assert main([str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_dirty_tree_exits_one(self, tree, capsys):
        assert main([str(tree)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out
        assert "dirty.py" in out

    def test_unknown_rule_code_exits_two(self, tree, capsys):
        assert main([str(tree), "--select", "R999"]) == 2

    def test_missing_path_exits_two(self, tmp_path):
        assert main([str(tmp_path / "nowhere")]) == 2

    def test_unparsable_file_exits_one(self, tmp_path, capsys):
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "broken.py").write_text("def broken(:\n")
        assert main([str(tmp_path)]) == 1
        assert "syntax error" in capsys.readouterr().out


class TestJsonOutput:
    def test_schema(self, tree, capsys):
        exit_code = main([str(tree), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert payload["version"] == 1
        assert payload["files_checked"] == 2
        assert payload["counts"] == {"R001": 1}
        assert payload["file_errors"] == []
        (diag,) = payload["diagnostics"]
        assert diag["code"] == "R001"
        assert diag["severity"] == "error"
        assert diag["path"].endswith("dirty.py")
        assert diag["line"] == 4
        assert diag["col"] >= 1
        assert "perf_counter" in diag["message"]

    def test_suppressions_counted(self, tmp_path, capsys):
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "hushed.py").write_text(
            "import time\n"
            "x = time.time()  # lint: disable=R001\n"
        )
        assert main([str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suppressed"] == 1
        assert payload["diagnostics"] == []

    def test_json_is_selectable(self, tree, capsys):
        assert main([str(tree), "--format", "json",
                     "--select", "R003"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"] == []


class TestListRules:
    def test_lists_all_six_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("R001", "R002", "R003", "R004", "R005", "R006"):
            assert code in out


class TestRuleCrashIsExitTwo:
    @pytest.fixture
    def crash_tree(self, monkeypatch, tmp_path):
        """A clean tree linted with one extra rule that always raises."""
        import repro.lint.rules as rules_mod

        crasher = Rule(
            code="R998",
            name="synthetic-crasher",
            summary="always raises (test fixture)",
            scope=(),
            check=lambda tree, ctx: 1 // 0,
        )
        patched = REGISTRY + (crasher,)
        monkeypatch.setattr(rules_mod, "REGISTRY", patched)
        monkeypatch.setattr(
            rules_mod, "RULES_BY_CODE",
            {**RULES_BY_CODE, "R998": crasher},
        )
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "ok.py").write_text("def f(x=None):\n    return x\n")
        return tmp_path

    def test_crashing_rule_exits_two_not_one(self, crash_tree, capsys):
        assert main([str(crash_tree)]) == 2
        captured = capsys.readouterr()
        assert "R998 crashed" in captured.err
        # a crash must not be double-reported as a finding
        assert "0 finding(s)" in captured.out

    def test_crash_is_reported_by_json_and_sarif(self, crash_tree, capsys):
        assert main([str(crash_tree), "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"] == []
        (error,) = payload["file_errors"]
        assert error["path"].endswith("ok.py")
        assert "R998 crashed" in error["error"]

        assert main([str(crash_tree), "--format", "sarif"]) == 2
        (run,) = json.loads(capsys.readouterr().out)["runs"]
        (result,) = run["results"]
        assert result["ruleId"] == "E000"
        assert "R998 crashed" in result["message"]["text"]


class TestGoldenOutputs:
    """Byte-stable machine formats over the committed fixture tree."""

    @pytest.fixture(autouse=True)
    def _in_test_dir(self, monkeypatch):
        # fixture paths in the output are relative to tests/lint
        monkeypatch.chdir(HERE)

    def run(self, fmt: str, capsys) -> str:
        assert main(["fixtures", "--format", fmt]) == 1
        return capsys.readouterr().out

    def test_json_matches_golden(self, capsys):
        expected = (HERE / "golden" / "dirty.json").read_text()
        assert self.run("json", capsys) == expected

    def test_sarif_matches_golden(self, capsys):
        expected = (HERE / "golden" / "dirty.sarif").read_text()
        assert self.run("sarif", capsys) == expected

    def test_json_is_byte_deterministic(self, capsys):
        assert self.run("json", capsys) == self.run("json", capsys)
