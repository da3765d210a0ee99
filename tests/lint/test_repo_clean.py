"""The repo must satisfy its own invariants: ``repro.lint`` on ``src``
finds nothing and suppresses nothing, which is exactly what CI enforces."""

from pathlib import Path

from repro.lint import check_paths

SRC = Path(__file__).resolve().parents[2] / "src"


def test_source_tree_is_lint_clean():
    reports = check_paths([SRC])
    assert reports, f"no python files found under {SRC}"
    problems = []
    for report in reports:
        if report.error:
            problems.append(f"{report.path}: {report.error}")
        problems.extend(d.render() for d in report.diagnostics)
    assert not problems, "\n".join(problems)
    # zero suppressions is the policy: fix the finding, do not silence it
    silenced = [r.path for r in reports if r.suppressed]
    assert sum(r.suppressed for r in reports) == 0, (
        f"`# lint: disable` comments under src/: {silenced}"
    )
