"""Linter driver: walk files, run the scoped rules, honor suppressions.

Suppression syntax (trailing comment on the offending line)::

    started = timer()          # lint: disable=R001
    x = rng_draw()             # lint: disable=R001,R002
    anything_at_all()          # lint: disable

A suppression silences only the named rules (or all of them in the bare
form) *on that physical line*.  The syntax exists for fixture trees and
downstream users; ``src/`` itself carries none, and
``tests/lint/test_repo_clean.py`` fails on the first one added.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .diagnostics import Diagnostic
from .rules import RuleContext, collect_imports, rules_for

_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*disable(?:=(?P<codes>[A-Z0-9,\s]+))?"
)


@dataclass(slots=True)
class FileReport:
    """Outcome of linting one file."""

    path: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    suppressed: int = 0
    error: str | None = None  # syntax / IO failure, if any
    #: a rule implementation crashed — an analyzer bug, not a finding
    #: (drives exit code 2, never 1)
    internal_error: str | None = None


def parse_suppressions(source: str) -> dict[int, set[str] | None]:
    """Map line number -> suppressed rule codes (None = all rules)."""
    out: dict[int, set[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            out[lineno] = None
        else:
            out[lineno] = {
                c.strip() for c in codes.split(",") if c.strip()
            }
    return out


def module_path_of(path: str | Path) -> str:
    """Path of a module relative to the ``repro`` package root (posix).

    ``src/repro/core/greedy.py`` -> ``core/greedy.py``.  Files outside a
    ``repro`` directory keep their full posix path, so rule scoping still
    works for test fixtures that mimic the layout.
    """
    parts = Path(path).as_posix().split("/")
    for idx in range(len(parts) - 1, -1, -1):
        if parts[idx] == "repro":
            return "/".join(parts[idx + 1 :])
    return "/".join(parts)


def check_source(
    source: str,
    path: str = "<string>",
    select: Sequence[str] | None = None,
) -> FileReport:
    """Lint one source string as if it lived at ``path``."""
    report = FileReport(path=str(path))
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        report.error = f"syntax error: {exc.msg} (line {exc.lineno})"
        return report
    module_path = module_path_of(path)
    rules = rules_for(module_path, select)
    if not rules:
        return report
    ctx = RuleContext(path=str(path), module_path=module_path)
    collect_imports(tree, ctx)
    suppressions = parse_suppressions(source)
    for rule in rules:
        try:
            findings = rule.check(tree, ctx)
        except Exception as exc:  # noqa: BLE001 — any rule crash is ours
            report.internal_error = (
                f"rule {rule.code} crashed: {type(exc).__name__}: {exc}"
            )
            continue
        for diag in findings:
            allowed = suppressions.get(diag.line, ...)
            if allowed is None or (
                allowed is not ... and diag.code in allowed
            ):
                report.suppressed += 1
                continue
            report.diagnostics.append(diag)
    report.diagnostics.sort(key=lambda d: (d.line, d.col, d.code))
    return report


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    seen: set[Path] = set()
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            seen.update(p.rglob("*.py"))
        elif p.suffix == ".py":
            seen.add(p)
    return sorted(seen)


def check_paths(
    paths: Iterable[str | Path],
    select: Sequence[str] | None = None,
) -> list[FileReport]:
    """Lint every python file under ``paths``; one report per file."""
    reports = []
    for file in iter_python_files(paths):
        try:
            source = file.read_text(encoding="utf-8")
        except OSError as exc:
            report = FileReport(path=str(file))
            report.error = f"cannot read: {exc}"
            reports.append(report)
            continue
        reports.append(check_source(source, str(file), select))
    return reports
