"""Command-line front-end: ``python -m repro.lint [paths...]``.

Exit codes: ``0`` clean, ``1`` findings (or unparsable files), ``2``
usage errors *and internal analyzer errors* — a crash inside a rule is
the analyzer's bug, and CI must not confuse it with a clean or dirty
tree.  ``--format json`` emits a machine-readable document::

    {
      "version": 1,
      "files_checked": 42,
      "suppressed": 3,
      "diagnostics": [
        {"code": "R001", "severity": "error", "message": "...",
         "path": "src/repro/core/x.py", "line": 10, "col": 5},
        ...
      ],
      "counts": {"R001": 1},
      "file_errors": [{"path": "...", "error": "rule R004 crashed: ..."}]
    }

``file_errors`` lists unparsable files and crashed rules (SARIF: an
``E000`` result), so a crash never reads as a clean tree.  The JSON
schema is golden-tested: field names, ordering and indentation are
frozen at version 1.  ``--format sarif`` emits SARIF 2.1.0 for GitHub
code-scanning annotations.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Sequence

from .checker import FileReport, check_paths
from .rules import REGISTRY

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Simulator-invariant linter for the GrubJoin reproduction "
            "(rules R001-R007; see "
            "docs/STATIC_ANALYSIS.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    return parser


def _render_human(reports: list[FileReport]) -> str:
    lines = []
    findings = 0
    suppressed = 0
    for report in reports:
        if report.error:
            lines.append(f"{report.path}: {report.error}")
            findings += 1
        if report.internal_error:
            lines.append(
                f"{report.path}: INTERNAL: {report.internal_error}"
            )
        for diag in report.diagnostics:
            lines.append(diag.render())
            findings += 1
        suppressed += report.suppressed
    tail = f"{findings} finding(s) in {len(reports)} file(s)"
    if suppressed:
        tail += f", {suppressed} suppressed"
    lines.append(tail)
    return "\n".join(lines)


def _file_errors(report: FileReport) -> list[str]:
    """A file's unparsable-source error and its rule crash, if any: the
    machine formats report both as ``file_errors`` / ``E000``."""
    return [e for e in (report.error, report.internal_error) if e]


def _render_json(reports: list[FileReport]) -> str:
    # NOTE: version-1 schema is frozen and golden-tested — field names,
    # key order and indentation must not change
    diagnostics = []
    errors = []
    suppressed = 0
    for report in reports:
        errors.extend({"path": report.path, "error": error}
                      for error in _file_errors(report))
        diagnostics.extend(d.to_dict() for d in report.diagnostics)
        suppressed += report.suppressed
    counts = Counter(d["code"] for d in diagnostics)
    return json.dumps(
        {
            "version": 1,
            "files_checked": len(reports),
            "suppressed": suppressed,
            "diagnostics": diagnostics,
            "counts": dict(sorted(counts.items())),
            "file_errors": errors,
        },
        indent=2,
    )


def _render_sarif(reports: list[FileReport]) -> str:
    """SARIF 2.1.0 for GitHub code-scanning annotations."""
    rules = [
        {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
        }
        for rule in REGISTRY
    ]
    results = []
    for report in reports:
        for diag in report.diagnostics:
            results.append(
                {
                    "ruleId": diag.code,
                    "level": ("error" if diag.severity.name == "ERROR"
                              else "warning"),
                    "message": {"text": diag.message},
                    "locations": [
                        {
                            "physicalLocation": {
                                "artifactLocation": {
                                    "uri": Path(diag.path).as_posix(),
                                },
                                "region": {
                                    "startLine": max(diag.line, 1),
                                    "startColumn": max(diag.col, 1),
                                },
                            }
                        }
                    ],
                }
            )
        for error in _file_errors(report):
            results.append(
                {
                    "ruleId": "E000",
                    "level": "error",
                    "message": {"text": error},
                    "locations": [
                        {
                            "physicalLocation": {
                                "artifactLocation": {
                                    "uri": Path(report.path).as_posix(),
                                },
                                "region": {"startLine": 1,
                                           "startColumn": 1},
                            }
                        }
                    ],
                }
            )
    return json.dumps(
        {
            "$schema": _SARIF_SCHEMA,
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "repro.lint",
                            "informationUri": (
                                "https://example.invalid/repro/"
                                "docs/STATIC_ANALYSIS.md"
                            ),
                            "rules": rules,
                        }
                    },
                    "results": results,
                }
            ],
        },
        indent=2,
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in REGISTRY:
            scope = ", ".join(rule.scope) if rule.scope else "everywhere"
            print(f"{rule.code}  {rule.name:<22} [{scope}]")
            print(f"      {rule.summary}")
        return 0

    select = None
    if args.select:
        select = [c.strip().upper() for c in args.select.split(",")]
        known = {rule.code for rule in REGISTRY}
        unknown = [c for c in select if c not in known]
        if unknown:
            print(
                f"unknown rule code(s): {', '.join(unknown)}",
                file=sys.stderr,
            )
            return 2

    reports = check_paths(args.paths, select)
    if not reports:
        print(f"no python files under: {' '.join(args.paths)}",
              file=sys.stderr)
        return 2

    if args.format == "json":
        output = _render_json(reports)
    elif args.format == "sarif":
        output = _render_sarif(reports)
    else:
        output = _render_human(reports)
    print(output)
    if any(r.internal_error for r in reports):
        for r in reports:
            if r.internal_error:
                print(f"INTERNAL: {r.path}: {r.internal_error}",
                      file=sys.stderr)
        return 2
    dirty = any(r.diagnostics or r.error for r in reports)
    return 1 if dirty else 0
