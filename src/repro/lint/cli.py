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
      "counts": {"R001": 1}
    }

The JSON schema is golden-tested: field names, ordering and indentation
are frozen at version 1.  ``--format sarif`` emits SARIF 2.1.0 for
GitHub code-scanning annotations.

``--effects`` switches to the effect-certification pass
(:mod:`repro.lint.effects`): certify every operator class, and
optionally write (``--manifest-out``) or drift-check
(``--check-manifest``) the machine-readable manifest CI commits under
``benchmarks/effects/``.
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
            "(rules R001-R007, effect certification; see "
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
    parser.add_argument(
        "--effects",
        action="store_true",
        help=(
            "run the effect-certification pass instead of the file "
            "rules: classify every operator"
        ),
    )
    parser.add_argument(
        "--manifest-out",
        metavar="PATH",
        help="(with --effects) write the JSON effect manifest here",
    )
    parser.add_argument(
        "--check-manifest",
        metavar="PATH",
        help=(
            "(with --effects) fail (exit 1) unless the committed "
            "manifest at PATH byte-matches the freshly computed one"
        ),
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


def _render_json(reports: list[FileReport]) -> str:
    # NOTE: version-1 schema is frozen and golden-tested — field names,
    # key order and indentation must not change
    diagnostics = []
    errors = []
    suppressed = 0
    for report in reports:
        if report.error:
            errors.append({"path": report.path, "error": report.error})
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
        if report.error:
            results.append(
                {
                    "ruleId": "E000",
                    "level": "error",
                    "message": {"text": report.error},
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


def _effects_src_root(paths: Sequence[str]) -> Path | None:
    """The src root to certify: the first path containing ``repro/``."""
    for entry in paths:
        p = Path(entry)
        if (p / "repro").is_dir():
            return p
    return None


def _run_effects(args: argparse.Namespace) -> int:
    """The ``--effects`` mode: certify, write/check the manifest."""
    from .effects import analyze_package

    src_root = _effects_src_root(args.paths)
    try:
        analysis = analyze_package(src_root, refresh=True)
    except Exception as exc:  # noqa: BLE001 — analyzer crash is exit 2
        print(f"INTERNAL: effect analysis crashed: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    problems: list[str] = []

    # every certificate must resolve to a real classification
    for name, cert in sorted(analysis.certificates.items()):
        if cert.classification == "unknown":
            problems.append(
                f"P120 {name} could not be classified: "
                + "; ".join(cert.why)
            )
    for error in analysis.errors:
        problems.append(f"P120 analysis error: {error}")

    manifest = analysis.manifest_json()
    if args.manifest_out:
        Path(args.manifest_out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.manifest_out).write_text(manifest, encoding="utf-8")
    if args.check_manifest:
        committed_path = Path(args.check_manifest)
        committed = (
            committed_path.read_text(encoding="utf-8")
            if committed_path.exists() else None
        )
        if committed != manifest:
            problems.append(
                f"manifest drift: {committed_path} does not match the "
                "freshly computed manifest; regenerate with "
                "`python -m repro.lint --effects --manifest-out "
                f"{committed_path}` and review the classification diff"
            )

    if args.format == "json":
        print(manifest, end="")
        for problem in problems:
            print(problem, file=sys.stderr)
    else:
        print(analysis.render_human())
        for problem in problems:
            print(problem)
        print(f"{len(problems)} problem(s), "
              f"{len(analysis.certificates)} class(es) certified")
    return 1 if problems else 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in REGISTRY:
            scope = ", ".join(rule.scope) if rule.scope else "everywhere"
            print(f"{rule.code}  {rule.name:<22} [{scope}]")
            print(f"      {rule.summary}")
        return 0

    if args.effects:
        return _run_effects(args)

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
