"""Shared diagnostic vocabulary for both static-analysis layers.

The source linter (:mod:`repro.lint.rules` / :mod:`repro.lint.checker`)
and the query-plan analyzer (:mod:`repro.lint.plan`) report through the
same :class:`Diagnostic` record so tooling — the CLI, CI, tests — can
treat findings uniformly: a code (``R...`` for source rules, ``P...`` for
plan checks), a severity, a human message, and an optional source
location (plan diagnostics have none; they describe a graph, not a file).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Severity(str, Enum):
    """How bad a finding is.

    * ``ERROR`` — the invariant is violated; CI (and
      ``DataflowGraph.run(validate=True)``) must fail.
    * ``WARNING`` — suspicious but runnable; reported, never fatal.
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One finding of either analysis layer.

    Attributes:
        code: rule/check identifier (``R001``..., ``P101``...).
        message: human-readable description of the violation.
        severity: see :class:`Severity`.
        path: source file for linter findings; ``None`` for plan findings.
        line: 1-based line number (0 when not applicable).
        col: 1-based column number (0 when not applicable).
        node: graph-node or query-stage name for plan findings.
    """

    code: str
    message: str
    severity: Severity = Severity.ERROR
    path: str | None = None
    line: int = 0
    col: int = 0
    node: str | None = None

    def to_dict(self) -> dict:
        """JSON-ready representation (the CLI's ``--format json`` schema)."""
        out = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.path is not None:
            out["path"] = self.path
            out["line"] = self.line
            out["col"] = self.col
        if self.node is not None:
            out["node"] = self.node
        return out

    def render(self) -> str:
        """One-line human rendering, ``path:line:col: CODE message``."""
        if self.path is not None:
            return (
                f"{self.path}:{self.line}:{self.col}: "
                f"{self.code} {self.message}"
            )
        where = f" [{self.node}]" if self.node else ""
        return f"{self.code}{where}: {self.message}"
