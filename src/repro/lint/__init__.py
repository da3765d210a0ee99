"""Static analysis for the reproduction: source linter + plan analyzer.

Two layers, one diagnostic vocabulary (:mod:`repro.lint.diagnostics`):

* **Layer 1 — simulator-invariant linter** (``python -m repro.lint``):
  AST rules R001-R007 guarding the virtual-clock/seeded-RNG substitution
  and hot-path hygiene.  See :mod:`repro.lint.rules`.
* **Layer 2 — static query-plan analyzer**
  (:func:`repro.lint.plan.analyze_graph`): P-series checks validating a
  configured :class:`~repro.engine.graph.DataflowGraph` — graph shape,
  schemas, window algebra, shedding soundness, shard safety — before
  execution.  Wired into ``DataflowGraph.run(validate=True)``.

Full rule/check reference: ``docs/STATIC_ANALYSIS.md``.
"""

from .checker import (
    FileReport,
    check_paths,
    check_source,
    iter_python_files,
    module_path_of,
    parse_suppressions,
)
from .diagnostics import Diagnostic, Severity
from .plan import (
    PlanReport,
    PlanValidationError,
    analyze_graph,
)
from .rules import REGISTRY, RULES_BY_CODE, Rule, rules_for

__all__ = [
    "Diagnostic",
    "FileReport",
    "PlanReport",
    "PlanValidationError",
    "REGISTRY",
    "RULES_BY_CODE",
    "Rule",
    "Severity",
    "analyze_graph",
    "check_paths",
    "check_source",
    "iter_python_files",
    "module_path_of",
    "parse_suppressions",
    "rules_for",
]
