"""Simulator-invariant lint rules (the ``R``-series).

Every rule is an :class:`ast` inspection registered in :data:`REGISTRY`.
Rules are *scoped*: each declares the repo sub-packages (or individual
modules) it polices, expressed relative to the ``repro`` package root, so
e.g. the wall-clock ban applies to the deterministic simulator packages
but deliberately not to ``experiments/`` (which measures real solver
runtimes on purpose).  A rule's ``scope`` tuple, below, is the only
list of its packages; ``python -m repro.lint --list-rules`` prints it.

The rules encode the reproduction's two load-bearing properties plus the
hot-path hygiene that keeps the pure-Python engine fast:

=====  ==================================================================
R001   No wall clock (``time.time``/``perf_counter``/``datetime.now``...)
       in the simulator packages — the virtual clock is the only time
       source the simulator may see.
R002   No global / unseeded RNG: the stdlib ``random`` module and the
       legacy ``numpy.random.*`` global functions are banned everywhere;
       draws must flow through an injected ``np.random.Generator``.
R003   No mutable default arguments (``def f(x=[])``) anywhere.
R004   No ``list.pop(0)`` / ``insert(0, ...)`` in the hot-path packages
       — use ``collections.deque`` or the ring structures the windows
       already provide.
R005   No float ``==`` / ``!=`` comparisons in the numeric decision
       modules: exact float equality against literals is almost always
       a latent bug there.
R006   Hot-path tuple/window/buffer classes must declare ``__slots__``
       (directly or via ``@dataclass(slots=True)``).
R007   No per-tuple container allocations — ``list()``/``dict()``/
       ``set()`` calls and list/set/dict comprehensions — inside
       operator ``process()`` methods.  ``process`` runs once per
       tuple; hoist the container to ``__init__``, reuse a buffer, or
       stay in numpy.  Justified allocations carry a per-line
       suppression.
=====  ==================================================================

Suppression: append ``# lint: disable=R001`` (comma-separate several
codes, or omit ``=...`` to silence every rule) to the offending line; see
:mod:`repro.lint.checker`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .diagnostics import Diagnostic, Severity

# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Rule:
    """One registered lint rule.

    Attributes:
        code: identifier (``R001``...).
        name: short kebab-case slug shown by ``--list-rules``.
        summary: one-line description.
        scope: module-path prefixes (relative to the ``repro`` package,
            ``()`` = everywhere) the rule applies to.
        severity: severity of its findings.
        check: ``(tree, ctx) -> list[Diagnostic]``.
    """

    code: str
    name: str
    summary: str
    scope: tuple[str, ...]
    check: Callable[[ast.AST, "RuleContext"], list[Diagnostic]]
    severity: Severity = Severity.ERROR

    def applies_to(self, module_path: str) -> bool:
        """Whether ``module_path`` (``repro``-relative, posix) is in scope."""
        if not self.scope:
            return True
        return any(
            module_path == prefix or module_path.startswith(prefix)
            for prefix in self.scope
        )


@dataclass
class RuleContext:
    """Per-file state shared by all rules during one pass."""

    path: str
    module_path: str
    #: ``alias -> module`` from ``import x [as y]`` statements
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: ``local name -> (module, original name)`` from ``from x import y``
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """Dotted module name (``core/greedy.py`` -> ``repro.core.greedy``)."""
        stem = self.module_path.removesuffix(".py").removesuffix("/__init__")
        return "repro." + stem.replace("/", ".")

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted name of an expression, with import aliases expanded.

        ``np.random.seed`` resolves to ``numpy.random.seed`` under
        ``import numpy as np``; ``perf_counter`` resolves to
        ``time.perf_counter`` under ``from time import perf_counter``.
        Returns None for anything that is not a plain dotted name.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        if root in self.module_aliases:
            parts.append(self.module_aliases[root])
        elif root in self.from_imports:
            module, original = self.from_imports[root]
            parts.append(original)
            parts.append(module)
        else:
            parts.append(root)
        return ".".join(reversed(parts))


def collect_imports(tree: ast.AST, ctx: RuleContext) -> None:
    """Populate ``ctx``'s alias tables from the module's imports;
    relative imports are made absolute against ``ctx.name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    ctx.module_aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    ctx.module_aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            module = [node.module] if node.module else []
            if node.level:  # ``from .x import y`` / ``from . import x``
                parts = ctx.name.split(".")
                module = parts[: len(parts) - node.level] + module
            for alias in node.names:
                ctx.from_imports[alias.asname or alias.name] = (
                    ".".join(module),
                    alias.name,
                )


# --------------------------------------------------------------------------
# R001 — no wall clock in the deterministic simulator packages
# --------------------------------------------------------------------------

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


def _check_wall_clock(tree: ast.AST, ctx: RuleContext) -> list[Diagnostic]:
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Attribute, ast.Name)):
            continue
        dotted = ctx.resolve(node)
        if dotted in _WALL_CLOCK:
            found.append(
                Diagnostic(
                    code="R001",
                    message=(
                        f"wall-clock access `{dotted}` inside the "
                        "deterministic simulator; inject a timer from "
                        "outside it (see repro.timing)"
                    ),
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                )
            )
    return _dedup_by_line(found)


# --------------------------------------------------------------------------
# R002 — no global / unseeded randomness
# --------------------------------------------------------------------------

#: attributes of numpy.random that are constructors/types, not global draws
_NP_RANDOM_OK = {
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "default_rng",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}


def _check_global_rng(tree: ast.AST, ctx: RuleContext) -> list[Diagnostic]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    found.append(
                        Diagnostic(
                            code="R002",
                            message=(
                                "stdlib `random` is global, unseedable "
                                "state; draw from an injected "
                                "np.random.Generator instead"
                            ),
                            path=ctx.path,
                            line=node.lineno,
                            col=node.col_offset + 1,
                        )
                    )
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module == "random":
                found.append(
                    Diagnostic(
                        code="R002",
                        message=(
                            "stdlib `random` is global, unseedable state; "
                            "draw from an injected np.random.Generator "
                            "instead"
                        ),
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset + 1,
                    )
                )
            elif node.module in ("numpy.random", "numpy"):
                for alias in node.names:
                    name = alias.name
                    if node.module == "numpy" and name != "random":
                        continue
                    if node.module == "numpy.random":
                        if name in _NP_RANDOM_OK:
                            continue
                        found.append(
                            Diagnostic(
                                code="R002",
                                message=(
                                    f"`numpy.random.{name}` uses the "
                                    "legacy global RNG; draw from an "
                                    "injected np.random.Generator"
                                ),
                                path=ctx.path,
                                line=node.lineno,
                                col=node.col_offset + 1,
                            )
                        )
        elif isinstance(node, ast.Attribute):
            dotted = ctx.resolve(node)
            if (
                dotted
                and dotted.startswith("numpy.random.")
                and dotted.rsplit(".", 1)[1] not in _NP_RANDOM_OK
            ):
                found.append(
                    Diagnostic(
                        code="R002",
                        message=(
                            f"`{dotted}` draws from the legacy global "
                            "RNG; use an injected np.random.Generator"
                        ),
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset + 1,
                    )
                )
    return _dedup_by_line(found)


# --------------------------------------------------------------------------
# R003 — no mutable default arguments
# --------------------------------------------------------------------------

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "deque", "defaultdict"}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(
        node,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


def _check_mutable_defaults(tree: ast.AST, ctx: RuleContext) -> list[Diagnostic]:
    found = []
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                label = getattr(node, "name", "<lambda>")
                found.append(
                    Diagnostic(
                        code="R003",
                        message=(
                            f"mutable default argument in `{label}`; "
                            "default to None and create inside the body"
                        ),
                        path=ctx.path,
                        line=default.lineno,
                        col=default.col_offset + 1,
                    )
                )
    return found


# --------------------------------------------------------------------------
# R004 — no O(n) list-head operations on hot paths
# --------------------------------------------------------------------------


def _check_list_head_ops(tree: ast.AST, ctx: RuleContext) -> list[Diagnostic]:
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        attr = node.func.attr
        args = node.args
        zero_first = (
            bool(args)
            and isinstance(args[0], ast.Constant)
            and type(args[0].value) is int
            and args[0].value == 0
        )
        if (attr == "pop" and zero_first) or (
            attr == "insert" and zero_first and len(args) >= 2
        ):
            found.append(
                Diagnostic(
                    code="R004",
                    message=(
                        f"`{attr}(0, ...)` shifts the whole list on a hot "
                        "path; use collections.deque (popleft/appendleft) "
                        "or a ring buffer"
                    ),
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                )
            )
    return found


# --------------------------------------------------------------------------
# R005 — no float equality in the numeric decision modules
# --------------------------------------------------------------------------


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        return _is_float_literal(node.operand)
    return False


def _check_float_equality(tree: ast.AST, ctx: RuleContext) -> list[Diagnostic]:
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_float_literal(left) or _is_float_literal(right):
                found.append(
                    Diagnostic(
                        code="R005",
                        message=(
                            "exact float equality against a literal; "
                            "compare with a tolerance or an ordering "
                            "(<=, >=) that absorbs rounding"
                        ),
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset + 1,
                    )
                )
    return found


# --------------------------------------------------------------------------
# R006 — hot-path classes declare __slots__
# --------------------------------------------------------------------------

#: base-class name fragments exempting a class (no instance dict of ours);
#: a ``NamedTuple`` sets ``__slots__ = ()`` itself and rejects one in its body
_SLOTS_EXEMPT_BASES = (
    "Enum", "Exception", "Error", "ABC", "Protocol", "NamedTuple",
)


def _has_slots(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        if isinstance(deco, ast.Call):
            func = deco.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", ""
            )
            if name == "dataclass":
                for kw in deco.keywords:
                    if (
                        kw.arg == "slots"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return True
    for stmt in cls.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


def _is_exempt(cls: ast.ClassDef) -> bool:
    for base in cls.bases:
        name = base.attr if isinstance(base, ast.Attribute) else getattr(
            base, "id", ""
        )
        if any(fragment in name for fragment in _SLOTS_EXEMPT_BASES):
            return True
    return False


def _check_slots(tree: ast.AST, ctx: RuleContext) -> list[Diagnostic]:
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if _is_exempt(node) or _has_slots(node):
            continue
        found.append(
            Diagnostic(
                code="R006",
                message=(
                    f"hot-path class `{node.name}` has no `__slots__`; "
                    "per-instance dicts cost memory and attribute-lookup "
                    "time on the simulator's innermost loops"
                ),
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset + 1,
            )
        )
    return found


# --------------------------------------------------------------------------
# R007 — no per-tuple container allocations in process() hot paths
# --------------------------------------------------------------------------

_COMPREHENSIONS = {
    ast.ListComp: "list comprehension",
    ast.SetComp: "set comprehension",
    ast.DictComp: "dict comprehension",
    ast.GeneratorExp: "generator expression",
}

_CONTAINER_BUILTINS = ("list", "dict", "set")


def _container_allocations(func: ast.FunctionDef) -> list[tuple[ast.AST, str]]:
    """(node, description) for every container allocation in ``func``."""
    found: list[tuple[ast.AST, str]] = []
    for node in ast.walk(func):
        kind = _COMPREHENSIONS.get(type(node))
        if kind is not None:
            found.append((node, kind))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _CONTAINER_BUILTINS
        ):
            found.append((node, f"`{node.func.id}()` call"))
    return found


def _check_process_allocations(
    tree: ast.AST, ctx: RuleContext
) -> list[Diagnostic]:
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if (
                not isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                )
                or stmt.name != "process"
            ):
                continue
            for node, kind in _container_allocations(stmt):
                found.append(
                    Diagnostic(
                        code="R007",
                        message=(
                            f"{kind} inside `{cls.name}.process()` "
                            "allocates a container on every tuple; hoist "
                            "it to __init__, reuse a buffer, or stay in "
                            "numpy"
                        ),
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset + 1,
                    )
                )
    return found


# --------------------------------------------------------------------------
# helpers / registry
# --------------------------------------------------------------------------


def _dedup_by_line(diags: list[Diagnostic]) -> list[Diagnostic]:
    """Collapse nested-AST duplicates (Name inside Attribute etc.)."""
    seen: set[tuple[str, int, int]] = set()
    out = []
    for d in sorted(diags, key=lambda d: (d.line, d.col)):
        key = (d.code, d.line, d.col)
        if key in seen:
            continue
        seen.add(key)
        out.append(d)
    return out


#: packages forming the deterministic simulator (R001's scope); obs/ is
#: included because telemetry is keyed to virtual time by contract and
#: parallel/ because sharded runs must replay bit-identically
SIMULATOR_PACKAGES = ("core/", "engine/", "joins/", "streams/", "obs/",
                      "parallel/")

#: packages whose per-tuple paths are performance critical (R004's scope)
HOT_PATH_PACKAGES = ("core/", "engine/", "joins/")

#: numeric decision modules where float equality is banned (R005's scope)
FLOAT_EQ_MODULES = (
    "core/cost_model.py",
    "core/throttle.py",
    "core/greedy.py",
)

#: packages whose operator `process()` methods run once per tuple
#: (R007's scope); engine/ is excluded — its process-like entry points
#: are the scheduler, not per-tuple operator code.  parallel/ routers
#: and mergers see *every* tuple
PROCESS_HOT_PACKAGES = ("core/", "joins/", "parallel/")

#: modules whose classes sit on the per-tuple hot path (R006's scope)
SLOTTED_MODULES = (
    "streams/tuples.py",
    "core/basic_windows.py",
    "engine/buffers.py",
    "engine/events.py",
)

REGISTRY: tuple[Rule, ...] = (
    Rule(
        code="R001",
        name="no-wall-clock",
        summary="no wall-clock reads inside the deterministic simulator",
        scope=SIMULATOR_PACKAGES,
        check=_check_wall_clock,
    ),
    Rule(
        code="R002",
        name="no-global-rng",
        summary=(
            "no stdlib `random` / legacy numpy global RNG; draws flow "
            "through an injected np.random.Generator"
        ),
        scope=(),
        check=_check_global_rng,
    ),
    Rule(
        code="R003",
        name="no-mutable-defaults",
        summary="no mutable default arguments",
        scope=(),
        check=_check_mutable_defaults,
    ),
    Rule(
        code="R004",
        name="no-list-head-ops",
        summary="no list.pop(0) / insert(0, ...) in hot-path packages",
        scope=HOT_PATH_PACKAGES,
        check=_check_list_head_ops,
    ),
    Rule(
        code="R005",
        name="no-float-equality",
        summary=(
            "no float ==/!= against literals in the numeric decision "
            "modules"
        ),
        scope=FLOAT_EQ_MODULES,
        check=_check_float_equality,
    ),
    Rule(
        code="R006",
        name="require-slots",
        summary="hot-path tuple/window/buffer classes declare __slots__",
        scope=SLOTTED_MODULES,
        check=_check_slots,
    ),
    Rule(
        code="R007",
        name="no-process-allocations",
        summary=(
            "no per-tuple container allocations (list()/dict()/set()/"
            "comprehensions) in operator process() methods"
        ),
        scope=PROCESS_HOT_PACKAGES,
        check=_check_process_allocations,
    ),
)

RULES_BY_CODE = {rule.code: rule for rule in REGISTRY}


def rules_for(
    module_path: str, select: Sequence[str] | None = None
) -> list[Rule]:
    """Rules applicable to one ``repro``-relative module path."""
    chosen = (
        REGISTRY
        if select is None
        else [RULES_BY_CODE[c] for c in select if c in RULES_BY_CODE]
    )
    return [rule for rule in chosen if rule.applies_to(module_path)]
