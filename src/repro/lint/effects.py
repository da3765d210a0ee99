"""Interprocedural effect inference and shard-safety certification.

Answers the question the line-local rules (R001-R007) cannot: *which
operators are safe to replicate across shards?*  The pass walks the
whole ``repro`` package (:class:`repro.lint.callgraph.PackageIndex`),
infers a per-function :class:`FunctionSummary` — reads/writes of
``self`` state, module globals, closure captures and aliased arguments;
set/dict iteration; RNG, clock and telemetry use — propagates summaries
over the call graph to a fixed point, and rolls them up per operator
class into a certified classification:

``pure``
    No state writes at all, no randomness, no injected code.  The
    operator is a function of its input tuple.
``stream-local``
    Writes only instance state it constructed itself; deterministic
    iteration; no injected callables or randomness.  Replicating the
    instance replicates all of its state.
``shard-safe``
    ``stream-local`` plus effects that are individually replication-safe
    under a *recorded assumption*: injected RNG (per-instance generator),
    injected timers, opaque injected callables (assumed pure — the
    paper's predicates), write-only telemetry, and writes to
    constructor-injected objects (assumed per-instance).  The dynamic
    :class:`repro.testkit.sanitizer.DeterminismSanitizer` checks those
    assumptions at run time.
``shared-state``
    Writes module globals, class attributes or closure captures; mutates
    arguments it does not own; draws from global RNG or the wall clock;
    iterates a ``set`` (hash-order nondeterminism); or *reads* telemetry
    (feedback through the metrics plane).  Never replicated.

The classification is conservative: anything the analysis cannot prove
lands in the worse class, unresolved method calls are recorded in the
manifest under ``unknown_calls`` (assumed effect-free — the documented
analysis assumption the sanitizer backstops), and a class may *declare*
a worse class via ``__effects__ = "shared-state"`` but never a better
one: the only way up is to fix the operator.

Entry points:

* :func:`analyze_package` — certify every operator class under
  ``src/repro`` (cached per source root).
* :func:`classify_class` — certify one runtime class object, including
  classes defined outside the package (test operators).
* ``python -m repro.lint --effects`` — the byte-stable JSON manifest
  (:meth:`EffectAnalysis.manifest_json`) CI diffs against
  ``benchmarks/effects/MANIFEST.json``.
"""

from __future__ import annotations

import ast
import builtins
import json
from dataclasses import dataclass, field
from pathlib import Path

from .callgraph import ClassInfo, ModuleInfo, PackageIndex
from .rules import _WALL_CLOCK, _NP_RANDOM_OK

#: classification lattice, best to worst
EFFECT_ORDER = ("pure", "stream-local", "shard-safe", "shared-state",
                "unknown")

#: classifications a shard operator may carry (P120 / the build gate)
SHARDABLE = frozenset({"pure", "stream-local", "shard-safe"})

#: methods the runtime (or plan wiring) actually invokes — the rollup
#: roots; helper/introspection methods are certified only if reachable
ENTRY_METHODS = (
    "__init__", "process", "admit", "on_adapt", "on_finish", "bind_obs",
    "_obs_setup", "describe", "attach_depth_probe",
)

#: method names assumed to mutate their receiver when the receiver's
#: type cannot be resolved inside the package
_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "insert", "add", "update",
    "setdefault", "pop", "popleft", "popitem", "remove", "discard",
    "clear", "sort", "reverse", "rotate", "fill", "resize", "observe",
    "push", "advance", "reset",
})

#: write-only telemetry API (rule P122's allowlist)
_OBS_WRITE_API = frozenset({
    "inc", "dec", "set", "observe", "record", "counter", "gauge",
    "series", "histogram", "bind_obs", "span", "explain",
})

def is_obs_attr(name: str) -> bool:
    """Telemetry plumbing (``obs``, ``_obs*``), not operator state:
    excluded from state-write classification and from the sanitizer's
    object-graph walk alike — policed separately by P122."""
    return name == "obs" or name.startswith("_obs")


_BUILTIN_NAMES = frozenset(dir(builtins))

#: constructor calls whose result is a known builtin container / RNG
_BUILTIN_CTORS = {
    "set": "set", "frozenset": "set", "dict": "dict", "list": "list",
    "defaultdict": "dict", "Counter": "dict", "OrderedDict": "dict",
    "deque": "list", "default_rng": "rng",
}


def _rank(classification: str) -> int:
    return EFFECT_ORDER.index(classification)


# ---------------------------------------------------------------------------
# per-function summaries
# ---------------------------------------------------------------------------


@dataclass
class FunctionSummary:
    """Effects of one function/method body (before call propagation)."""

    params: list[str] = field(default_factory=list)
    self_reads: set[str] = field(default_factory=set)
    self_writes: set[str] = field(default_factory=set)
    #: subset of ``self_writes`` where the *object* under the root is
    #: mutated (``self.w.append``, ``self.d[k] = v``, ``self.a.b = v``)
    #: rather than the attribute merely rebound — rule P124 and the
    #: sanitizer's aliasing check key on this: binding an injected
    #: read-only collaborator is safe to share, mutating it is not
    mutated_attrs: set[str] = field(default_factory=set)
    #: ``self.attr`` assigned directly from a constructor parameter
    aliased_attrs: dict[str, str] = field(default_factory=dict)
    #: ``self.attr`` -> package class name (constructor-assignment typing)
    attr_types: dict[str, str] = field(default_factory=dict)
    #: ``self.attr`` -> builtin kind ("set"/"dict"/"list"/"rng")
    attr_builtin: dict[str, str] = field(default_factory=dict)
    #: ``self.attr = MODULE_GLOBAL`` where the global is mutable
    aliased_globals: dict[str, str] = field(default_factory=dict)
    global_reads: set[str] = field(default_factory=set)
    global_writes: set[str] = field(default_factory=set)
    class_writes: set[str] = field(default_factory=set)
    param_mutations: set[str] = field(default_factory=set)
    closure_writes: set[str] = field(default_factory=set)
    #: attribute roots iterated with ``for``/comprehensions (resolved to
    #: set/dict kinds during rollup)
    iterated_attrs: set[str] = field(default_factory=set)
    set_iteration: set[str] = field(default_factory=set)
    dict_iteration: bool = False
    rng_injected: bool = False
    rng_global: bool = False
    clock: bool = False
    timer_injected: bool = False
    obs_writes: bool = False
    obs_reads: set[str] = field(default_factory=set)
    opaque_calls: set[str] = field(default_factory=set)
    unknown_calls: set[str] = field(default_factory=set)
    calls: list[tuple] = field(default_factory=list)

    def merge_nonlocal(self, other: "FunctionSummary") -> None:
        """Union every receiver-independent effect of ``other``."""
        self.global_reads |= other.global_reads
        self.global_writes |= other.global_writes
        self.class_writes |= other.class_writes
        self.closure_writes |= other.closure_writes
        self.set_iteration |= other.set_iteration
        self.dict_iteration |= other.dict_iteration
        self.rng_injected |= other.rng_injected
        self.rng_global |= other.rng_global
        self.clock |= other.clock
        self.timer_injected |= other.timer_injected
        self.obs_writes |= other.obs_writes
        self.obs_reads |= other.obs_reads
        self.opaque_calls |= other.opaque_calls
        self.unknown_calls |= other.unknown_calls

    def snapshot(self) -> tuple:
        """Hashable fingerprint used by the fixed-point driver."""
        return (
            frozenset(self.self_reads), frozenset(self.self_writes),
            frozenset(self.mutated_attrs),
            frozenset(self.global_reads), frozenset(self.global_writes),
            frozenset(self.class_writes),
            frozenset(self.param_mutations),
            frozenset(self.closure_writes),
            frozenset(self.set_iteration), self.dict_iteration,
            self.rng_injected, self.rng_global, self.clock,
            self.timer_injected, self.obs_writes,
            frozenset(self.obs_reads), frozenset(self.opaque_calls),
            frozenset(self.unknown_calls),
            tuple(sorted(self.aliased_attrs.items())),
        )


def _collect_locals(func: ast.FunctionDef) -> set[str]:
    """Every name bound in the function body (params included)."""
    names: set[str] = set()
    args = func.args
    for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        names.add(a.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)) and node is not func:
            names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.Global):
            names.difference_update(node.names)
    return names


def _attr_chain(node: ast.AST) -> list[str] | None:
    """``self.x.y`` -> ``["self", "x", "y"]``; None if not a pure chain."""
    parts: list[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def _is_set_expr(node: ast.AST, set_locals: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in set_locals:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)):
        return (_is_set_expr(node.left, set_locals)
                or _is_set_expr(node.right, set_locals))
    return False


def _is_dict_iter_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in ("items", "keys", "values")
    return False


class _FunctionVisitor(ast.NodeVisitor):
    """One intraprocedural pass over a function body."""

    def __init__(self, index: PackageIndex, module: ModuleInfo,
                 cls: ClassInfo | None, func: ast.FunctionDef) -> None:
        self.index = index
        self.module = module
        self.cls = cls
        self.func = func
        self.summary = FunctionSummary()
        args = func.args
        self.summary.params = [
            a.arg for a in (*args.posonlyargs, *args.args,
                            *args.kwonlyargs)
        ]
        self.self_name = (
            self.summary.params[0]
            if cls is not None and self.summary.params else None
        )
        self.locals = _collect_locals(func)
        self.globals_declared: set[str] = set()
        #: local name -> ("self", attr) when bound from a self attribute
        self.local_alias: dict[str, tuple[str, str]] = {}
        #: local names bound to set-producing expressions
        self.set_locals: set[str] = set()
        self.is_init = func.name == "__init__"

    # -- name classification -------------------------------------------

    def _kind_of(self, name: str) -> str:
        if name == self.self_name:
            return "self"
        if name in self.summary.params:
            return "param"
        if name in self.globals_declared:
            return "global"
        if name in self.locals:
            return "local"
        if (name in self.module.globals_all
                or name in self.module.from_imports
                or name in self.module.module_aliases):
            return "global"
        if name in _BUILTIN_NAMES:
            return "builtin"
        return "external"

    # -- write targets --------------------------------------------------

    def _record_store(self, target: ast.AST, value: ast.AST | None) -> None:
        chain = _attr_chain(target)
        if chain is None:
            return
        if len(chain) == 1:
            # subscript store into a bare name: ``TALLY[k] = v``
            root = chain[0]
            kind = self._kind_of(root)
            if kind == "param":
                self.summary.param_mutations.add(root)
            elif kind == "global":
                self.summary.global_writes.add(root)
            elif kind == "local" and root in self.local_alias:
                _, aliased = self.local_alias[root]
                self.summary.self_writes.add(aliased)
                self.summary.mutated_attrs.add(aliased)
            return
        root, attr = chain[0], chain[1]
        # ``type(self).x = `` / ``self.__class__.x = `` / ``cls.x = ``
        if isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Call) and isinstance(
                    base.func, ast.Name) and base.func.id == "type":
                self.summary.class_writes.add(target.attr)
                return
        if attr == "__class__" or (
                root == "cls" and self.summary.params
                and self.summary.params[0] == "cls"):
            self.summary.class_writes.add(chain[-1])
            return
        kind = self._kind_of(root)
        if kind == "self":
            self.summary.self_writes.add(attr)
            if self._is_property(attr):
                # property setter: the body executes at store time
                self.summary.calls.append(("self", attr, []))
            # a plain ``self.attr = v`` rebinds the attribute; anything
            # deeper (``self.attr[k] = v``, ``self.attr.sub = v``)
            # mutates the object the root refers to
            if len(chain) > 2 or not isinstance(target, ast.Attribute):
                self.summary.mutated_attrs.add(attr)
            if self.is_init and value is not None and len(chain) == 2:
                self._infer_attr_type(attr, value)
        elif kind == "param":
            self.summary.param_mutations.add(root)
        elif kind == "global":
            if self.module.classes.get(root) is not None or \
                    self.index.resolve_class(self.module, root) is not None:
                self.summary.class_writes.add(f"{root}.{attr}")
            else:
                self.summary.global_writes.add(root)
        elif kind == "local" and root in self.local_alias:
            _, aliased = self.local_alias[root]
            self.summary.self_writes.add(aliased)
            self.summary.mutated_attrs.add(aliased)

    def _infer_attr_type(self, attr: str, value: ast.AST) -> None:
        """Constructor-assignment typing: ``self.x = ClassName(...)``,
        the list-of form, parameter aliasing, and builtin containers."""
        if isinstance(value, ast.Name):
            if value.id in self.summary.params and \
                    value.id != self.self_name:
                self.summary.aliased_attrs[attr] = value.id
            elif self._kind_of(value.id) == "global" and \
                    self.index.is_mutable_global(self.module, value.id):
                self.summary.aliased_globals[attr] = value.id
            return
        if isinstance(value, (ast.Set, ast.SetComp)):
            self.summary.attr_builtin[attr] = "set"
            return
        if isinstance(value, (ast.Dict, ast.DictComp)):
            self.summary.attr_builtin[attr] = "dict"
            return
        if isinstance(value, (ast.List, ast.ListComp)):
            elt = None
            if isinstance(value, ast.ListComp):
                elt = value.elt
            elif isinstance(value, ast.List) and value.elts:
                elt = value.elts[0]
            if isinstance(elt, ast.Call):
                cls = self._class_of_call(elt)
                if cls is not None:
                    self.summary.attr_types[attr] = cls.qualname
                    return
            self.summary.attr_builtin[attr] = "list"
            return
        if isinstance(value, ast.Call):
            cls = self._class_of_call(value)
            if cls is not None:
                self.summary.attr_types[attr] = cls.qualname
                return
            name = (value.func.id if isinstance(value.func, ast.Name)
                    else getattr(value.func, "attr", ""))
            if name in _BUILTIN_CTORS:
                self.summary.attr_builtin[attr] = _BUILTIN_CTORS[name]

    def _class_of_call(self, call: ast.Call) -> ClassInfo | None:
        if isinstance(call.func, ast.Name):
            return self.index.resolve_class(self.module, call.func.id)
        dotted = self.module.resolve(call.func)
        if dotted is None:
            return None
        mod_name, _, cls_name = dotted.rpartition(".")
        info = self.index.modules.get(mod_name)
        if info is not None:
            return info.classes.get(cls_name)
        return None

    # -- statements ------------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self.globals_declared.update(node.names)
        self.summary.global_writes.update(node.names)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self.summary.closure_writes.update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                if self._kind_of(target.id) == "global" and \
                        target.id in self.globals_declared:
                    self.summary.global_writes.add(target.id)
                chain = _attr_chain(node.value)
                if chain and chain[0] == self.self_name and \
                        len(chain) >= 2:
                    self.local_alias[target.id] = ("self", chain[1])
                elif _is_set_expr(node.value, self.set_locals):
                    self.set_locals.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    self._record_store(elt, None)
            else:
                self._record_store(target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name):
            if node.target.id in self.globals_declared:
                self.summary.global_writes.add(node.target.id)
        else:
            self._record_store(node.target, None)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and not isinstance(
                node.target, ast.Name):
            self._record_store(node.target, node.value)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if not isinstance(target, ast.Name):
                self._record_store(target, None)
        self.generic_visit(node)

    # -- iteration -------------------------------------------------------

    def _record_iteration(self, iterable: ast.AST) -> None:
        if _is_set_expr(iterable, self.set_locals):
            self.summary.set_iteration.add(
                f"line {getattr(iterable, 'lineno', 0)}"
            )
            return
        if _is_dict_iter_expr(iterable):
            self.summary.dict_iteration = True
        chain = _attr_chain(iterable)
        if chain and chain[0] == self.self_name and len(chain) >= 2:
            self.summary.iterated_attrs.add(chain[1])

    def visit_For(self, node: ast.For) -> None:
        self._record_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._record_iteration(node.iter)
        self.generic_visit(node)

    # -- reads -----------------------------------------------------------

    def _is_property(self, attr: str) -> bool:
        """Whether ``self.<attr>`` resolves to an ``@property`` — its
        body runs on every access, so it must be analyzed as a call."""
        if self.cls is None:
            return False
        found = self.index.find_method(self.cls, attr)
        if found is None:
            return False
        _, func = found
        for deco in func.decorator_list:
            if isinstance(deco, ast.Name) and deco.id == "property":
                return True
            if isinstance(deco, ast.Attribute) and deco.attr in (
                    "setter", "deleter"):
                return True
        return False

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            chain = _attr_chain(node)
            if chain and chain[0] == self.self_name and len(chain) >= 2:
                self.summary.self_reads.add(chain[1])
                if self._is_property(chain[1]):
                    # property getter: the body executes at read time
                    self.summary.calls.append(("self", chain[1], []))
            dotted = self.module.resolve(node)
            if dotted in _WALL_CLOCK:
                self.summary.clock = True
            elif dotted and dotted.startswith("numpy.random.") and \
                    dotted.rsplit(".", 1)[1] not in _NP_RANDOM_OK:
                self.summary.rng_global = True
            elif dotted and (dotted.startswith("random.")
                             or dotted == "random"):
                self.summary.rng_global = True
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            kind = self._kind_of(node.id)
            if kind == "global" and self.index.is_mutable_global(
                    self.module, node.id):
                self.summary.global_reads.add(node.id)
        self.generic_visit(node)

    # -- calls -----------------------------------------------------------

    def _describe_args(self, call: ast.Call) -> list[tuple]:
        out = []
        for arg in call.args:
            chain = _attr_chain(arg)
            if isinstance(arg, ast.Name):
                kind = self._kind_of(arg.id)
                if kind == "self":
                    out.append(("self",))
                elif kind == "param":
                    out.append(("param", arg.id))
                elif kind == "global" and self.index.is_mutable_global(
                        self.module, arg.id):
                    out.append(("global", arg.id))
                else:
                    out.append(("other",))
            elif chain and chain[0] == self.self_name and len(chain) >= 2:
                out.append(("self_attr", chain[1]))
            else:
                out.append(("other",))
        return out

    def visit_Call(self, node: ast.Call) -> None:
        self._handle_call(node)
        self.generic_visit(node)

    def _handle_call(self, node: ast.Call) -> None:
        func = node.func
        summary = self.summary

        if isinstance(func, ast.Name):
            name = func.id
            if name in ("setattr", "delattr"):
                self._handle_setattr(node)
                return
            if name == "super":
                return
            if name in self.local_alias:
                _, attr = self.local_alias[name]
                self._attr_root_call(attr, "__call__", node)
                return
            kind = self._kind_of(name)
            if kind == "param":
                summary.opaque_calls.add(name)
                return
            if kind == "global":
                cls = self.index.resolve_class(self.module, name)
                if cls is not None:
                    summary.calls.append(
                        ("ctor", cls.qualname, self._describe_args(node))
                    )
                    return
                fn = self.index.resolve_function(self.module, name)
                if fn is not None:
                    summary.calls.append(
                        ("func", fn[0].name, fn[1].name,
                         self._describe_args(node))
                    )
                    return
                dotted = self.module.resolve(func)
                self._external_call(dotted or name)
                return
            if kind in ("local", "builtin"):
                return
            self._external_call(name)
            return

        if isinstance(func, ast.Attribute):
            chain = _attr_chain(func)
            # ``super().__init__(...)``
            if chain is None and isinstance(func.value, ast.Call) and \
                    isinstance(func.value.func, ast.Name) and \
                    func.value.func.id == "super":
                summary.calls.append(
                    ("super", func.attr, self._describe_args(node))
                )
                return
            if chain is None:
                return
            root, method = chain[0], chain[-1]
            if root == self.self_name and len(chain) == 2:
                # ``self.x(...)``: a method, or a stored callable
                if self.cls is not None and self.index.find_method(
                        self.cls, method) is not None:
                    summary.calls.append(
                        ("self", method, self._describe_args(node))
                    )
                else:
                    summary.opaque_calls.add(method)
                return
            if root == self.self_name:
                self._attr_root_call(chain[1], method, node)
                return
            kind = self._kind_of(root)
            if kind == "param":
                if is_obs_attr(root):
                    self._obs_call(method)
                elif "rng" in root:
                    summary.rng_injected = True
                elif "timer" in root:
                    summary.timer_injected = True
                elif method in _MUTATOR_METHODS:
                    summary.param_mutations.add(root)
                return
            if kind == "global":
                dotted = self.module.resolve(func)
                if dotted is not None and (
                        dotted in _WALL_CLOCK
                        or dotted.startswith("numpy.random.")
                        or dotted.startswith("random.")):
                    self._external_call(dotted)
                    return
                if self.index.is_mutable_global(self.module, root):
                    if method in _MUTATOR_METHODS:
                        summary.global_writes.add(root)
                    else:
                        summary.global_reads.add(root)
                    return
                self._external_call(dotted or f"{root}.{method}")
                return
            if kind == "local":
                alias = self.local_alias.get(root)
                if alias is not None:
                    self._attr_root_call(alias[1], method, node)
                return
            self._external_call(f"{root}.{method}")

    def _handle_setattr(self, node: ast.Call) -> None:
        """``setattr(obj, name, value)`` / ``delattr(obj, name)``."""
        if not node.args:
            return
        target = node.args[0]
        attr = "*"
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str):
            attr = node.args[1].value
        if isinstance(target, ast.Name):
            kind = self._kind_of(target.id)
            if kind == "self":
                self.summary.self_writes.add(attr)
            elif kind == "param":
                self.summary.param_mutations.add(target.id)
            elif kind == "global":
                self.summary.global_writes.add(target.id)
        else:
            chain = _attr_chain(target)
            if chain and chain[0] == self.self_name and len(chain) >= 2:
                self.summary.self_writes.add(chain[1])
                self.summary.mutated_attrs.add(chain[1])

    def _attr_root_call(self, root: str, method: str,
                        node: ast.Call) -> None:
        """A call through ``self.<root>...<method>(...)``."""
        summary = self.summary
        if is_obs_attr(root):
            self._obs_call(method)
            return
        if "rng" in root:
            summary.rng_injected = True
            return
        if "timer" in root:
            summary.timer_injected = True
            return
        summary.calls.append(
            ("attr", root, method, self._describe_args(node))
        )

    def _obs_call(self, method: str) -> None:
        if method in _OBS_WRITE_API:
            self.summary.obs_writes = True
        else:
            self.summary.obs_reads.add(method)

    def _external_call(self, dotted: str) -> None:
        summary = self.summary
        if dotted in _WALL_CLOCK:
            summary.clock = True
        elif dotted.startswith("numpy.random."):
            tail = dotted.rsplit(".", 1)[1]
            if tail == "default_rng":
                summary.rng_injected = True
            elif tail not in _NP_RANDOM_OK:
                summary.rng_global = True
        elif dotted == "random" or dotted.startswith("random."):
            summary.rng_global = True
        else:
            summary.unknown_calls.add(dotted)


def summarize_function(index: PackageIndex, module: ModuleInfo,
                       cls: ClassInfo | None,
                       func: ast.FunctionDef) -> FunctionSummary:
    """Intraprocedural effect summary of one function body."""
    visitor = _FunctionVisitor(index, module, cls, func)
    visitor.visit(func)
    return visitor.summary


# ---------------------------------------------------------------------------
# interprocedural propagation
# ---------------------------------------------------------------------------


class EffectEngine:
    """Propagates function summaries over the call graph to a fixpoint."""

    def __init__(self, index: PackageIndex) -> None:
        self.index = index
        #: (class qualname | None, module, func name) -> merged summary
        self._memo: dict[tuple, FunctionSummary] = {}
        self._base: dict[tuple, FunctionSummary] = {}
        self._stack: set[tuple] = set()

    # -- fixpoint driver -------------------------------------------------

    def method_summary(self, cls: ClassInfo,
                       method: str) -> FunctionSummary:
        """Call-propagated summary of ``cls.method`` (MRO-resolved,
        self-calls dispatched on ``cls``)."""
        for _ in range(8):
            before = {k: v.snapshot() for k, v in self._memo.items()}
            result = self._compute_method(cls, method)
            after = {k: v.snapshot() for k, v in self._memo.items()}
            if before == after:
                return result
        return self._compute_method(cls, method)

    def _key(self, cls: ClassInfo | None, module: str,
             name: str) -> tuple:
        return (cls.qualname if cls else None, module, name)

    def _compute_method(self, cls: ClassInfo,
                        method: str) -> FunctionSummary:
        found = self.index.find_method(cls, method)
        if found is None:
            return FunctionSummary()
        owner, func = found
        key = self._key(cls, owner.module, method)
        if key in self._stack:
            return self._memo.get(key, FunctionSummary())
        memoized = self._memo.get(key)
        if memoized is not None and key in self._base:
            # recompute from the cached intraprocedural base so the
            # fixpoint driver can observe growth
            base = self._base[key]
        else:
            module = self.index.modules[owner.module]
            base = summarize_function(self.index, module, owner, func)
            self._base[key] = base
        self._stack.add(key)
        try:
            merged = self._propagate(base, cls, owner)
        finally:
            self._stack.discard(key)
        self._memo[key] = merged
        return merged

    def _compute_function(self, module_name: str,
                          name: str) -> FunctionSummary:
        module = self.index.modules.get(module_name)
        if module is None or name not in module.functions:
            return FunctionSummary()
        key = self._key(None, module_name, name)
        if key in self._stack:
            return self._memo.get(key, FunctionSummary())
        if key in self._base:
            base = self._base[key]
        else:
            base = summarize_function(self.index, module, None,
                                      module.functions[name])
            self._base[key] = base
        self._stack.add(key)
        try:
            merged = self._propagate(base, None, None)
        finally:
            self._stack.discard(key)
        self._memo[key] = merged
        return merged

    # -- call-site merging -----------------------------------------------

    def _copy(self, base: FunctionSummary) -> FunctionSummary:
        out = FunctionSummary(params=list(base.params))
        out.self_reads = set(base.self_reads)
        out.self_writes = set(base.self_writes)
        out.mutated_attrs = set(base.mutated_attrs)
        out.aliased_attrs = dict(base.aliased_attrs)
        out.attr_types = dict(base.attr_types)
        out.attr_builtin = dict(base.attr_builtin)
        out.aliased_globals = dict(base.aliased_globals)
        out.global_reads = set(base.global_reads)
        out.global_writes = set(base.global_writes)
        out.class_writes = set(base.class_writes)
        out.param_mutations = set(base.param_mutations)
        out.closure_writes = set(base.closure_writes)
        out.iterated_attrs = set(base.iterated_attrs)
        out.set_iteration = set(base.set_iteration)
        out.dict_iteration = base.dict_iteration
        out.rng_injected = base.rng_injected
        out.rng_global = base.rng_global
        out.clock = base.clock
        out.timer_injected = base.timer_injected
        out.obs_writes = base.obs_writes
        out.obs_reads = set(base.obs_reads)
        out.opaque_calls = set(base.opaque_calls)
        out.unknown_calls = set(base.unknown_calls)
        out.calls = list(base.calls)
        return out

    def _map_param_mutations(self, caller: FunctionSummary,
                             callee: FunctionSummary,
                             args: list[tuple]) -> None:
        """Rebind the callee's parameter mutations onto the caller's
        view of the argument expressions (aliasing transfer)."""
        params = callee.params[1:] if callee.params and \
            callee.params[0] in ("self", "cls") else callee.params
        for mutated in callee.param_mutations:
            if mutated in params:
                pos = params.index(mutated)
                desc = args[pos] if pos < len(args) else ("other",)
            else:
                desc = ("other",)
            if desc[0] == "self_attr":
                caller.self_writes.add(desc[1])
                caller.mutated_attrs.add(desc[1])
            elif desc[0] == "self":
                caller.self_writes.add("*")
                caller.mutated_attrs.add("*")
            elif desc[0] == "param":
                caller.param_mutations.add(desc[1])
            elif desc[0] == "global":
                caller.global_writes.add(desc[1])

    def _propagate(self, base: FunctionSummary, cls: ClassInfo | None,
                   owner: ClassInfo | None) -> FunctionSummary:
        merged = self._copy(base)
        for site in base.calls:
            kind = site[0]
            if kind == "self" and cls is not None:
                _, method, args = site
                callee = self._compute_method(cls, method)
                merged.merge_nonlocal(callee)
                merged.self_reads |= callee.self_reads
                merged.self_writes |= callee.self_writes
                merged.mutated_attrs |= callee.mutated_attrs
                merged.param_mutations |= callee.param_mutations
                merged.iterated_attrs |= callee.iterated_attrs
            elif kind == "super" and cls is not None and owner is not None:
                _, method, args = site
                mro = self.index.mro(cls)
                try:
                    start = mro.index(owner) + 1
                except ValueError:
                    start = 1
                for nxt in mro[start:]:
                    if method in nxt.methods:
                        callee = self._compute_method(nxt, method)
                        merged.merge_nonlocal(callee)
                        merged.self_reads |= callee.self_reads
                        merged.self_writes |= callee.self_writes
                        merged.mutated_attrs |= callee.mutated_attrs
                        break
            elif kind == "attr":
                _, root, method, args = site
                self._merge_attr_call(merged, cls, root, method, args)
            elif kind == "ctor":
                _, qualname, args = site
                mod_name, _, cls_name = qualname.rpartition(".")
                info = self.index.modules.get(mod_name)
                target = info.classes.get(cls_name) if info else None
                if target is not None:
                    callee = self._compute_method(target, "__init__")
                    merged.merge_nonlocal(callee)
                    self._map_param_mutations(merged, callee, args)
            elif kind == "func":
                _, mod_name, fname, args = site
                callee = self._compute_function(mod_name, fname)
                merged.merge_nonlocal(callee)
                self._map_param_mutations(merged, callee, args)
        return merged

    def _merge_attr_call(self, merged: FunctionSummary,
                         cls: ClassInfo | None, root: str, method: str,
                         args: list[tuple]) -> None:
        """A propagated ``self.<root>.<method>(...)`` call."""
        attr_types, attr_builtin = self._attr_typing(cls)
        type_name = attr_types.get(root)
        if type_name is not None:
            mod_name, _, cls_name = type_name.rpartition(".")
            info = self.index.modules.get(mod_name)
            target = info.classes.get(cls_name) if info else None
            if target is not None and self.index.find_method(
                    target, method) is not None:
                callee = self._compute_method(target, method)
                merged.merge_nonlocal(callee)
                if callee.self_writes:
                    merged.self_writes.add(root)
                    merged.mutated_attrs.add(root)
                if callee.self_reads:
                    merged.self_reads.add(root)
                self._map_param_mutations(merged, callee, args)
                return
        if attr_builtin.get(root) == "rng":
            merged.rng_injected = True
            return
        if method in _MUTATOR_METHODS:
            merged.self_writes.add(root)
            merged.mutated_attrs.add(root)
        else:
            merged.self_reads.add(root)
            merged.unknown_calls.add(f"self.{root}.{method}")

    def _attr_typing(self, cls: ClassInfo | None
                     ) -> tuple[dict[str, str], dict[str, str]]:
        """attr -> type maps from the class's ``__init__`` chain."""
        if cls is None:
            return {}, {}
        key = ("__typing__", cls.qualname)
        cached = self._memo.get(key)
        if cached is not None:
            return cached.attr_types, cached.attr_builtin
        holder = FunctionSummary()
        for owner in reversed(self.index.mro(cls)):
            if "__init__" not in owner.methods:
                continue
            module = self.index.modules[owner.module]
            base = summarize_function(self.index, module, owner,
                                      owner.methods["__init__"])
            holder.attr_types.update(base.attr_types)
            holder.attr_builtin.update(base.attr_builtin)
            holder.aliased_attrs.update(base.aliased_attrs)
            holder.aliased_globals.update(base.aliased_globals)
        self._memo[key] = holder
        return holder.attr_types, holder.attr_builtin


# ---------------------------------------------------------------------------
# class rollup and classification
# ---------------------------------------------------------------------------


@dataclass
class ClassCertificate:
    """The certified effect profile of one operator class."""

    qualname: str
    kind: str  # "operator" | "admission" | "class"
    classification: str
    inferred: str
    declared: str | None
    why: list[str]
    effects: dict
    entry_methods: list[str]

    @property
    def shardable(self) -> bool:
        return self.classification in SHARDABLE

    def to_dict(self) -> dict:
        return {
            "classification": self.classification,
            "declared": self.declared,
            "effects": self.effects,
            "entry_methods": self.entry_methods,
            "inferred": self.inferred,
            "kind": self.kind,
            "why": self.why,
        }


def _classify(merged: FunctionSummary, aliased: dict[str, str],
              aliased_globals: dict[str, str],
              mutable_class_attrs: set[str]) -> tuple[str, list[str]]:
    """Classification + human reasons from a class's merged effects."""
    reasons: list[str] = []
    shared = False
    if merged.global_writes:
        shared = True
        reasons.append(
            "writes module globals: "
            + ", ".join(sorted(merged.global_writes))
        )
    if merged.class_writes:
        shared = True
        reasons.append(
            "writes class attributes: "
            + ", ".join(sorted(merged.class_writes))
        )
    if merged.closure_writes:
        shared = True
        reasons.append(
            "writes closure captures: "
            + ", ".join(sorted(merged.closure_writes))
        )
    written_class_attrs = merged.self_writes & mutable_class_attrs
    if written_class_attrs:
        shared = True
        reasons.append(
            "writes class-level mutable defaults: "
            + ", ".join(sorted(written_class_attrs))
        )
    written_global_aliases = {
        a for a in merged.self_writes if a in aliased_globals
    }
    if written_global_aliases:
        shared = True
        reasons.append(
            "mutates module globals aliased into self: "
            + ", ".join(sorted(
                f"{a} (= {aliased_globals[a]})"
                for a in written_global_aliases
            ))
        )
    if merged.param_mutations:
        shared = True
        reasons.append(
            "mutates arguments it does not own: "
            + ", ".join(sorted(merged.param_mutations))
        )
    if merged.rng_global:
        shared = True
        reasons.append("draws from a global RNG")
    if merged.clock:
        shared = True
        reasons.append("reads the wall clock")
    if merged.obs_reads:
        shared = True
        reasons.append(
            "reads telemetry (obs must be write-only): "
            + ", ".join(sorted(merged.obs_reads))
        )
    if merged.set_iteration:
        shared = True
        reasons.append(
            "iterates a set (hash-order nondeterminism): "
            + ", ".join(sorted(merged.set_iteration))
        )
    if shared:
        return "shared-state", reasons

    assumptions: list[str] = []
    written_aliases = {a for a in merged.self_writes if a in aliased}
    if written_aliases:
        assumptions.append(
            "writes constructor-injected state (assumed per-instance): "
            + ", ".join(sorted(written_aliases))
        )
    if merged.opaque_calls:
        assumptions.append(
            "calls injected callables (assumed pure): "
            + ", ".join(sorted(merged.opaque_calls))
        )
    if merged.rng_injected:
        assumptions.append("draws from an injected RNG (per-instance)")
    if merged.timer_injected:
        assumptions.append("charges an injected timer")

    if not merged.self_writes and not assumptions and \
            not merged.obs_writes:
        return "pure", ["no state writes, no randomness, no injected "
                        "code"]
    if not assumptions:
        reasons = ["writes only self-constructed instance state: "
                   + ", ".join(sorted(merged.self_writes))]
        if merged.obs_writes:
            reasons.append("emits write-only telemetry")
        return "stream-local", reasons
    reasons = list(assumptions)
    if merged.self_writes:
        reasons.insert(0, "writes instance state: "
                       + ", ".join(sorted(merged.self_writes)))
    return "shard-safe", reasons


def _effects_dict(merged: FunctionSummary,
                  aliased: dict[str, str]) -> dict:
    """The manifest's machine-readable effect record (sorted, stable)."""
    rng = ("global" if merged.rng_global
           else "injected" if merged.rng_injected else None)
    obs = ("reads" if merged.obs_reads
           else "write-only" if merged.obs_writes else None)
    return {
        "aliased_writes": sorted(
            a for a in merged.self_writes if a in aliased
        ),
        "class_writes": sorted(merged.class_writes),
        "clock": merged.clock,
        "closure_writes": sorted(merged.closure_writes),
        "dict_iteration": merged.dict_iteration,
        "global_reads": sorted(merged.global_reads),
        "global_writes": sorted(merged.global_writes),
        "mutated_writes": sorted(merged.mutated_attrs),
        "obs": obs,
        "opaque_calls": sorted(merged.opaque_calls),
        "param_mutations": sorted(merged.param_mutations),
        "rng": rng,
        "self_writes": sorted(merged.self_writes),
        "set_iteration": sorted(merged.set_iteration),
        "timer": "injected" if merged.timer_injected else None,
        "unknown_calls": sorted(merged.unknown_calls),
    }


def certify_class_info(index: PackageIndex, cls: ClassInfo,
                       kind: str = "class") -> ClassCertificate:
    """Run the rollup for one indexed class."""
    engine = EffectEngine(index)
    merged = FunctionSummary()
    aliased: dict[str, str] = {}
    aliased_globals: dict[str, str] = {}
    entries: list[str] = []
    for name in ENTRY_METHODS:
        if index.find_method(cls, name) is None:
            continue
        entries.append(name)
        summary = engine.method_summary(cls, name)
        merged.merge_nonlocal(summary)
        merged.self_reads |= summary.self_reads
        merged.self_writes |= summary.self_writes
        merged.mutated_attrs |= summary.mutated_attrs
        merged.param_mutations |= {
            p for p in summary.param_mutations
            if not (name == "__init__")
        }
        merged.iterated_attrs |= summary.iterated_attrs
        aliased.update(summary.aliased_attrs)
        aliased_globals.update(summary.aliased_globals)

    # telemetry plumbing (``self.obs = obs`` in bind_obs, ``_obs_*``
    # handle caches) is not operator state — P122 polices it instead
    merged.self_writes = {a for a in merged.self_writes
                          if not is_obs_attr(a)}
    merged.mutated_attrs = {a for a in merged.mutated_attrs
                            if not is_obs_attr(a)}
    merged.self_reads = {a for a in merged.self_reads
                         if not is_obs_attr(a)}
    merged.iterated_attrs = {a for a in merged.iterated_attrs
                             if not is_obs_attr(a)}

    # resolve iterated attributes against constructor typing
    attr_types, attr_builtin = engine._attr_typing(cls)
    for root in merged.iterated_attrs:
        kind_of = attr_builtin.get(root)
        if kind_of == "set":
            merged.set_iteration.add(f"self.{root}")
        elif kind_of == "dict":
            merged.dict_iteration = True

    mutable_class_attrs = {
        name for name, value in cls.class_attrs.items()
        if value is not None and _is_mutable_class_attr(value)
    }

    inferred, why = _classify(merged, aliased, aliased_globals,
                              mutable_class_attrs)
    declared = cls.declared_effects()
    classification = inferred
    if declared is not None and declared in EFFECT_ORDER:
        if _rank(declared) > _rank(inferred):
            classification = declared
            why = [f"declared __effects__ = {declared!r} (downgrade "
                   f"from inferred {inferred!r})"] + why
        elif _rank(declared) < _rank(inferred):
            why = [f"declared __effects__ = {declared!r} IGNORED: "
                   f"inference found {inferred!r}; a declaration can "
                   "only downgrade"] + why
    return ClassCertificate(
        qualname=cls.qualname,
        kind=kind,
        classification=classification,
        inferred=inferred,
        declared=declared,
        why=why,
        effects=_effects_dict(merged, aliased),
        entry_methods=entries,
    )


def _is_mutable_class_attr(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "dict", "set", "deque",
                                "defaultdict")
    return False


# ---------------------------------------------------------------------------
# package analysis, manifest, runtime certification
# ---------------------------------------------------------------------------


@dataclass
class EffectAnalysis:
    """Certificates for every operator class of one source tree."""

    index: PackageIndex
    certificates: dict[str, ClassCertificate]
    errors: list[str]

    def get(self, qualname: str) -> ClassCertificate | None:
        return self.certificates.get(qualname)

    def manifest_dict(self) -> dict:
        """Deterministic JSON document (two runs are byte-identical)."""
        return {
            "classes": {
                name: cert.to_dict()
                for name, cert in sorted(self.certificates.items())
            },
            "errors": sorted(self.errors),
            "generated_by": "python -m repro.lint --effects",
            "package": self.index.package,
            "version": 1,
        }

    def manifest_json(self) -> str:
        return json.dumps(self.manifest_dict(), indent=2,
                          sort_keys=True) + "\n"

    def render_human(self) -> str:
        lines = ["effect certification "
                 f"({len(self.certificates)} classes):"]
        for name, cert in sorted(self.certificates.items()):
            marker = "" if cert.shardable else "  ** not shardable **"
            lines.append(f"  {name}")
            lines.append(f"    -> {cert.classification}"
                         f" [{cert.kind}]{marker}")
            for reason in cert.why:
                lines.append(f"       {reason}")
        for error in self.errors:
            lines.append(f"  analysis error: {error}")
        return "\n".join(lines)


def analyze_index(index: PackageIndex) -> EffectAnalysis:
    """Certify every StreamOperator / AdmissionFilter subclass in an
    index (plus declared-``__effects__`` classes)."""
    certificates: dict[str, ClassCertificate] = {}
    for cls in index.subclasses_of("StreamOperator"):
        certificates[cls.qualname] = certify_class_info(
            index, cls, kind="operator"
        )
    for cls in index.subclasses_of("AdmissionFilter"):
        if cls.qualname not in certificates:
            certificates[cls.qualname] = certify_class_info(
                index, cls, kind="admission"
            )
    return EffectAnalysis(
        index=index,
        certificates=certificates,
        errors=list(index.errors),
    )


_PACKAGE_CACHE: dict[str, EffectAnalysis] = {}
_EXTERNAL_CACHE: dict[tuple[str, str], ClassCertificate] = {}


def package_src_root() -> Path:
    """The ``src`` directory containing the installed ``repro`` package."""
    import repro

    return Path(repro.__file__).resolve().parent.parent


def analyze_package(src_root: str | Path | None = None,
                    refresh: bool = False) -> EffectAnalysis:
    """Certify the whole ``repro`` package (cached per source root)."""
    root = Path(src_root) if src_root is not None else package_src_root()
    key = str(root.resolve())
    if refresh or key not in _PACKAGE_CACHE:
        index = PackageIndex.build(root, "repro")
        _PACKAGE_CACHE[key] = analyze_index(index)
    return _PACKAGE_CACHE[key]


def classify_class(cls: type,
                   src_root: str | Path | None = None
                   ) -> ClassCertificate:
    """Certify a runtime class object.

    Package classes come from the cached package analysis; classes
    defined elsewhere (test operators) are analyzed from their defining
    module's source, resolved against the package index.  Classes whose
    source cannot be found certify ``unknown``.
    """
    module = cls.__module__ or ""
    qualname = f"{module}.{cls.__name__}"
    analysis = analyze_package(src_root)
    if module == "repro" or module.startswith("repro."):
        cert = analysis.get(qualname)
        if cert is not None:
            return cert
        info = analysis.index.modules.get(module)
        if info is not None and cls.__name__ in info.classes:
            return certify_class_info(analysis.index,
                                      info.classes[cls.__name__])
        return _unknown_certificate(
            qualname, f"class {qualname} not found in the package index"
        )
    key = (module, cls.__name__)
    cached = _EXTERNAL_CACHE.get(key)
    if cached is not None:
        return cached
    import inspect

    try:
        path = inspect.getsourcefile(cls)
    except TypeError:
        path = None
    if path is None:
        return _unknown_certificate(
            qualname, f"no source file for {qualname}"
        )
    info = analysis.index.modules.get(module)
    if info is None or info.path != path:
        info = analysis.index.add_file(path, module)
    if info is None or cls.__name__ not in info.classes:
        cert = _unknown_certificate(
            qualname, f"class {cls.__name__} not found in {path}"
        )
    else:
        cert = certify_class_info(analysis.index,
                                  info.classes[cls.__name__])
    _EXTERNAL_CACHE[key] = cert
    return cert


def _unknown_certificate(qualname: str, reason: str) -> ClassCertificate:
    return ClassCertificate(
        qualname=qualname,
        kind="class",
        classification="unknown",
        inferred="unknown",
        declared=None,
        why=[reason],
        effects={},
        entry_methods=[],
    )
