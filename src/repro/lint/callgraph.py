"""Package-wide AST index and call graph for the effect-inference pass.

The effect certifier (:mod:`repro.lint.effects`) needs a *whole-package*
view that the per-file rules of :mod:`repro.lint.rules` deliberately
avoid: which classes exist, what their bases are, which module-level
names are mutable state, and — for every function body — which package
entity each call site resolves to.  This module builds that view once
per source tree and caches it.

Resolution is deliberately conservative and syntactic:

* imports are followed through ``import x as y`` / ``from x import y``
  aliases by :class:`repro.lint.rules.RuleContext`'s own collector and
  resolver;
* base classes are resolved within the package only — ``ABC``,
  ``Protocol`` and other stdlib bases terminate the MRO walk;
* attribute types are inferred from *constructor assignments only*
  (``self.x = ClassName(...)`` in ``__init__``, including the
  ``self.xs = [ClassName(...) for ...]`` element form) — good enough to
  follow the repo's idiom of building owned sub-objects in ``__init__``;
* anything unresolved is reported as such, never guessed.

External modules (test files defining their own operators) can be added
to an index with :meth:`PackageIndex.add_file`; their imports of package
modules resolve against the already-indexed package.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from .rules import RuleContext, collect_imports

#: base-class names that terminate MRO resolution without a finding
_EXTERNAL_BASES = {
    "ABC", "object", "Protocol", "Enum", "Exception", "ValueError",
    "TypeError", "RuntimeError", "NamedTuple",
}

#: calls producing mutable containers, for module-global classification
_MUTABLE_FACTORIES = {
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "Counter", "OrderedDict",
}


def _is_mutable_module_value(node: ast.AST) -> bool:
    """Whether a module-level assignment's value is shared mutable state.

    Literals of mutable containers, comprehensions and calls count;
    plain constants, tuples of constants and ``frozenset`` do not.
    Unknown calls (``logging.getLogger(...)``) count as mutable objects —
    reads of them are benign, but writes through them are shared state.
    """
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", "")
        if name == "frozenset":
            return False
        return True
    return False


@dataclass
class ClassInfo:
    """One class definition inside the index."""

    name: str
    module: str
    node: ast.ClassDef
    #: base expressions as dotted source text (unresolved)
    bases: list[str] = field(default_factory=list)
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: class-body assignments name -> value node (declared attributes)
    class_attrs: dict[str, ast.AST] = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}"

    def declared_effects(self) -> str | None:
        """The class's ``__effects__`` declaration, if any (a downgrade
        cap: a class may *declare* a worse classification than inference
        finds, never a better one)."""
        node = self.class_attrs.get("__effects__")
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None


@dataclass
class ModuleInfo:
    """One parsed module inside the index."""

    name: str
    path: str
    tree: ast.Module
    #: ``alias -> module`` from ``import x [as y]``
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: ``local name -> (module, original)`` from ``from x import y``
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: module-level names bound to mutable objects (shared state)
    mutable_globals: set[str] = field(default_factory=set)
    #: every module-level binding (mutable or not)
    globals_all: set[str] = field(default_factory=set)

    #: dotted names resolve through the alias tables exactly as the
    #: per-file rules resolve them
    resolve = RuleContext.resolve


def _index_module(name: str, source: str, path: str) -> ModuleInfo:
    tree = ast.parse(source, filename=path)
    info = ModuleInfo(name=name, path=path, tree=tree)
    collect_imports(tree, info)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[node.name] = node
            info.globals_all.add(node.name)
        elif isinstance(node, ast.ClassDef):
            cls = ClassInfo(name=node.name, module=name, node=node)
            for base in node.bases:
                cls.bases.append(ast.unparse(base))
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    cls.methods[stmt.name] = stmt
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            cls.class_attrs[target.id] = stmt.value
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name):
                    cls.class_attrs[stmt.target.id] = stmt.value
            info.classes[node.name] = cls
            info.globals_all.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    info.globals_all.add(target.id)
                    if _is_mutable_module_value(node.value):
                        info.mutable_globals.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name):
            info.globals_all.add(node.target.id)
            if node.value is not None and _is_mutable_module_value(
                    node.value):
                info.mutable_globals.add(node.target.id)
    return info


class PackageIndex:
    """All modules of one package, with name-resolution helpers."""

    def __init__(self, package: str = "repro") -> None:
        self.package = package
        self.modules: dict[str, ModuleInfo] = {}
        self.errors: list[str] = []

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, src_root: str | Path,
              package: str = "repro") -> "PackageIndex":
        """Index every ``.py`` file under ``src_root/<package>``."""
        index = cls(package)
        root = Path(src_root) / package
        for file in sorted(root.rglob("*.py")):
            rel = file.relative_to(root).with_suffix("")
            parts = [package, *rel.parts]
            if parts[-1] == "__init__":
                parts = parts[:-1]
            index.add_file(file, ".".join(parts))
        return index

    def add_file(self, path: str | Path,
                 module_name: str | None = None) -> ModuleInfo | None:
        """Parse and index one file (package module or external)."""
        path = Path(path)
        if module_name is None:
            module_name = path.stem
        try:
            source = path.read_text(encoding="utf-8")
            info = _index_module(module_name, source, str(path))
        except (OSError, SyntaxError) as exc:
            self.errors.append(f"{path}: {exc}")
            return None
        self.modules[module_name] = info
        return info

    def add_source(self, source: str, module_name: str,
                   path: str = "<string>") -> ModuleInfo:
        """Index an in-memory module (tests)."""
        info = _index_module(module_name, source, path)
        self.modules[module_name] = info
        return info

    # -- resolution ----------------------------------------------------

    def resolve_class(self, module: ModuleInfo,
                      name: str) -> ClassInfo | None:
        """Resolve a (possibly dotted / imported) class name from the
        viewpoint of ``module``."""
        if "." in name:
            head, _, tail = name.partition(".")
            target = module.module_aliases.get(head)
            if target is not None:
                info = self.modules.get(target)
                if info is not None and "." not in tail:
                    return info.classes.get(tail)
                # ``alias.sub.Class``: try progressively longer modules
                full = f"{target}.{tail}"
                mod_name, _, cls_name = full.rpartition(".")
                info = self.modules.get(mod_name)
                if info is not None:
                    return info.classes.get(cls_name)
            return None
        if name in module.classes:
            return module.classes[name]
        imported = module.from_imports.get(name)
        if imported is not None:
            mod_name, original = imported
            info = self.modules.get(mod_name)
            if info is not None and original in info.classes:
                return info.classes[original]
            # ``from repro.core import GrubJoinOperator`` via __init__
            # re-export: search the subpackage's modules
            for cand_name, cand in self.modules.items():
                if cand_name.startswith(mod_name + ".") and \
                        original in cand.classes:
                    return cand.classes[original]
        return None

    def resolve_function(self, module: ModuleInfo,
                         name: str) -> tuple[ModuleInfo, ast.FunctionDef] | None:
        """Resolve a module-level function name from ``module``'s view."""
        if name in module.functions:
            return module, module.functions[name]
        imported = module.from_imports.get(name)
        if imported is not None:
            mod_name, original = imported
            info = self.modules.get(mod_name)
            if info is not None and original in info.functions:
                return info, info.functions[original]
            for cand_name, cand in self.modules.items():
                if cand_name.startswith(mod_name + ".") and \
                        original in cand.functions:
                    return cand, cand.functions[original]
        return None

    def mro(self, cls: ClassInfo) -> list[ClassInfo]:
        """Package-internal linearization (left-to-right, depth-first,
        duplicates dropped).  External bases are skipped."""
        out: list[ClassInfo] = []
        seen: set[str] = set()

        def visit(c: ClassInfo) -> None:
            if c.qualname in seen:
                return
            seen.add(c.qualname)
            out.append(c)
            module = self.modules.get(c.module)
            if module is None:
                return
            for base in c.bases:
                if base.split("[")[0] in _EXTERNAL_BASES:
                    continue
                resolved = self.resolve_class(module, base)
                if resolved is not None:
                    visit(resolved)

        visit(cls)
        return out

    def find_method(self, cls: ClassInfo,
                    name: str) -> tuple[ClassInfo, ast.FunctionDef] | None:
        """MRO lookup of a method."""
        for owner in self.mro(cls):
            if name in owner.methods:
                return owner, owner.methods[name]
        return None

    def subclasses_of(self, base_name: str) -> list[ClassInfo]:
        """Every indexed class whose MRO contains a class named
        ``base_name`` (the base itself excluded).  Sorted by qualname
        for deterministic output."""
        found = []
        for module in self.modules.values():
            for cls in module.classes.values():
                names = {c.name for c in self.mro(cls)} - {cls.name}
                if base_name in names:
                    found.append(cls)
        return sorted(found, key=lambda c: c.qualname)

    def is_mutable_global(self, module: ModuleInfo, name: str) -> bool:
        """Whether ``name`` in ``module`` is (or resolves, through a
        ``from``-import, to) a module-level mutable binding."""
        if name in module.mutable_globals:
            return True
        imported = module.from_imports.get(name)
        if imported is not None:
            mod_name, original = imported
            info = self.modules.get(mod_name)
            if info is not None:
                return original in info.mutable_globals
        return False
