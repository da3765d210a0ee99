"""Object-graph walker shared by rule P124 and the determinism sanitizer.

Both checks need the same view of an operator's *state graph*: every
object reachable from its instance attributes, each labelled with the
dotted path it was reached through (``windows[2]._seq``).  P124 uses
it at plan-build time to find containers reachable from two shard
instances; :class:`repro.testkit.sanitizer.DeterminismSanitizer` asks
the same question at ``seal()`` and fingerprints the graph between
calls to attribute any foreign change to a path.  Both ask
:func:`shared_containers`, so they name the same objects and paths.

Traversal rules (identical for both users):

* roots are ``vars(operator)`` minus telemetry plumbing (``obs``,
  ``_obs_*`` — write-only, and policed at the fork by P126) and the
  sanitizer's own handle;
* containers (dict/list/tuple/set/frozenset) and plain Python objects
  (``__dict__`` or relevant ``__slots__``) are entered; dict iteration
  is sorted by ``repr`` of the key so reports and fingerprints are
  deterministic;
* callables are *recorded* (by qualname) but never entered — an injected
  predicate's closure is the predicate author's business, and entering
  it would drag in module globals;
* numpy arrays, bytearrays, memoryviews and deques are mutable leaves;
* strings/numbers/None/bool are immutable and invisible to aliasing
  (interning would produce false sharing).

Sharing is flagged only where a write lands: a *container or array*
(list, dict, set, deque, ndarray, bytearray, memoryview).  Plain objects
on the way are walked through but not flagged, so one predicate object
serving every shard is fine; a write through a shared plain object
shows up as a foreign write on the victim's side of the sanitizer.

Fingerprints are CRC32 over a canonical structural repr — content-based,
never ``id()``-based, so two runs of the same simulation produce
identical fingerprints (the sanitizer's reports stay deterministic).
An array contributes its shape, dtype and a CRC of its whole buffer —
except an object array, whose buffer is pointers: its elements are
rendered one by one, as a list's are.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Iterator, Sequence

#: instance-attribute roots excluded from the walk: telemetry plumbing
#: and the sanitizer's own handle (testkit wrappers share one sanitizer
#: by design)
EXCLUDED_ROOTS = ("obs", "_sanitizer")


def is_excluded_root(name: str) -> bool:
    return name in EXCLUDED_ROOTS or name.startswith("_obs")


#: containers entered by the walk
_CONTAINERS = (list, tuple, set, frozenset)

#: mutable leaf types (tracked for aliasing, not entered)
_MUTABLE_LEAVES = ("ndarray", "bytearray", "memoryview", "deque")

#: traversal guard: state graphs are shallow; anything deeper is a cycle
#: missed by the visited set or a pathological structure
_MAX_DEPTH = 12

_PRIMITIVES = (str, int, float, complex, bool, bytes, type(None))


def is_mutable(obj: Any) -> bool:
    """Whether sharing ``obj`` across shards could leak writes."""
    if isinstance(obj, _PRIMITIVES):
        return False
    if isinstance(obj, (tuple, frozenset)):
        return False
    if callable(obj):
        return False
    if is_dataclass(obj) and not isinstance(obj, type):
        params = getattr(type(obj), "__dataclass_params__", None)
        if params is not None and params.frozen:
            # frozen all the way down (e.g. a WindowPolicy) is a value,
            # not state — sharing it cannot leak writes
            return any(
                is_mutable(getattr(obj, f.name)) for f in fields(obj)
            )
    return True


def _instance_attrs(obj: Any) -> dict[str, Any]:
    """``__dict__`` plus ``__slots__`` entries, across the MRO."""
    attrs: dict[str, Any] = {}
    inner = getattr(obj, "__dict__", None)
    if isinstance(inner, dict):
        attrs.update(inner)
    for klass in type(obj).__mro__:
        slots = getattr(klass, "__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name not in attrs and hasattr(obj, name):
                attrs[name] = getattr(obj, name)
    return attrs


def state_roots(operator: Any) -> dict[str, Any]:
    """The operator's instance attributes, telemetry plumbing removed."""
    return {
        name: value
        for name, value in _instance_attrs(operator).items()
        if not is_excluded_root(name)
    }


@dataclass(frozen=True)
class StateNode:
    """One reachable object: its path, the object, and its root attr."""

    path: str
    root: str
    obj: Any


def _sorted_items(d: dict) -> list[tuple[Any, Any]]:
    try:
        return sorted(d.items(), key=lambda kv: repr(kv[0]))
    except Exception:
        return list(d.items())


def iter_state(operator: Any,
               include_telemetry: bool = False) -> Iterator[StateNode]:
    """Yield every reachable object of the operator's state graph,
    depth-first, each exactly once (first path wins).

    ``include_telemetry`` also walks the ``obs``/``_obs*`` (and other
    excluded) roots the aliasing rules deliberately skip — rule P126
    uses it to certify that a worker-bound operator reaches *no*
    telemetry object at all before the fork.
    """
    seen: set[int] = set()

    def walk(obj: Any, path: str, root: str,
             depth: int) -> Iterator[StateNode]:
        if isinstance(obj, _PRIMITIVES):
            return
        if id(obj) in seen or depth > _MAX_DEPTH:
            return
        seen.add(id(obj))
        yield StateNode(path=path, root=root, obj=obj)
        if callable(obj) and not isinstance(obj, type):
            return
        if isinstance(obj, dict):
            for key, value in _sorted_items(obj):
                yield from walk(value, f"{path}[{key!r}]", root,
                                depth + 1)
            return
        if isinstance(obj, _CONTAINERS):
            if isinstance(obj, (set, frozenset)):
                try:
                    elements = sorted(obj, key=repr)
                except Exception:
                    elements = list(obj)
                for element in elements:
                    yield from walk(element, f"{path}{{...}}", root,
                                    depth + 1)
            else:
                for i, element in enumerate(obj):
                    yield from walk(element, f"{path}[{i}]", root,
                                    depth + 1)
            return
        if type(obj).__name__ in _MUTABLE_LEAVES:
            return
        inner = _instance_attrs(obj)
        if inner:
            for name, value in _sorted_items(inner):
                if include_telemetry or not is_excluded_root(name):
                    yield from walk(value, f"{path}.{name}", root,
                                    depth + 1)

    roots = (
        _instance_attrs(operator)
        if include_telemetry
        else state_roots(operator)
    )
    for name, value in sorted(roots.items()):
        yield from walk(value, name, name, 0)


def is_telemetry_object(obj: Any) -> bool:
    """Whether ``obj`` belongs to the telemetry plane — any instance of
    a class defined in the ``repro.obs`` package (``Obs``, registries,
    instruments, span/flight recorders, delta shippers...)."""
    module = type(obj).__module__
    return module == "repro.obs" or module.startswith("repro.obs.")


@dataclass
class SharedObject:
    """One object aliased across operator instances."""

    type_name: str
    #: owner index -> path inside that owner
    paths: dict[int, str]

    def render(self) -> str:
        where = ", ".join(
            f"op[{k}].{p}" for k, p in sorted(self.paths.items())
        )
        return f"{self.type_name} shared at {where}"

    def sites(self, labels: Sequence[str]) -> list[str]:
        """``label.path`` of every owner, in owner order."""
        return [f"{labels[k]}.{p}" for k, p in sorted(self.paths.items())]


def is_container(obj: Any) -> bool:
    """Whether ``obj`` is where a write lands: a list, dict, set, deque,
    array, bytearray or memoryview."""
    return (isinstance(obj, (list, dict, set))
            or type(obj).__name__ in _MUTABLE_LEAVES)


def shared_containers(operators: Sequence[Any]) -> list[SharedObject]:
    """Containers and arrays reachable from two or more of the operators.

    Sharing an immutable object (a tuple of window sizes, an interned
    string) or a read-only collaborator is invisible to execution;
    sharing a container means one shard's write is another shard's
    state change.  One instance handed to two owners shares every
    container it holds.
    """
    owners: dict[int, tuple[Any, dict[int, str]]] = {}
    for index, operator in enumerate(operators):
        for node in iter_state(operator):
            if not is_container(node.obj):
                continue
            entry = owners.get(id(node.obj))
            if entry is None:
                owners[id(node.obj)] = (node.obj, {index: node.path})
            else:
                entry[1].setdefault(index, node.path)
    shared = [
        SharedObject(type_name=type(obj).__name__, paths=paths)
        for obj, paths in owners.values()
        if len(paths) >= 2
    ]
    return sorted(shared, key=lambda s: min(s.paths.values()))


# ---------------------------------------------------------------------------
# structural fingerprints (the sanitizer's change detector)
# ---------------------------------------------------------------------------


def _canonical(obj: Any, depth: int = 0,
               seen: frozenset | None = None) -> str:
    if seen is None:
        seen = frozenset()
    if depth > _MAX_DEPTH or id(obj) in seen:
        return "<cycle>"
    if isinstance(obj, _PRIMITIVES):
        return repr(obj)
    seen = seen | {id(obj)}
    if callable(obj) and not isinstance(obj, type):
        return f"<callable {getattr(obj, '__qualname__', type(obj).__name__)}>"
    if isinstance(obj, dict):
        inner = ",".join(
            f"{key!r}:{_canonical(value, depth + 1, seen)}"
            for key, value in _sorted_items(obj)
        )
        return "{" + inner + "}"
    if isinstance(obj, (set, frozenset)):
        try:
            elements = sorted(obj, key=repr)
        except Exception:
            elements = list(obj)
        inner = ",".join(
            _canonical(element, depth + 1, seen) for element in elements
        )
        return "set{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        inner = ",".join(
            _canonical(element, depth + 1, seen) for element in obj
        )
        return ("[" if isinstance(obj, list) else "(") + inner + (
            "]" if isinstance(obj, list) else ")")
    if type(obj).__name__ == "ndarray":
        if obj.dtype == object:
            flat = obj.ravel().tolist()
            return f"array{obj.shape}:{_canonical(flat, depth + 1, seen)}"
        return f"array{obj.shape}:{obj.dtype}:{zlib.crc32(obj.tobytes())}"
    inner_dict = _instance_attrs(obj)
    if inner_dict:
        inner = ",".join(
            f"{name}={_canonical(value, depth + 1, seen)}"
            for name, value in _sorted_items(inner_dict)
            if not is_excluded_root(name)
        )
        return f"<{type(obj).__name__} {inner}>"
    return f"<{type(obj).__name__}>"


def fingerprint(obj: Any) -> int:
    """Deterministic structural CRC of one object (content, not id)."""
    return zlib.crc32(_canonical(obj).encode("utf-8", "replace"))
