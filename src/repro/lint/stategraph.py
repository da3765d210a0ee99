"""The one walk over an operator's state graph, read by rules P124 and
P126 and by the determinism sanitizer.

The state graph is every object reachable from an operator's instance
attributes, each labelled with the dotted path it was reached through
(``windows[2]._seq``) and given a hash.  :func:`walk_state` is that
walk; :func:`fingerprint` is the same walk over one object.  P124 and
the sanitizer's ``seal()`` ask :func:`shared_containers`, so they name
the same objects and paths; the sanitizer compares the per-path hashes
between calls to pin any foreign change to a path.

Traversal rules (written once, in :class:`_Walk`):

* roots are ``vars(operator)`` minus telemetry plumbing (``obs``,
  ``_obs*`` — write-only, and policed at the fork by P126; the rule is
  :func:`repro.engine.operator.is_telemetry_attr`) and the sanitizer's
  own handle;
* containers (dict/list/tuple/set/frozenset) and plain Python objects
  (``__dict__`` or relevant ``__slots__``) are entered; dict keys,
  attribute names and set elements are sorted by ``repr``, so reports
  and hashes are deterministic;
* each object is recorded once, in preorder, under the first path that
  reaches it;
* callables are recorded (by qualname) but never entered — an injected
  predicate's closure is the predicate author's business, and entering
  it would drag in module globals; a class is recorded by its name;
* numpy arrays, bytearrays, memoryviews and deques are mutable leaves:
  recorded, never entered, hashed by their contents;
* strings/numbers/None/bool are immutable and invisible to aliasing
  (interning would produce false sharing).

Sharing is flagged only where a write lands: a *container or array*
(list, dict, set, deque, ndarray, bytearray, memoryview).  Plain objects
on the way are walked through but not flagged, so one predicate object
serving every shard is fine; a write through a shared plain object
shows up as a foreign write on the victim's side of the sanitizer.

Hashes are Merkle style: a CRC32 over the object's type, the ``repr``
of its primitive members and its children's hashes, memoised by ``id``
for one pass, so a write changes the hash of its object and of every
ancestor.  They are content, never ``id()``, so two runs of the same
simulation hash identically.  An array contributes its shape, dtype and
a CRC of its whole buffer — except an object array, whose buffer is
pointers: its elements are hashed one by one, as a deque's are.  A
column store (an object with a ``live_rows`` property, i.e. a
:class:`~repro.core.basic_windows.PartitionedWindow`) holds state only
in its live rows: the slack past its tail is ``np.empty`` and written
before it is read, so each of the store's arrays is hashed over
``live_rows`` alone.  Each array is still its own node, so aliasing is
seen as before.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields, is_dataclass
from functools import cache
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.engine.operator import is_telemetry_attr


def is_excluded_root(name: str) -> bool:
    """Attribute names the walk skips: telemetry plumbing (the one rule
    :func:`repro.engine.operator.is_telemetry_attr`, which pickling an
    operator also follows) and the sanitizer's own handle (testkit
    wrappers share one sanitizer by design)."""
    return name == "_sanitizer" or is_telemetry_attr(name)


#: mutable leaf types (tracked for aliasing, contents hashed, not entered)
_MUTABLE_LEAVES = ("ndarray", "bytearray", "memoryview", "deque")

#: traversal guard: state graphs are shallow; anything deeper is a cycle
#: missed by the visited set or a pathological structure
_MAX_DEPTH = 12

_PRIMITIVES = (str, int, float, complex, bool, bytes, type(None))


def is_mutable(obj: Any) -> bool:
    """Whether sharing ``obj`` across shards could leak writes."""
    if isinstance(obj, (*_PRIMITIVES, tuple, frozenset)) or callable(obj):
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


_UNSET = object()


@cache
def _slot_names(cls: type) -> tuple[str, ...]:
    """Every ``__slots__`` name across ``cls``'s MRO, sorted by repr."""
    names: dict[str, None] = {}
    for klass in cls.__mro__:
        slots = getattr(klass, "__slots__", ())
        names.update(dict.fromkeys((slots,) if isinstance(slots, str)
                                   else slots))
    return tuple(sorted(names, key=repr))


@cache
def _is_store(cls: type) -> bool:
    """Whether ``cls`` is a column store: it has a ``live_rows``
    property, ``(head, tail)``, outside which its arrays hold no state."""
    return isinstance(getattr(cls, "live_rows", None), property)


def _sorted(items: Iterable[Any], key: Callable[[Any], str]) -> list[Any]:
    try:
        return sorted(items, key=key)
    except Exception:
        return list(items)


def _crc(text: str) -> int:
    return zlib.crc32(text.encode("utf-8", "replace"))


@dataclass
class StateNode:
    """One reachable object: its path, the object, and the Merkle hash
    of everything below it."""

    path: str
    obj: Any
    digest: int = 0


class _Walk:
    """One pass: the preorder node list and an ``id``-memoised Merkle
    hash of every object reached.  ``record`` is false below a mutable
    leaf (contents are hashed, not given paths) and in
    :func:`fingerprint`."""

    def __init__(self, include_telemetry: bool = False) -> None:
        self.include_telemetry = include_telemetry
        self.nodes: list[StateNode] = []
        self._seen: set[int] = set()    # ids recorded (first path wins)
        self._memo: dict[int, int] = {}  # id -> hash, this pass only
        self._open: set[int] = set()    # ids on the descent: cycles
        self._live: dict[int, slice] = {}  # id -> a store column's rows

    def token(self, obj: Any, path: str, depth: int,
              record: bool = True) -> str:
        """``obj``'s part of its parent's hash: the ``repr`` of a
        primitive, else ``#`` and the object's hash."""
        if isinstance(obj, _PRIMITIVES):
            return repr(obj)
        key = id(obj)
        record = record and key not in self._seen and depth <= _MAX_DEPTH
        if record:
            self._seen.add(key)
            self.nodes.append(node := StateNode(path=path, obj=obj))
        elif key in self._memo:
            return f"#{self._memo[key]}"
        elif key in self._open or depth > _MAX_DEPTH:
            return "<cycle>"
        self._open.add(key)
        digest = _crc(self._render(obj, path, depth + 1, record))
        self._open.discard(key)
        self._memo[key] = digest
        if record:
            node.digest = digest
        return f"#{digest}"

    def _render(self, obj: Any, path: str, depth: int, record: bool) -> str:
        """The text hashed for ``obj``: its type and members' tokens."""
        name = type(obj).__name__
        if isinstance(obj, type):
            return f"<class {obj.__module__}.{obj.__qualname__}>"
        if callable(obj):
            return f"<callable {getattr(obj, '__qualname__', name)}>"
        if name in _MUTABLE_LEAVES:
            return f"{name}:{self._contents(obj, depth)}"
        members = self._members(obj)
        if _is_store(type(obj)):
            members = list(members)
            rows = slice(*obj.live_rows)
            self._live.update((id(value), rows) for _, _, value in members
                              if type(value).__name__ == "ndarray")
        return f"<{name} " + ",".join(
            label + (repr(value) if isinstance(value, _PRIMITIVES) else
                     self.token(value, path + step, depth, record))
            for label, step, value in members
        ) + ">"

    def _members(self, obj: Any) -> Iterator[tuple[str, str, Any]]:
        """``(label, path step, child)`` for each child entered, in
        walk order."""
        if isinstance(obj, dict):
            for key, value in _sorted(obj.items(), lambda kv: repr(kv[0])):
                key = repr(key)
                yield f"{key}:", f"[{key}]", value
        elif isinstance(obj, (set, frozenset)):
            for element in _sorted(obj, repr):
                yield "", "{...}", element
        elif isinstance(obj, (list, tuple)):
            for i, element in enumerate(obj):
                yield "", f"[{i}]", element
        else:
            for attr, value in self.attrs(obj):
                yield f"{attr}=", f".{attr}", value

    def attrs(self, obj: Any) -> list[tuple[str, Any]]:
        """``__dict__`` plus set ``__slots__`` entries across the MRO,
        sorted by ``repr`` of the name; names :func:`is_excluded_root`
        rejects are dropped unless the walk includes telemetry."""
        attrs = [
            (name, value) for name in _slot_names(type(obj))
            if (value := getattr(obj, name, _UNSET)) is not _UNSET
        ]
        inner = getattr(obj, "__dict__", None)
        if isinstance(inner, dict):
            attrs = _sorted({**dict(attrs), **inner}.items(),
                            lambda kv: repr(kv[0]))
        if self.include_telemetry:
            return attrs
        return [(n, v) for n, v in attrs if not is_excluded_root(n)]

    def _contents(self, leaf: Any, depth: int) -> str:
        """A mutable leaf's contents: a CRC of its buffer, or else its
        elements' tokens (an object array's buffer is pointers); a store
        column's over its live rows only."""
        if isinstance(leaf, (bytearray, memoryview)):
            return str(zlib.crc32(bytes(leaf)))
        head, elements = "", leaf
        if type(leaf).__name__ == "ndarray":
            if (rows := self._live.get(id(leaf))) is not None:
                head, leaf = f"{leaf.shape}:", leaf[rows]
            if leaf.dtype != object:
                return (f"{head}{leaf.shape}:{leaf.dtype}:"
                        f"{zlib.crc32(leaf.tobytes())}")
            head, elements = f"{head}{leaf.shape}:", leaf.ravel()
        return head + ",".join(
            repr(element) if isinstance(element, _PRIMITIVES)
            else self.token(element, "", depth, False)
            for element in elements
        )


def walk_state(operator: Any,
               include_telemetry: bool = False) -> list[StateNode]:
    """Every reachable object of the operator's state graph, in preorder,
    each exactly once (first path wins), with its hash.

    ``include_telemetry`` also walks the ``obs``/``_obs*`` (and other
    excluded) roots the aliasing rules deliberately skip — rule P126
    uses it to certify that a worker-bound operator reaches *no*
    telemetry object at all before the fork.
    """
    walk = _Walk(include_telemetry)
    for name, value in walk.attrs(operator):
        walk.token(value, name, 0)
    return walk.nodes


def fingerprint(obj: Any) -> int:
    """The walk's hash of one object (content, never ``id()``)."""
    return _crc(_Walk().token(obj, "", 0, record=False))


def is_telemetry_object(obj: Any) -> bool:
    """Whether ``obj`` belongs to the telemetry plane — any instance of
    a class defined in the ``repro.obs`` package (``Obs``, registries,
    instruments, span/flight recorders...)."""
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
        for node in walk_state(operator):
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
