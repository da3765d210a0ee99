"""Runtime determinism sanitizer: shard safety checked on live objects.

:class:`DeterminismSanitizer` shadow-tracks registered operators through
:class:`SanitizedOperator` proxies and hard-fails when state an operator
owns, or state every operator shares, changes behind its back:

* **aliasing** — at :meth:`seal`, no container or array may be
  reachable from two registered operators (rule P124's question, asked
  through the same :func:`repro.lint.stategraph.shared_containers`, so
  both name the same object and paths; sharing a read-only collaborator
  object is fine);
* **foreign writes** — one walk over an operator's state
  (:func:`repro.lint.stategraph.walk_state`) hashes it path by path at
  :meth:`seal`, after every ``stride``-th of its calls, and again before
  the call that follows.  State that changed in between changed while
  the operator was not running: it is reported with the victim path
  and the operators that ran in between.  A write through an object two
  operators share shows up on the victim's side;
* **globals** — the mutable module-level bindings of the loaded
  ``repro.{core,engine,joins,streams,parallel}`` modules and of each
  registered operator's defining module, and the class-level attributes
  of each registered operator's classes (its MRO up to
  :class:`StreamOperator`), are fingerprinted at :meth:`seal` and
  re-checked at :meth:`finish`: a run must leave state every instance
  shares as it found it.  Bindings to the sanitizer itself, to a
  registered operator or to its proxy are skipped: they are this
  sanitizer's bookkeeping and the operators' own state.

Every hash comes from that one walk, a Merkle hash of content (never
``id()``), so two runs of the same workload produce identical reports.
A walk is O(state) and an operator is walked twice per ``stride`` of
its calls: ``stride=1`` checks every gap between calls (the
injected-violation tests), the matrix default keeps overhead modest.
"""

from __future__ import annotations

import sys
import types
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.engine.operator import ProcessReceipt, StreamOperator
from repro.lint.stategraph import (
    fingerprint,
    is_mutable,
    shared_containers,
    walk_state,
)

#: top-level subpackages whose module globals the sanitizer snapshots
_GLOBAL_SNAPSHOT_PACKAGES = ("core", "engine", "joins", "streams",
                             "parallel")

#: module-global names excluded from the snapshot (logging handles get
#: reconfigured by test harnesses; they are not simulator state)
_GLOBAL_EXCLUDE = ("logger",)


class DeterminismViolation(AssertionError):
    """The run wrote state an operator does not own."""


def _fingerprint_paths(operator: Any) -> dict[str, int]:
    """path -> hash for every mutable reachable object, from one walk."""
    return {
        node.path: node.digest
        for node in walk_state(operator)
        if is_mutable(node.obj)
    }


def _is_shared_state(name: str, value: Any) -> bool:
    """A module or class binding holding data (not code) a write can
    change."""
    return (
        not name.startswith("__")
        and name not in _GLOBAL_EXCLUDE
        and not isinstance(value, types.ModuleType)
        and is_mutable(value)
    )


@dataclass
class _Record:
    """Shadow state for one registered operator."""

    label: str
    operator: Any
    calls: int = 0
    #: path -> hash at seal or after the last sampled own call; None
    #: once an unsampled own call may have changed it
    prints: dict[str, int] | None = None


class DeterminismSanitizer:
    """Hard-fails on writes to state an operator does not own.

    Args:
        stride: fingerprint after every Nth call per operator and again
            before the next one (1 = every gap, exact provenance).
    """

    def __init__(self, stride: int = 64) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.stride = int(stride)
        self._records: dict[str, _Record] = {}
        self._sealed = False
        self._finished = False
        self._violations: list[str] = []
        #: recent completed calls, for blaming foreign writes
        self._recent_calls: deque[str] = deque(maxlen=32)
        #: scope -> (kind, namespace) of the state every instance shares
        self._spaces: dict[str, tuple[str, Any]] = {}
        self._global_prints: dict[tuple[str, str], int] = {}

    # -- registration ----------------------------------------------------

    def wrap(self, label: str,
             operator: StreamOperator) -> "SanitizedOperator":
        """Register ``operator`` and return the tracking proxy."""
        self.register(label, operator)
        return SanitizedOperator(self, label, operator)

    def register(self, label: str, operator: Any) -> None:
        if self._sealed:
            raise RuntimeError("sanitizer already sealed")
        if label in self._records:
            raise ValueError(f"duplicate sanitizer label {label!r}")
        self._records[label] = _Record(label=label, operator=operator)

    def seal(self) -> None:
        """Freeze registration: run the aliasing check, snapshot state."""
        if self._sealed:
            return
        self._sealed = True
        labels = list(self._records)
        for shared in shared_containers(
            [record.operator for record in self._records.values()]
        ):
            self._violations.append(
                f"aliasing: one mutable {shared.type_name} is "
                f"reachable from {len(shared.paths)} operators "
                f"({shared.render()}) at "
                f"{', '.join(shared.sites(labels))}; every operator "
                "must own its containers"
            )
        for record in self._records.values():
            record.prints = _fingerprint_paths(record.operator)
        self._spaces = self._shared_namespaces()
        self._global_prints = self._snapshot_globals()

    # -- per-call hooks --------------------------------------------------

    def before_call(self, label: str) -> None:
        """State changed since the operator's last sampled call changed
        while it was not running."""
        if not self._sealed:
            self.seal()
        record = self._records[label]
        if record.prints is not None:
            self._diff_foreign(record, _fingerprint_paths(record.operator))
            record.prints = None

    def after_call(self, label: str) -> None:
        record = self._records[label]
        record.calls += 1
        if record.calls % self.stride == 0:
            record.prints = _fingerprint_paths(record.operator)
        self._recent_calls.append(label)

    def _diff_foreign(self, record: _Record,
                      current: dict[str, int]) -> None:
        old = record.prints
        changed = sorted(
            {p for p, h in current.items() if old.get(p) != h}
            | (old.keys() - current.keys())
        )
        if not changed:
            return
        ran_between = [
            l for l in self._recent_calls if l != record.label
        ]
        suspects = (
            ", ".join(dict.fromkeys(reversed(ran_between)))
            or "<no other operator ran>"
        )
        self._violations.append(
            f"foreign write: state of {record.label} "
            f"({type(record.operator).__qualname__}) changed while it "
            "was not running — write site(s): "
            + ", ".join(f"{record.label}.{p}" for p in changed[:5])
            + (f" (+{len(changed) - 5} more)" if len(changed) > 5
               else "")
            + f"; operators that ran in between: {suspects}"
        )

    # -- module and class state ------------------------------------------

    def _shared_namespaces(self) -> dict[str, tuple[str, Any]]:
        spaces: dict[str, tuple[str, Any]] = {}
        for name in sorted(sys.modules):
            parts = name.split(".")
            module = sys.modules.get(name)
            if (module is not None and parts[0] == "repro"
                    and len(parts) > 1
                    and parts[1] in _GLOBAL_SNAPSHOT_PACKAGES):
                spaces[name] = ("module-global", vars(module))
        for record in self._records.values():
            cls = type(record.operator)
            module = sys.modules.get(cls.__module__)
            if module is not None:
                spaces[cls.__module__] = ("module-global", vars(module))
            for klass in cls.__mro__:
                if klass is StreamOperator or klass is object:
                    break
                spaces[f"{klass.__module__}.{klass.__qualname__}"] = (
                    "class-attribute", vars(klass)
                )
        return spaces

    def _is_own(self, value: Any) -> bool:
        """This sanitizer, a registered operator or its proxy."""
        if isinstance(value, SanitizedOperator):
            value = value._sanitizer
        return value is self or any(
            value is r.operator for r in self._records.values())

    def _snapshot_globals(self) -> dict[tuple[str, str], int]:
        return {
            (scope, name): fingerprint(value)
            for scope, (_kind, space) in self._spaces.items()
            for name, value in list(space.items())
            if _is_shared_state(name, value) and not self._is_own(value)
        }

    # -- teardown --------------------------------------------------------

    def finish(self) -> None:
        """Final sweep; raises :class:`DeterminismViolation` on problems."""
        if self._finished:
            return
        self._finished = True
        if not self._sealed:
            self.seal()
        for record in self._records.values():
            if record.prints is not None:
                self._diff_foreign(
                    record, _fingerprint_paths(record.operator)
                )
        current = self._snapshot_globals()
        for key in sorted(self._global_prints):
            if current.get(key) != self._global_prints[key]:
                scope, name = key
                self._violations.append(
                    f"{self._spaces[scope][0]} write: {scope}.{name} "
                    "changed during the run; state every instance "
                    "shares must stay constant across runs"
                )
        self.raise_for_violations()

    @property
    def violations(self) -> list[str]:
        return list(self._violations)

    def raise_for_violations(self) -> None:
        if self._violations:
            raise DeterminismViolation(
                "determinism sanitizer found "
                f"{len(self._violations)} violation(s):\n  "
                + "\n  ".join(self._violations)
            )


class SanitizedOperator(StreamOperator):
    """Pass-through proxy calling sanitizer hooks around entry points."""

    def __init__(self, sanitizer: DeterminismSanitizer, label: str,
                 inner: StreamOperator) -> None:
        self._sanitizer = sanitizer
        self._label = label
        self._inner = inner
        self.num_streams = inner.num_streams
        self.output_kind = inner.output_kind

    def _tracked(self, method, *args):
        self._sanitizer.before_call(self._label)
        try:
            return method(*args)
        finally:
            self._sanitizer.after_call(self._label)

    def process(self, tup, now: float) -> ProcessReceipt:
        return self._tracked(self._inner.process, tup, now)

    def on_adapt(self, now, stats, interval) -> None:
        self._tracked(self._inner.on_adapt, now, stats, interval)

    def on_finish(self, now):
        return self._tracked(self._inner.on_finish, now)

    def bind_obs(self, obs, **labels) -> None:
        self._inner.bind_obs(obs, **labels)

    def describe(self) -> str:
        return f"Sanitized({self._inner.describe()})"

    def __getattr__(self, name: str):
        # state queries (testkit_profile, counters) fall through to the
        # operator under test
        return getattr(self._inner, name)
