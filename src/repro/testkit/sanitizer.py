"""Runtime determinism sanitizer: the effect manifest's dynamic cross-check.

The static certifier (:mod:`repro.lint.effects`) *claims* things about
every operator: which instance attributes it writes, that it never
touches another operator's state, that replicated shards share no
mutable objects.  Static analysis rests on assumptions (injected
callables are pure, constructor-injected objects are per-instance), so
this module re-checks the claims against what actually happens during a
testkit run — a disagreement is a bug in the operator *or* in the
analyzer, and both are worth a hard failure.

:class:`DeterminismSanitizer` shadow-tracks registered operators through
:class:`SanitizedOperator` proxies:

* **aliasing** — at :meth:`seal`, registered operators must not reach a
  common mutable object through attributes their certificates mark as
  *mutated* (the dynamic twin of rule P124; sharing a read-only
  collaborator is fine);
* **write provenance** — around every (stride-sampled) call, the
  operator's state is fingerprinted path-by-path
  (:func:`repro.lint.stategraph.iter_state`).  State that changed while
  the operator *was not running* is a foreign write, reported with the
  victim path and the operators that ran in between (with ``stride > 1``
  this check is restricted to roots the certificate says the operator
  never writes — its own unsampled writes are otherwise
  indistinguishable; ``stride=1`` gives full detection); state the
  operator
  changed itself must stay within the attribute roots its certificate
  declares (``pure`` operators may change nothing);
* **new attributes** — cheap every-call check: attributes appearing
  after construction must be declared writes (catches ``setattr``
  smuggling that stride sampling might miss);
* **module globals** — the mutable module-level bindings of the
  simulator packages are fingerprinted at :meth:`seal` and re-checked at
  :meth:`finish`; a simulation run must not modify package state.

All fingerprints are structural (CRC over canonical reprs, never
``id()``), so sanitized runs stay bit-reproducible and two runs of the
same workload produce identical reports.

Performance: fingerprinting a join's full window state is O(state), so
calls are sampled every ``stride`` calls per operator (plus the first
and the final check).  ``stride=1`` gives exact attribution and is what
the injected-violation tests use; the differential matrix default keeps
overhead modest.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.engine.operator import ProcessReceipt, StreamOperator
from repro.lint.effects import classify_class
from repro.lint.stategraph import (
    fingerprint,
    iter_state,
    is_mutable,
    root_of,
    state_roots,
    written_aliases,
)

#: top-level subpackages whose module globals the sanitizer snapshots
_GLOBAL_SNAPSHOT_PACKAGES = ("core", "engine", "joins", "streams",
                             "parallel")

#: module-global names excluded from the snapshot (logging handles get
#: reconfigured by test harnesses; they are not simulator state)
_GLOBAL_EXCLUDE = ("logger",)


class DeterminismViolation(AssertionError):
    """The dynamic run contradicted the effect manifest."""


def _fingerprint_paths(operator: Any) -> dict[str, int]:
    """path -> structural fingerprint for every mutable reachable object."""
    return {
        node.path: fingerprint(node.obj)
        for node in iter_state(operator)
        if is_mutable(node.obj)
    }


@dataclass
class _Record:
    """Shadow state for one registered operator."""

    label: str
    operator: Any
    allowed_roots: frozenset[str]
    #: roots whose *object* the operator mutates (aliasing check)
    mutated_roots: frozenset[str]
    classification: str
    qualname: str
    calls: int = 0
    #: path -> hash as of the operator's last own check
    prints: dict[str, int] = field(default_factory=dict)
    #: attribute names present at the last check
    attr_names: frozenset[str] = frozenset()


class DeterminismSanitizer:
    """Cross-checks runtime writes against the static effect manifest.

    Args:
        stride: fingerprint every Nth call per operator (1 = every call,
            exact provenance).  The cheap new-attribute check always
            runs.
        check_globals: also snapshot/verify simulator module globals.
    """

    def __init__(self, stride: int = 64,
                 check_globals: bool = True) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.stride = int(stride)
        self.check_globals = check_globals
        self._records: dict[str, _Record] = {}
        self._sealed = False
        self._finished = False
        self._violations: list[str] = []
        #: recent completed calls, for blaming foreign writes
        self._recent_calls: deque[str] = deque(maxlen=32)
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
        cert = classify_class(type(operator))
        self._records[label] = _Record(
            label=label,
            operator=operator,
            allowed_roots=frozenset(
                cert.effects.get("self_writes", ())
            ),
            mutated_roots=frozenset(
                cert.effects.get("mutated_writes", ())
            ),
            classification=cert.classification,
            qualname=cert.qualname,
        )

    def seal(self) -> None:
        """Freeze registration: run the aliasing check, snapshot state."""
        if self._sealed:
            return
        self._sealed = True
        records = list(self._records.values())
        for shared, written_hits in written_aliases(
            [record.operator for record in records],
            [record.mutated_roots for record in records],
            [record.label for record in records],
        ):
            self._violations.append(
                f"aliasing: one mutable {shared.type_name} is "
                f"reachable from {len(shared.paths)} operators "
                f"({shared.render()}) through written state "
                f"({', '.join(written_hits)}); the manifest "
                "certifies these operators as independent"
            )
        for record in self._records.values():
            record.prints = _fingerprint_paths(record.operator)
            record.attr_names = frozenset(state_roots(record.operator))
        if self.check_globals:
            self._global_prints = self._snapshot_globals()

    # -- per-call hooks --------------------------------------------------

    def before_call(self, label: str) -> bool:
        """Pre-call check; returns whether this call is sampled."""
        record = self._records[label]
        if not self._sealed:
            self.seal()
        record.calls += 1
        sampled = (record.calls % self.stride == 0) or record.calls == 1
        if sampled:
            current = _fingerprint_paths(record.operator)
            self._diff_foreign(record, current)
            record.prints = current
        return sampled

    def after_call(self, label: str, sampled: bool) -> None:
        record = self._records[label]
        names = frozenset(state_roots(record.operator))
        new_names = names - record.attr_names
        bad = [
            n for n in new_names
            if n not in record.allowed_roots
            and "*" not in record.allowed_roots
        ]
        if bad:
            self._violations.append(
                f"undeclared attribute write: {record.label} "
                f"({record.qualname}) grew attribute(s) "
                f"{sorted(bad)} during a call, but its certificate "
                f"declares writes only to "
                f"{sorted(record.allowed_roots)}"
            )
        record.attr_names = names
        if sampled:
            current = _fingerprint_paths(record.operator)
            self._diff_own(record, current)
            record.prints = current
        self._recent_calls.append(label)

    # -- diffing ---------------------------------------------------------

    def _changed_paths(self, old: dict[str, int],
                       new: dict[str, int]) -> list[str]:
        changed = [p for p, h in new.items() if old.get(p) != h]
        changed.extend(p for p in old if p not in new)
        return sorted(set(changed))

    def _diff_foreign(self, record: _Record,
                      current: dict[str, int]) -> None:
        changed = self._changed_paths(record.prints, current)
        if self.stride > 1:
            # between samples the operator ran unsampled calls, so its
            # own declared writes are indistinguishable from foreign
            # ones — only changes to roots it *never* writes are
            # provably foreign.  stride=1 keeps full detection.
            if "*" in record.allowed_roots:
                return
            changed = [
                p for p in changed
                if root_of(p) not in record.allowed_roots
            ]
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
            f"({record.qualname}) changed while it was not running — "
            f"write site(s): "
            + ", ".join(f"{record.label}.{p}" for p in changed[:5])
            + (f" (+{len(changed) - 5} more)" if len(changed) > 5
               else "")
            + f"; operators that ran in between: {suspects}"
        )

    def _diff_own(self, record: _Record,
                  current: dict[str, int]) -> None:
        changed = self._changed_paths(record.prints, current)
        if not changed:
            return
        if record.classification == "pure":
            self._violations.append(
                f"purity violation: {record.label} "
                f"({record.qualname}) certifies pure but changed "
                f"state at: "
                + ", ".join(f"{record.label}.{p}" for p in changed[:5])
            )
            return
        roots = {root_of(p) for p in changed}
        undeclared = sorted(
            r for r in roots
            if r not in record.allowed_roots
            and "*" not in record.allowed_roots
        )
        if undeclared:
            sites = [
                p for p in changed if root_of(p) in set(undeclared)
            ]
            self._violations.append(
                f"undeclared write: {record.label} "
                f"({record.qualname}) wrote attribute root(s) "
                f"{undeclared} — write site(s): "
                + ", ".join(f"{record.label}.{p}" for p in sites[:5])
                + f"; certificate declares "
                f"{sorted(record.allowed_roots)}"
            )

    # -- module globals --------------------------------------------------

    def _snapshot_globals(self) -> dict[tuple[str, str], int]:
        from repro.lint.effects import analyze_package

        index = analyze_package().index
        prints: dict[tuple[str, str], int] = {}
        for module_name, info in sorted(index.modules.items()):
            parts = module_name.split(".")
            if len(parts) < 2 or \
                    parts[1] not in _GLOBAL_SNAPSHOT_PACKAGES:
                continue
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for name in sorted(info.mutable_globals):
                if name in _GLOBAL_EXCLUDE:
                    continue
                value = getattr(module, name, None)
                if value is None:
                    continue
                prints[(module_name, name)] = fingerprint(value)
        return prints

    # -- teardown --------------------------------------------------------

    def finish(self) -> None:
        """Final sweep; raises :class:`DeterminismViolation` on problems."""
        if self._finished:
            return
        self._finished = True
        if not self._sealed:
            self.seal()
        for record in self._records.values():
            current = _fingerprint_paths(record.operator)
            self._diff_foreign(record, current)
        if self.check_globals:
            for key, stamp in self._snapshot_globals().items():
                old = self._global_prints.get(key)
                if old is not None and old != stamp:
                    module_name, name = key
                    self._violations.append(
                        f"module-global write: {module_name}.{name} "
                        "changed during the run; simulator package "
                        "state must be constant across simulations"
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

    def process(self, tup, now: float) -> ProcessReceipt:
        sampled = self._sanitizer.before_call(self._label)
        try:
            return self._inner.process(tup, now)
        finally:
            self._sanitizer.after_call(self._label, sampled)

    def on_adapt(self, now, stats, interval) -> None:
        sampled = self._sanitizer.before_call(self._label)
        try:
            self._inner.on_adapt(now, stats, interval)
        finally:
            self._sanitizer.after_call(self._label, sampled)

    def on_finish(self, now):
        sampled = self._sanitizer.before_call(self._label)
        try:
            return self._inner.on_finish(now)
        finally:
            self._sanitizer.after_call(self._label, sampled)

    def bind_obs(self, obs, **labels) -> None:
        self._inner.bind_obs(obs, **labels)

    def describe(self) -> str:
        return f"Sanitized({self._inner.describe()})"

    def __getattr__(self, name: str):
        # state queries (testkit_profile, counters) fall through to the
        # operator under test
        return getattr(self._inner, name)
