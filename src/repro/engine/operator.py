"""Operator interface between the runtime and stream operators.

An operator services one input tuple at a time.  It reports how much CPU
work (tuple comparisons) servicing cost, which the runtime converts into
virtual busy time via :class:`repro.engine.cpu.CpuModel`.  Adaptive
operators (GrubJoin) additionally receive a callback at every adaptation
tick with the buffer statistics the throttling controller needs.

Admission filters model *drop operators placed in front of the input
buffers* — the mechanism of the RandomDrop baseline.  They see a tuple
before it is buffered and decide whether it enters the system at all.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.streams.tuples import JoinResult, StreamTuple

from .buffers import BufferStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Obs


def is_telemetry_attr(name: str) -> bool:
    """Whether an instance attribute is telemetry plumbing: the bound
    sink ``obs`` or an ``_obs*`` instrument-handle cache.  Telemetry is
    not state — a pickled operator drops it (see ``__getstate__``) and
    the state walk of :mod:`repro.lint.stategraph` skips it."""
    return name == "obs" or name.startswith("_obs")


def _without_telemetry(obj) -> dict:
    """``obj``'s pickled state: its ``__dict__`` with every telemetry
    attribute unbound (``None``, as every constructor leaves it)."""
    return {
        name: None if is_telemetry_attr(name) else value
        for name, value in vars(obj).items()
    }


@dataclass(slots=True)
class ProcessReceipt:
    """Result of servicing one input tuple.

    Attributes:
        comparisons: tuple comparisons performed (the CPU work).
        outputs: join results produced by this tuple's pipeline.
    """

    comparisons: int = 0
    outputs: list[JoinResult] = field(default_factory=list)


class StreamOperator(ABC):
    """Base class for operators hosted by the simulation runtime."""

    #: number of input streams the operator consumes
    num_streams: int = 1

    #: what :meth:`process` emits: ``"tuple"`` for ``StreamTuple``-shaped
    #: outputs, ``"join-result"`` for :class:`JoinResult` objects that
    #: need an edge ``transform`` before a downstream operator can
    #: consume them.  The static plan analyzer (P102) keys off this.
    output_kind: str = "tuple"

    #: bound telemetry sink; ``None`` (the default) keeps all
    #: instrumentation off — hot paths guard on it
    obs: "Obs | None" = None

    def bind_obs(self, obs: "Obs", **labels) -> None:
        """Attach a telemetry sink (the runtime calls this when a run is
        given an ``obs=``).  ``labels`` are stamped onto every instrument
        the operator creates (e.g. ``node="join"`` in a graph).  Subclasses
        cache their instrument handles in :meth:`_obs_setup` so the
        per-event cost is one guarded method call."""
        self.obs = obs
        self._obs_setup(obs, {k: str(v) for k, v in labels.items()})

    def _obs_setup(self, obs: "Obs", labels: dict[str, str]) -> None:
        """Hook: create/cache instrument handles.  Default: nothing."""

    def __getstate__(self) -> dict:
        """A pickled operator is a snapshot: ``pickle.loads`` of it
        continues bit-identically to the operator it was taken from.
        It carries no telemetry; re-bind the copy with :meth:`bind_obs`."""
        return _without_telemetry(self)

    @abstractmethod
    def process(self, tup: StreamTuple, now: float) -> ProcessReceipt:
        """Service one input tuple at virtual time ``now``."""

    def on_adapt(
        self, now: float, stats: list[BufferStats], interval: float
    ) -> None:
        """Adaptation tick (every ``Delta`` seconds).  ``stats[i]`` holds the
        push/pop counts of stream ``i``'s input buffer over the last
        interval.  Default: no adaptation."""

    def on_finish(self, now: float) -> list[JoinResult]:
        """End-of-run flush at virtual time ``now`` (the configured run
        duration).  Operators with deferred emission (anti/outer join
        modes, whose survivors only become definite once expired) drain
        their pending results here.  Default: nothing pending."""
        return []

    def describe(self) -> str:
        """Short human-readable label for logs and result tables."""
        return type(self).__name__


class AdmissionFilter(ABC):
    """A drop operator sitting in front of one input buffer."""

    #: bound telemetry sink; ``None`` keeps instrumentation off
    obs: "Obs | None" = None

    def bind_obs(self, obs: "Obs", **labels) -> None:
        """Attach a telemetry sink (same contract as
        :meth:`StreamOperator.bind_obs`)."""
        self.obs = obs
        self._obs_setup(obs, {k: str(v) for k, v in labels.items()})

    def _obs_setup(self, obs: "Obs", labels: dict[str, str]) -> None:
        """Hook: create/cache instrument handles.  Default: nothing."""

    def __getstate__(self) -> dict:
        """Pickles without telemetry (see
        :meth:`StreamOperator.__getstate__`)."""
        return _without_telemetry(self)

    @abstractmethod
    def admit(self, tup: StreamTuple, now: float) -> bool:
        """Return True to let the tuple into the buffer, False to drop it."""

    def on_adapt(self, now: float, rate_estimate: float) -> None:
        """Optional adaptation hook, fed the stream's recent push rate."""
