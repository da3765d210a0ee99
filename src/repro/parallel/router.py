"""The Router operator: partitions input streams across join shards.

A sharded join runs ``K`` independent join instances behind one router.
The router sees every input tuple exactly once, decides which shard owns
it, and emits a :class:`RoutedTuple` naming that shard; the graph's
filtered fan-out edges (``Edge.filter``) then deliver the tuple to the
owning shard's input buffer only.

Routing is one pure function of the join attribute::

    shard = stable_key_hash(tup.value) % num_shards

Equal keys always land on the same shard, on every stream, for the whole
run, so an equi-join's matching tuples meet on one shard together with
their window history: the union of the shard outputs equals the
unsharded join's output.  Both runtimes — the virtual-time
:class:`~repro.parallel.sharded.ShardedPlan` and the process runtime
(:mod:`repro.parallel.procs`) — route with this rule, so their merged
outputs are identical.  A skewed key domain overloads its shard, whose
own controller sheds (``docs/PARALLEL.md``); no key ever moves.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.engine.operator import ProcessReceipt, StreamOperator
from repro.streams.tuples import StreamTuple


@dataclass(frozen=True, slots=True)
class RoutedTuple:
    """A stream tuple annotated with the shard that owns it."""

    shard: int
    tuple: StreamTuple


def _canonical_key(key: Any) -> Any:
    """Collapse numerically-equal join keys onto one representative.

    Python's ``==`` makes ``1 == 1.0 == True == np.int64(1)``, but their
    reprs differ (``'1'`` / ``'1.0'`` / ``'True'`` / ``'np.int64(1)'``),
    so hashing the raw repr would send equal keys to different shards —
    silently breaking equi-join co-partitioning on mixed key domains.
    Bools and integral floats map onto the plain ``int`` (mirroring the
    builtin ``hash`` contract that equal numbers hash equal), numpy
    scalars onto the Python number they hold, and composite tuple keys
    canonicalize element-wise.  Non-integral floats and every other type
    pass through unchanged — ``'1'`` the string still hashes apart from
    ``1`` the number.
    """
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, float) and key.is_integer():
        return int(key)
    if isinstance(key, tuple):
        return tuple(_canonical_key(k) for k in key)
    if isinstance(key, np.generic):
        return _canonical_key(key.item())
    return key


def stable_key_hash(key: Any) -> int:
    """Deterministic, process-independent hash of a join key.

    Python's builtin ``hash`` is salted per process for strings, which
    would break bit-identical reruns; CRC32 over the canonical repr is
    stable everywhere and cheap.  Keys are canonicalized first (see
    :func:`_canonical_key`) so keys that compare equal route to the same
    shard regardless of representation.
    """
    return zlib.crc32(repr(_canonical_key(key)).encode("utf-8"))


class RouterOperator(StreamOperator):
    """Partitions ``m`` input streams across ``num_shards`` join shards.

    Args:
        num_streams: inputs (one per joined stream).
        num_shards: join instances behind this router.
        policy, rebalance_threshold: accepted only as ``"hash"`` and
            ``None``, the one routing rule this router has.  They are
            kept so that callers written against the former signature,
            which offered a round-robin policy and skew rebalancing,
            still construct the same router; any other value raises
            ``ValueError``.
    """

    output_kind = "routed"

    #: comparisons charged per routed tuple (routing is not free on a
    #: real system, but it is far cheaper than a probe)
    route_cost = 1

    def __init__(
        self,
        num_streams: int,
        num_shards: int,
        *,
        policy: str = "hash",
        rebalance_threshold: None = None,
    ) -> None:
        if num_streams < 1:
            raise ValueError("router needs at least one input stream")
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if policy != "hash":
            raise ValueError(
                f"unknown routing policy {policy!r}; routing is by key hash"
            )
        if rebalance_threshold is not None:
            raise ValueError(
                "rebalance_threshold must be None; routing never moves keys"
            )
        self.num_streams = int(num_streams)
        self.num_shards = int(num_shards)
        self.routed_per_shard = [0] * self.num_shards
        # cached obs instrument handles (populated by _obs_setup)
        self._obs_routed = None

    def _obs_setup(self, obs, labels) -> None:
        """Cache the per-shard routing counters."""
        self._obs_routed = [
            obs.counter("router_routed_total", shard=k, **labels)
            for k in range(self.num_shards)
        ]

    def shard_of(self, tup: StreamTuple) -> int:
        """The shard that owns ``tup`` (a pure function of its join
        attribute, ``tup.value``)."""
        return stable_key_hash(tup.value) % self.num_shards

    def account(self, shard: int) -> None:
        """Count one tuple routed to ``shard`` (the process runtime
        routes without envelopes and counts through here)."""
        self.routed_per_shard[shard] += 1
        if self._obs_routed is not None:
            self._obs_routed[shard].inc()

    def process(self, tup: StreamTuple, now: float) -> ProcessReceipt:
        """Assign ``tup`` to its shard and emit the routed envelope."""
        shard = self.shard_of(tup)
        self.account(shard)
        return ProcessReceipt(
            comparisons=self.route_cost,
            outputs=[RoutedTuple(shard, tup)],
        )

    def describe(self) -> str:
        return f"Router(shards={self.num_shards})"
