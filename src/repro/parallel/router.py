"""The Router operator: partitions input streams across join shards.

A sharded join runs ``K`` independent join instances behind one router.
The router sees every input tuple exactly once, decides which shard owns
it, and emits a :class:`RoutedTuple` naming that shard; the graph's
filtered fan-out edges (``Edge.filter``) then deliver the tuple to the
owning shard's input buffer only.

Two partitioning policies:

* **hash** — the join key is hashed into a fixed set of virtual buckets
  and a bucket->shard map assigns ownership.  For equi-joins this
  co-partitions matching tuples, so the union of the shard outputs equals
  the unsharded join's output.  The indirection through virtual buckets is
  what makes *rebalancing* cheap: moving one bucket re-homes a 1/B slice
  of the key domain without touching the rest of the map.
* **round-robin** — tuples cycle through the shards per input stream.
  This balances load perfectly but co-partitions nothing; it suits
  shard-local workloads (e.g. aggregation, filtering) or joins that
  tolerate approximate output, and serves as the load-balance reference
  point in the scale-out experiments.

Skew handling: at every adaptation tick the router consults a *depth
probe* (wired by :func:`repro.parallel.sharded.build_sharded_graph`) for
each shard's input-buffer backlog.  When the most loaded shard's depth
exceeds ``rebalance_threshold`` times the least loaded one's, hash routing
migrates virtual buckets from hot to cold and round-robin routing
re-weights its cycle.  Migrated keys leave their window history behind on
the old shard — matches spanning the migration instant are lost as that
history expires, the classic state-migration trade-off (documented in
``docs/PARALLEL.md``).  Rebalancing exists in the virtual-time
:class:`~repro.parallel.sharded.ShardedPlan` only; the process runtime
(:mod:`repro.parallel.procs`) builds its router with
``rebalance_threshold=None`` and its bucket map is a constant of the run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.engine.buffers import BufferStats
from repro.engine.operator import ProcessReceipt, StreamOperator
from repro.streams.tuples import StreamTuple

#: routing policies the router (and the P105-style plan checks) know
ROUTING_POLICIES = ("hash", "round-robin")


@dataclass(frozen=True, slots=True)
class RoutedTuple:
    """A stream tuple annotated with the shard that owns it."""

    shard: int
    tuple: StreamTuple


def _canonical_key(key: Any) -> Any:
    """Collapse numerically-equal join keys onto one representative.

    Python's ``==`` makes ``1 == 1.0 == True``, but their reprs differ
    (``'1'`` / ``'1.0'`` / ``'True'``), so hashing the raw repr would
    send equal keys to different shards — silently breaking equi-join
    co-partitioning on mixed int/float/bool key domains.  Bools and
    integral floats map onto the plain ``int`` (mirroring the builtin
    ``hash`` contract that equal numbers hash equal); composite tuple
    keys canonicalize element-wise.  Non-integral floats and every
    other type pass through unchanged — ``'1'`` the string still
    hashes apart from ``1`` the number.
    """
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, float) and key.is_integer():
        return int(key)
    if isinstance(key, tuple):
        return tuple(_canonical_key(k) for k in key)
    return key


def stable_key_hash(key: Any) -> int:
    """Deterministic, process-independent hash of a join key.

    Python's builtin ``hash`` is salted per process for strings, which
    would break bit-identical reruns; CRC32 over the canonical repr is
    stable everywhere and cheap.  Numeric keys are canonicalized first
    (see :func:`_canonical_key`) so keys that compare equal route to
    the same bucket regardless of representation.
    """
    return zlib.crc32(repr(_canonical_key(key)).encode("utf-8"))


class RouterOperator(StreamOperator):
    """Partitions ``m`` input streams across ``num_shards`` join shards.

    Args:
        num_streams: inputs (one per joined stream).
        num_shards: join instances behind this router.
        policy: ``"hash"`` or ``"round-robin"``.
        key: join-key extractor for hash routing; default uses the
            tuple's ``value`` (the join attribute).
        buckets: virtual hash buckets; more buckets means finer-grained
            rebalancing.  Must be >= ``num_shards``.
        rebalance_threshold: hot/cold depth ratio beyond which an
            adaptation tick triggers a rebalance; ``None`` disables
            rebalancing entirely.
        route_cost: comparisons charged per routed tuple (routing is not
            free on a real system, but it is far cheaper than a probe).
    """

    output_kind = "routed"

    def __init__(
        self,
        num_streams: int,
        num_shards: int,
        policy: str = "hash",
        key: Callable[[StreamTuple], Any] | None = None,
        buckets: int = 64,
        rebalance_threshold: float | None = 2.0,
        route_cost: int = 1,
    ) -> None:
        if num_streams < 1:
            raise ValueError("router needs at least one input stream")
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {policy!r}; "
                f"expected one of {ROUTING_POLICIES}"
            )
        if buckets < num_shards:
            raise ValueError("need at least one bucket per shard")
        if rebalance_threshold is not None and rebalance_threshold <= 1:
            raise ValueError("rebalance_threshold must exceed 1")
        if route_cost < 0:
            raise ValueError("route_cost must be non-negative")
        self.num_streams = int(num_streams)
        self.num_shards = int(num_shards)
        self.policy = policy
        self.key = key if key is not None else (lambda tup: tup.value)
        self.buckets = int(buckets)
        self.rebalance_threshold = rebalance_threshold
        self.route_cost = int(route_cost)
        #: virtual bucket -> shard map (hash policy)
        self.bucket_map = [b % self.num_shards for b in range(self.buckets)]
        #: per-stream position in the round-robin cycle
        self._rr_positions = [0] * self.num_streams
        #: round-robin cycle (rebuilt from weights at rebalance)
        self._rr_cycle = list(range(self.num_shards))
        # wiring + diagnostics
        self._depth_probe: Callable[[], Sequence[int]] | None = None
        self.routed_per_shard = [0] * self.num_shards
        self.rebalances = 0
        self.last_depths: list[int] = []
        #: ticks to sit out after a rebalance before the next one may fire
        self._rebalance_cooldown = 0
        # cached obs instrument handles (populated by _obs_setup)
        self._obs_routed = None
        self._obs_rebalances = None
        self._obs_depths = None

    def _obs_setup(self, obs, labels) -> None:
        """Cache per-shard routing counters and depth series."""
        shards = range(self.num_shards)
        self._obs_routed = [
            obs.counter("router_routed_total", shard=k, **labels)
            for k in shards
        ]
        self._obs_rebalances = obs.counter(
            "router_rebalances_total", **labels
        )
        self._obs_depths = [
            obs.series("shard_queue_depth", shard=k, **labels)
            for k in shards
        ]

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def shard_of(self, tup: StreamTuple) -> int:
        """The shard that would own ``tup`` right now (no side effects
        for hash routing; round-robin peeks without advancing)."""
        if self.policy == "hash":
            bucket = stable_key_hash(self.key(tup)) % self.buckets
            return self.bucket_map[bucket]
        pos = self._rr_positions[tup.stream]
        return self._rr_cycle[pos % len(self._rr_cycle)]

    def process(self, tup: StreamTuple, now: float) -> ProcessReceipt:
        """Assign ``tup`` to its shard and emit the routed envelope."""
        shard = self.shard_of(tup)
        if self.policy == "round-robin":
            self._rr_positions[tup.stream] += 1
        self.routed_per_shard[shard] += 1
        if self._obs_routed is not None:
            self._obs_routed[shard].inc()
        return ProcessReceipt(
            comparisons=self.route_cost,
            outputs=[RoutedTuple(shard, tup)],
        )

    # ------------------------------------------------------------------
    # skew-aware rebalancing
    # ------------------------------------------------------------------

    def attach_depth_probe(
        self, probe: Callable[[], Sequence[int]]
    ) -> None:
        """Wire the per-shard backlog probe consulted at adaptation ticks.

        ``probe()`` must return one input-buffer depth per shard, in
        shard order.  :func:`~repro.parallel.sharded.build_sharded_graph`
        attaches one reading the live graph buffers.
        """
        self._depth_probe = probe

    def on_adapt(
        self, now: float, _stats: list[BufferStats], interval: float
    ) -> None:
        """Consult the depth probe and rebalance on excessive skew.

        The engine's buffer statistics (the second positional argument)
        are deliberately ignored: they describe the *router's own*
        input buffers, which say nothing about shard backlog.  Skew
        decisions key off the wired depth probe, which reads the shard
        input buffers directly (see :meth:`attach_depth_probe`).
        """
        if self._depth_probe is None or self.rebalance_threshold is None:
            return
        depths = [int(d) for d in self._depth_probe()]
        if len(depths) != self.num_shards:
            raise ValueError(
                f"depth probe returned {len(depths)} depths for "
                f"{self.num_shards} shards"
            )
        self.last_depths = depths
        if self._obs_depths is not None:
            for k, depth in enumerate(depths):
                self._obs_depths[k].observe(now, depth)
        self.maybe_rebalance(depths)

    def maybe_rebalance(self, depths: Sequence[int]) -> bool:
        """Apply one rebalance decision for the given per-shard depths.

        Returns ``True`` when a migration (hash) or reweight
        (round-robin) actually happened.  Honours a one-tick cooldown
        after any rebalance: freshly migrated buckets need a tick for
        their backlog to drain before depths mean anything again —
        without it, back-to-back adaptation ticks see the same stale
        skew and ping-pong the same buckets between shards.
        """
        if self.rebalance_threshold is None or self.num_shards < 2:
            return False
        if self._rebalance_cooldown > 0:
            self._rebalance_cooldown -= 1
            return False
        depths = [int(d) for d in depths]
        hot = max(range(self.num_shards), key=lambda k: (depths[k], k))
        cold = min(range(self.num_shards), key=lambda k: (depths[k], k))
        # +1 keeps the ratio finite on empty buffers and ignores noise
        # around near-empty shards
        if depths[hot] + 1 <= self.rebalance_threshold * (depths[cold] + 1):
            return False
        if self.policy == "hash":
            if not self._migrate_buckets(hot, cold):
                return False
        else:
            self._reweight_cycle(depths)
        self.rebalances += 1
        self._rebalance_cooldown = 1
        if self._obs_rebalances is not None:
            self._obs_rebalances.inc()
        return True

    def _migrate_buckets(self, hot: int, cold: int) -> bool:
        """Move ~a quarter of the hot shard's buckets to the cold shard.

        The donor always keeps at least one bucket: stripping the hot
        shard's last bucket would cut it out of the key space entirely
        (with ``buckets == num_shards`` every shard owns exactly one,
        so such a migration is a no-op, not an eviction).  Returns
        whether any bucket actually moved.
        """
        owned = [b for b, s in enumerate(self.bucket_map) if s == hot]
        if len(owned) <= 1:
            return False
        movable = min(max(1, len(owned) // 4), len(owned) - 1)
        for b in owned[:movable]:
            self.bucket_map[b] = cold
        return True

    def _reweight_cycle(self, depths: Sequence[int]) -> None:
        """Rebuild the round-robin cycle with slots inversely
        proportional to backlog, evenly interleaved.

        Stride scheduling in one pass: shard ``k``'s ``j``-th slot sits
        at fractional position ``(j + 0.5) / slots[k]``, and a single
        sort (ties broken by shard id) merges all slots into a cycle
        with each shard's slots spread as evenly as possible.  Every
        shard keeps at least one slot, so a hot shard is starved, never
        cut off.
        """
        inv = [1.0 / (1 + d) for d in depths]
        total = sum(inv)
        slots = [
            max(1, round(4 * self.num_shards * w / total)) for w in inv
        ]
        self._rr_cycle = [
            k
            for _, k in sorted(
                ((j + 0.5) / n, k)
                for k, n in enumerate(slots)
                for j in range(n)
            )
        ]

    def describe(self) -> str:
        return (
            f"Router(shards={self.num_shards}, policy={self.policy}, "
            f"buckets={self.buckets})"
        )
