"""Simulated CPU: converts join work into virtual service time.

The paper studies *CPU* load shedding, so the binding resource in the
simulation must be processing capacity, not wall-clock speed of the host.
:class:`CpuModel` expresses capacity in **tuple comparisons per virtual
second**; an operator reports how many comparisons (plus fixed per-tuple
overhead) servicing a tuple cost, and the CPU translates that into the
virtual time the operator is busy.  Queueing, and therefore the shedding
feedback loop, follows from arrivals outpacing this service rate — exactly
the mechanism the paper's Section 3 controller reacts to.
"""

from __future__ import annotations


class CpuModel:
    """A single-server CPU with a fixed comparison throughput.

    Args:
        comparisons_per_second: service capacity *per core*.  The
            experiment configs compute this from the cost model so the
            load-shedding knee sits where the paper places it (e.g.
            Fig. 7's "no shedding needed below 100 tuples/sec").
        tuple_overhead: fixed work units charged per serviced tuple (fetch,
            insert, expiration bookkeeping).
        cores: parallel servers.  One tuple occupies one core for its
            whole service (the join's probe pipeline is sequential); extra
            cores let the runtime service several tuples concurrently —
            an M/G/k station instead of M/G/1.
    """

    def __init__(
        self,
        comparisons_per_second: float,
        tuple_overhead: float = 1.0,
        cores: int = 1,
    ) -> None:
        if comparisons_per_second <= 0:
            raise ValueError("capacity must be positive")
        if tuple_overhead < 0:
            raise ValueError("overhead must be non-negative")
        if cores < 1:
            raise ValueError("cores must be at least 1")
        self.comparisons_per_second = float(comparisons_per_second)
        self.tuple_overhead = float(tuple_overhead)
        self.cores = int(cores)
        self.busy_time = 0.0
        self.serviced = 0
        #: per-core virtual time at which the core finishes its current
        #: service; a core with ``busy_until <= now`` is idle.
        self.core_busy_until = [0.0] * self.cores
        #: per-core cumulative busy seconds (sums to :attr:`busy_time`)
        self.core_busy_time = [0.0] * self.cores

    def service_time(self, comparisons: int) -> float:
        """Virtual seconds needed to perform ``comparisons`` comparisons
        plus the per-tuple overhead."""
        units = comparisons + self.tuple_overhead
        return units / self.comparisons_per_second

    def charge(self, comparisons: int) -> float:
        """Account for one serviced tuple and return its service time.

        Aggregate accounting only — callers that need per-core contention
        (the simulation runtimes) use :meth:`begin` instead.
        """
        t = self.service_time(comparisons)
        self.busy_time += t
        self.serviced += 1
        return t

    def idle_cores(self, now: float) -> int:
        """Number of cores whose current service has finished by ``now``
        (positive iff ``min(core_busy_until) <= now``)."""
        return sum(1 for t in self.core_busy_until if t <= now)

    def begin(self, now: float, comparisons: int) -> float:
        """Start one service on the earliest-free core at ``now``.

        Picks the core with the smallest ``busy_until`` (lowest index on
        ties, so assignment is deterministic), charges the work to that
        core, and returns the virtual time at which the service completes.
        Only call this when :meth:`idle_cores` is positive: the service
        then starts at ``now``.  The scheduler loop asks the same question
        in one comparison, ``min(core_busy_until) <= now``.  If every core
        is busy the work queues on the soonest-free core and starts when
        it frees up.
        """
        # service_time(), inline: this runs once per serviced tuple
        service = (comparisons + self.tuple_overhead) / self.comparisons_per_second
        busy = self.core_busy_until
        core = 0 if self.cores == 1 else busy.index(min(busy))
        done = busy[core] = max(now, busy[core]) + service
        self.core_busy_time[core] += service
        self.busy_time += service
        self.serviced += 1
        return done

    def utilization(self, elapsed: float) -> float:
        """Fraction of the total core-seconds in ``elapsed`` that were
        busy (1.0 = all cores saturated).

        Returns the *true* ratio: values slightly above 1.0 mean charged
        work spilled past the measurement horizon (e.g. the final service
        of a saturated run completes after the STOP event).  Hiding that
        by clamping here would mask oversaturation from metrics and
        series; clamp at display sites instead.
        """
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.cores)

    def per_core_utilization(self, elapsed: float) -> list[float]:
        """Per-core busy fraction over ``elapsed`` (unclamped, like
        :meth:`utilization`) — exposes imbalance across cores."""
        if elapsed <= 0:
            return [0.0] * self.cores
        return [t / elapsed for t in self.core_busy_time]

    def reset(self) -> None:
        """Zero the accounting (between runs)."""
        self.busy_time = 0.0
        self.serviced = 0
        self.core_busy_until = [0.0] * self.cores
        self.core_busy_time = [0.0] * self.cores
