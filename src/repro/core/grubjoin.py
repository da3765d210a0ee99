"""GrubJoin: the adaptive m-way windowed stream join (Section 5).

GrubJoin combines the three framework components:

* **operator throttling** — a :class:`ThrottleController` turns the
  buffers' push/pop imbalance into the throttle fraction ``z``;
* **window harvesting** — every adaptation step, the greedy solver picks
  the harvest counts maximizing modeled output under the ``z * C(1)``
  budget, and probes scan only the top-ranked logical basic windows;
* **time-correlation learning** — an ``omega``-sampled subset of tuples is
  processed with window shredding instead, whose unbiased output updates
  the ``m`` per-stream histograms from which the basic-window scores are
  recomputed.

The operator plugs into :class:`repro.engine.runtime.Simulation` exactly
like the full :class:`repro.joins.mjoin.MJoinOperator` it descends from
— literally: it subclasses it (windows, orders, kernel, index states,
obs counters, flush and oracle profile are inherited) and keeps its own
``process``, whose accounting differs: selectivity learns from shredded
probes only, the per-hop counters are fed by harvested probes only.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.engine.buffers import BufferStats
from repro.engine.operator import ProcessReceipt
from repro.joins.mjoin import MJoinOperator
from repro.obs.explainer import explain_adaptation
from repro.streams.tuples import JoinResult, StreamTuple

from .cost_model import JoinProfile
from .greedy import Metric, greedy_double_sided, greedy_pick
from .harvesting import HarvestConfiguration
from .histograms import EquiWidthHistogram
from .scores import scores_from_histograms
from .shredding import shred_slices_for_hop
from .throttle import ThrottleController

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.joins.predicates import JoinPredicate

logger = logging.getLogger(__name__)


class GrubJoinOperator(MJoinOperator):
    """The paper's contribution, ready to host in the simulation runtime.

    Args:
        predicate: join condition (any :class:`JoinPredicate`).
        window_sizes: per-stream join window sizes ``w_i`` (seconds).
        basic_window_size: ``b`` (seconds).
        sampling: ``omega``, the fraction of tuples processed with window
            shredding for time-correlation learning (paper uses 0.1).
        metric: greedy evaluation metric (paper recommends BDOpDC).
        solver: ``"greedy"`` (the paper's default) or ``"double-sided"``
            (the tech-report extension switching to reverse greedy for
            large ``z``).
        fractional_fallback: let the greedy initialize a direction below
            one logical basic window per hop when nothing integral fits
            the budget (recommended; an ablation bench covers it).
        solver_timer: optional zero-argument callable returning seconds
            (e.g. :func:`repro.timing.wall_clock_timer`); when given, the
            per-adaptation solver runtime is accumulated into
            ``solver_seconds_total``.  ``None`` (the default) keeps the
            core free of wall-clock reads so runs are bit-deterministic
            under a fixed seed.
        memory_saving: additionally use the harvesting decision to bound
            memory (the Section 7 claim): basic windows that no join
            direction will probe under the current configuration are
            evicted early instead of being retained until expiration.
            Evicted history cannot be recovered if the configuration
            later re-selects those segments — the classic memory-shedding
            trade-off.
        rng: generator (or seed) for the shredding sampler.
        warm_start: seed each adaptation's greedy solve with the previous
            tick's harvest counts (rejected automatically when infeasible
            or when the join orders changed).  Cuts solver work sharply on
            stable workloads, at the price of a path-dependent (still
            feasible, still budget-respecting) configuration; off by
            default so existing runs stay decision-identical.

    The throttle (``self.throttle``) and the selectivity estimator run
    with their own defaults; a caller that needs another ``gamma`` or a
    pinned ``z`` assigns ``op.throttle`` after construction.
    """

    #: lag-histogram buckets per basic window of each stream's span
    histogram_buckets_per_basic_window = 2
    #: Laplace pseudo-count per histogram bucket, so sparse shredding
    #: output does not produce spuriously spiky time-correlation estimates
    histogram_smoothing = 0.25
    #: per-adaptation aging factor of the lag histograms
    histogram_decay = 0.95

    def __init__(
        self,
        predicate: "JoinPredicate",
        window_sizes: Sequence[float],
        basic_window_size: float,
        sampling: float = 0.1,
        metric: Metric = Metric.BEST_DELTA_OUTPUT_PER_DELTA_COST,
        solver: str = "greedy",
        fractional_fallback: bool = True,
        memory_saving: bool = False,
        rng: np.random.Generator | int | None = None,
        solver_timer: Callable[[], float] | None = None,
        warm_start: bool = False,
        index: str | None = None,
    ) -> None:
        if not 0 < sampling <= 1:
            raise ValueError("sampling (omega) must be in (0, 1]")
        if solver not in ("greedy", "double-sided"):
            raise ValueError("solver must be 'greedy' or 'double-sided'")
        # the harvest algebra is defined for inner-mode sliding windows
        # only; mode, window policy, join orders and the output charge
        # stay at the base's defaults
        super().__init__(predicate, window_sizes, basic_window_size,
                         index=index)
        m = self.num_streams
        self.segments = [w.n for w in self.windows]
        self.sampling = float(sampling)
        self.metric = metric
        self.solver = solver
        self.fractional_fallback = bool(fractional_fallback)
        self.memory_saving = bool(memory_saving)
        self.throttle = ThrottleController()
        b = self.basic_window_size
        # Each stream's lag histogram spans [-n_i*b, n_1*b], which differs
        # per stream when the windows do; size each from its *own* span so
        # every stream really gets the same buckets per basic window.
        per_window = self.histogram_buckets_per_basic_window
        self.histograms: list[EquiWidthHistogram | None] = [None] + [
            EquiWidthHistogram(
                low=-self.segments[i] * b,
                high=self.segments[0] * b,
                buckets=per_window * (self.segments[i] + self.segments[0]),
                smoothing=self.histogram_smoothing,
            )
            for i in range(1, m)
        ]
        self.harvest = HarvestConfiguration.full(m, self.segments)
        self.solver_timer = solver_timer
        self.warm_start = bool(warm_start)
        self._warm_counts: np.ndarray | None = None
        self._warm_orders: list[list[int]] | None = None
        # Eq. 2/4 score-convolution cache keyed on histogram versions
        self._score_cache: dict[
            tuple[int, int], tuple[tuple[int, int], np.ndarray]
        ] = {}
        self.score_cache_hits = 0
        self.score_cache_misses = 0
        self.warmstart_hits = 0
        self.warmstart_misses = 0
        self._rng = np.random.default_rng(rng)
        self._rates = np.zeros(m)
        # diagnostics
        self.tuples_shredded = 0
        self.tuples_evicted = 0
        self.adaptations = 0
        self.last_solver_result = None
        self.solver_seconds_total = 0.0
        # cached obs instrument handles (populated by _obs_setup)
        self._obs_handles = None

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def _obs_setup(self, obs, labels) -> None:
        """Cache instrument handles so hot paths pay one guarded call."""
        super()._obs_setup(obs, labels)
        m = self.num_streams
        labels = {
            "mode": self.mode.value,
            "window_policy": self.window_policy.name,
            **labels,
        }
        self._obs_handles = {
            "adaptations": obs.counter(
                "grubjoin_adaptations_total", **labels
            ),
            "harvested": obs.counter("grubjoin_harvested_total", **labels),
            "shredded": obs.counter("grubjoin_shredded_total", **labels),
            "evicted": obs.counter("grubjoin_evicted_total", **labels),
            "solver_steps": obs.counter("solver_steps_total", **labels),
            "solver_evals": obs.counter(
                "solver_evaluations_total", **labels
            ),
            "warm_hit": obs.counter(
                "solver_warmstart_total", result="hit", **labels
            ),
            "warm_miss": obs.counter(
                "solver_warmstart_total", result="miss", **labels
            ),
            "score_hit": obs.counter(
                "score_cache_total", result="hit", **labels
            ),
            "score_miss": obs.counter(
                "score_cache_total", result="miss", **labels
            ),
            "z": obs.series("throttle_z", **labels),
            "beta": obs.series("throttle_beta", **labels),
            "fraction": [
                [
                    obs.gauge(
                        "harvest_fraction", direction=i, hop=j, **labels
                    )
                    for j in range(m - 1)
                ]
                for i in range(m)
            ],
        }
        for i in range(m):
            for j in range(m - 1):
                self._obs_handles["fraction"][i][j].set(1.0)

    def _obs_record_harvest(self, counts) -> None:
        """Update the per-direction harvest-fraction gauges z_{i,j}."""
        gauges = self._obs_handles["fraction"]
        for i in range(self.num_streams):
            for j in range(self.num_streams - 1):
                n = self.segments[self.orders[i][j]]
                gauges[i][j].set(float(counts[i][j]) / n if n else 0.0)

    # ------------------------------------------------------------------
    # tuple processing
    # ------------------------------------------------------------------

    @property
    def throttle_fraction(self) -> float:
        """Current throttle fraction ``z`` (read by the runtime's series)."""
        return self.throttle.z

    def process(self, tup: StreamTuple, now: float) -> ProcessReceipt:
        """Insert ``tup`` and probe via harvesting or (sampled) shredding."""
        self.windows[tup.stream].insert(tup, now)
        if self._rng.random() < self.sampling:
            outputs, comparisons = self._shredded_probe(tup, now)
            self.tuples_shredded += 1
            if self._obs_handles is not None:
                self._obs_handles["shredded"].inc()
        else:
            outputs, comparisons = self._harvested_probe(tup, now)
            if self._obs_handles is not None:
                self._obs_handles["harvested"].inc()
        self.tuples_processed += 1
        self.comparisons_total += comparisons
        if produced := len(outputs):
            comparisons += round(self.output_cost * produced)
        return ProcessReceipt(comparisons=comparisons, outputs=outputs)

    def _harvested_probe(
        self, tup: StreamTuple, now: float
    ) -> tuple[list[JoinResult], int]:
        i = tup.stream
        order = self.orders[i]
        harvest = self.harvest

        # run-based slicing: the merge work was done once at selection
        # time (HarvestConfiguration.selected_runs), so each probe pays
        # two binary searches per (run, physical window)
        def slices_for_hop(hop: int, window_stream: int):
            return harvest.run_slices_for_hop(
                self.windows[window_stream],
                i,
                hop,
                now,
                reference=tup.timestamp,
            )

        result = self._kernel(tup, order, slices_for_hop, self.predicate)
        if self._obs_comparisons is not None:
            per_hop = self._obs_comparisons[i]
            for hop, stats in enumerate(result.hop_stats):
                per_hop[hop].inc(stats.scanned)
        return result.outputs, result.comparisons

    def _shredded_probe(
        self, tup: StreamTuple, now: float
    ) -> tuple[list[JoinResult], int]:
        i = tup.stream
        order = self.orders[i]
        slices_for_hop = shred_slices_for_hop(
            self.windows, order, self.throttle.z, now
        )
        result = self._kernel(tup, order, slices_for_hop, self.predicate)
        for hop, stats in enumerate(result.hop_stats):
            self.selectivity.observe(
                i, order[hop], stats.scanned, stats.matched
            )
        self._learn_from_outputs(result.outputs)
        return result.outputs, result.comparisons

    def _learn_from_outputs(self, outputs: list[JoinResult]) -> None:
        """Update the per-stream histograms ``L_s`` from shredding output."""
        for result in outputs:
            ts0 = result.constituents[0].timestamp
            for s in range(1, self.num_streams):
                self.histograms[s].add(
                    result.constituents[s].timestamp - ts0
                )

    # ------------------------------------------------------------------
    # adaptation
    # ------------------------------------------------------------------

    def on_adapt(
        self, now: float, stats: list[BufferStats], interval: float
    ) -> None:
        """One adaptation step: throttle, relearn, reconfigure harvesting."""
        z = self.throttle.update_from_stats(stats)
        if self._obs_handles is not None:
            self._obs_handles["z"].observe(now, z)
            self._obs_handles["beta"].observe(now, self.throttle.last_beta)
        for hist in self.histograms[1:]:
            hist.decay(self.histogram_decay)
        for s in range(self.num_streams):
            rate = stats[s].push_rate(interval)
            if rate > 0:
                self._rates[s] = rate
        # selectivity aging, order refresh, index tick + telemetry
        super().on_adapt(now, stats, interval)
        self._reconfigure_harvesting(now, z)
        self.adaptations += 1
        if self._obs_handles is not None:
            self._obs_handles["adaptations"].inc()
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "adapt t=%.1f beta=%.3f z=%.3f counts=%s",
                now,
                self.throttle.last_beta,
                z,
                self.harvest.counts.tolist(),
            )

    def _scores_cached(self, i: int, l: int) -> np.ndarray:
        """Eq. 2/4 scores for ``(i, l)``, memoized on histogram versions.

        The convolution depends only on the histograms of streams ``i``
        and ``l`` (stream 0 has none), so the cached array stays valid
        until one of them changes — a ``histogram_decay`` that actually
        rescales counts bumps the version and invalidates, a no-op decay
        of an empty histogram does not.  Callers must not mutate the
        returned array.
        """
        key = (i, l)
        versions = (
            self.histograms[i].version if i != 0 else -1,
            self.histograms[l].version if l != 0 else -1,
        )
        entry = self._score_cache.get(key)
        if entry is not None and entry[0] == versions:
            self.score_cache_hits += 1
            if self._obs_handles is not None:
                self._obs_handles["score_hit"].inc()
            return entry[1]
        scores = scores_from_histograms(
            self.histograms, i, l, self.basic_window_size, self.segments[l]
        )
        self._score_cache[key] = (versions, scores)
        self.score_cache_misses += 1
        if self._obs_handles is not None:
            self._obs_handles["score_miss"].inc()
        return scores

    def build_profile(self, now: float) -> JoinProfile:
        """Snapshot the current state as a :class:`JoinProfile`."""
        m = self.num_streams
        window_counts = np.array(
            [w.count_unexpired(now) for w in self.windows], dtype=float
        )
        masses = []
        for i in range(m):
            per_dir = []
            for l in self.orders[i]:
                per_dir.append(self._scores_cached(i, l))
            masses.append(per_dir)
        return JoinProfile(
            rates=self._rates.copy(),
            window_counts=window_counts,
            segments=np.asarray(self.segments),
            selectivity=np.asarray(self.selectivity.matrix()),
            orders=[list(o) for o in self.orders],
            masses=masses,
            output_cost=self.output_cost,
        )

    def _reconfigure_harvesting(self, now: float, z: float) -> None:
        if z >= 1.0:
            self.harvest = HarvestConfiguration.full(
                self.num_streams, self.segments
            )
            self._warm_counts = None  # a full config is not a greedy seed
            if self._obs_handles is not None:
                self._obs_record_harvest(self.harvest.counts)
                self.obs.explain(explain_adaptation(
                    now, self.build_profile(now), z,
                    self.throttle.last_beta,
                ))
            return
        profile = self.build_profile(now)
        warm = None
        if (
            self.warm_start
            and self._warm_counts is not None
            and self._warm_orders == self.orders
        ):
            warm = self._warm_counts
        timer = self.solver_timer
        started = timer() if timer is not None else 0.0
        if self._obs_handles is not None:
            with self.obs.span(f"solver.{self.solver}") as span:
                result = self._solve(profile, z, warm)
                span.annotate(
                    steps=result.steps,
                    evaluations=result.evaluations,
                    reused=result.reused,
                )
        else:
            result = self._solve(profile, z, warm)
        if timer is not None:
            self.solver_seconds_total += timer() - started
        if self.warm_start:
            if result.reused > 0:
                self.warmstart_hits += 1
                if self._obs_handles is not None:
                    self._obs_handles["warm_hit"].inc()
            else:
                self.warmstart_misses += 1
                if self._obs_handles is not None:
                    self._obs_handles["warm_miss"].inc()
            self._warm_counts = result.counts.copy()
            self._warm_orders = [list(o) for o in self.orders]
        rankings = [
            [profile.ranking(i, j) for j in range(self.num_streams - 1)]
            for i in range(self.num_streams)
        ]
        self.harvest = HarvestConfiguration(result.counts, rankings)
        self.last_solver_result = result
        if self._obs_handles is not None:
            self._obs_handles["solver_steps"].inc(result.steps)
            self._obs_handles["solver_evals"].inc(result.evaluations)
            self._obs_record_harvest(result.counts)
            self.obs.explain(explain_adaptation(
                now, profile, z, self.throttle.last_beta, solver=result,
            ))
        if self.memory_saving:
            before = self.tuples_evicted
            self._evict_unprobed_segments(now)
            if self._obs_handles is not None:
                self._obs_handles["evicted"].inc(
                    self.tuples_evicted - before
                )

    def _solve(
        self,
        profile: JoinProfile,
        z: float,
        warm_start: np.ndarray | None = None,
    ):
        """Run the configured solver on ``profile`` under budget ``z``."""
        if self.solver == "double-sided":
            return greedy_double_sided(
                profile, z, self.metric, self.fractional_fallback,
                warm_start,
            )
        return greedy_pick(
            profile, z, self.metric, self.fractional_fallback, warm_start
        )

    def _evict_unprobed_segments(self, now: float) -> None:
        """Memory-saving mode: drop basic windows no direction will probe.

        For each window, find the oldest logical basic window any join
        direction currently selects; everything older (plus one guard
        segment for the rotation phase) is evicted early.  Window
        shredding loses access to the evicted history — the inherent
        cost of shedding memory.
        """
        m = self.num_streams
        b = self.basic_window_size
        for l in range(m):
            deepest = 0
            for i in range(m):
                if i == l:
                    continue
                j = self.orders[i].index(l)
                selected = self.harvest.selected_windows(i, j)
                if len(selected):
                    deepest = max(deepest, int(selected.max()) + 1)
                partial = self.harvest.fractional_window(i, j)
                if partial is not None:
                    deepest = max(deepest, partial[0] + 1)
            horizon = (deepest + 1) * b  # +1 guard for the rotation phase
            self.tuples_evicted += self.windows[l].evict_older_than(
                horizon, now
            )

    def describe(self) -> str:
        return (
            f"GrubJoin(m={self.num_streams}, solver={self.solver}, "
            f"metric={self.metric.value})"
        )
