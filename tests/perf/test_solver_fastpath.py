"""Solver fast path: candidate memoization, warm starts, score caching,
and bit-identity of the table-driven cost model, greedy and Eq. 4."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core import EquiWidthHistogram, GrubJoinOperator, greedy_pick
from repro.core.greedy import (
    Metric,
    _fractional_initialization,
    _score,
    greedy_double_sided,
    greedy_reverse,
)
from repro.core.scores import scores_from_histograms
from repro.core.solver_result import SolverResult
from repro.experiments import random_instance
from repro.joins.predicates import EpsilonJoin
from repro.streams.tuples import StreamTuple


class _CountingProfile:
    def __init__(self, inner):
        self._inner = inner
        self.calls = Counter()

    def direction_terms(self, i, counts):
        self.calls[i] += 1
        return self._inner.direction_terms(i, counts)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestMemoization:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("z", [0.05, 0.2, 0.5, 0.9])
    def test_evaluations_equal_actual_calls(self, seed, z):
        profile = random_instance(m=3, segments=8, rng=seed)
        counting = _CountingProfile(profile)
        result = greedy_pick(counting, z)
        assert result.evaluations == sum(counting.calls.values())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reverse_evaluations_equal_actual_calls(self, seed):
        profile = random_instance(m=4, segments=6, rng=seed)
        counting = _CountingProfile(profile)
        result = greedy_reverse(counting, 0.4)
        # the m full-count seeding calls are not "candidate evaluations"
        assert (
            result.evaluations
            == sum(counting.calls.values()) - profile.m
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_memoized_candidates_cost_less_than_one_eval_per_round(
        self, seed
    ):
        """Each applied step invalidates one direction: the evaluation
        count stays near steps * hops instead of steps * m * hops."""
        profile = random_instance(m=4, segments=8, rng=seed)
        result = greedy_pick(profile, 0.5)
        m, hops = profile.m, profile.m - 1
        # worst case without memoization would be ~steps * m * hops
        assert result.evaluations <= (result.steps + 1) * (hops + 1) + m


class TestWarmStart:
    def test_accepted_seed_reports_reused_and_stays_feasible(self):
        profile = random_instance(m=3, segments=10, rng=1)
        cold = greedy_pick(profile, 0.4)
        warm = greedy_pick(profile, 0.4, warm_start=cold.counts)
        assert warm.reused == int(round(cold.counts.sum()))
        assert warm.reused > 0
        assert "+warm" in warm.method
        assert profile.feasible(warm.counts, 0.4)
        # refining the converged solution adds nothing
        assert np.array_equal(warm.counts, cold.counts)
        assert warm.output == pytest.approx(cold.output)
        # and costs far fewer evaluations than the cold solve
        assert warm.evaluations < cold.evaluations

    def test_warm_output_never_below_seed_output(self):
        for seed in range(5):
            profile = random_instance(m=3, segments=8, rng=seed)
            prev = greedy_pick(profile, 0.3)
            warm = greedy_pick(profile, 0.45, warm_start=prev.counts)
            assert warm.output >= prev.output - 1e-9
            assert profile.feasible(warm.counts, 0.45)

    def test_infeasible_seed_falls_back_to_cold(self):
        profile = random_instance(m=3, segments=10, rng=2)
        big = greedy_pick(profile, 0.9)
        cold = greedy_pick(profile, 0.05)
        warm = greedy_pick(profile, 0.05, warm_start=big.counts)
        assert warm.reused == 0
        assert "+warm" not in warm.method
        assert np.array_equal(warm.counts, cold.counts)

    def test_bad_shape_seed_rejected(self):
        profile = random_instance(m=3, segments=10, rng=3)
        cold = greedy_pick(profile, 0.3)
        warm = greedy_pick(profile, 0.3, warm_start=np.ones((5, 7)))
        assert warm.reused == 0
        assert np.array_equal(warm.counts, cold.counts)

    def test_fractional_seed_floors_to_zero_and_solves_cold(self):
        profile = random_instance(m=3, segments=10, rng=4)
        seed = np.full((3, 2), 0.5)
        cold = greedy_pick(profile, 0.3)
        warm = greedy_pick(profile, 0.3, warm_start=seed)
        assert warm.reused == 0
        assert np.array_equal(warm.counts, cold.counts)

    def test_double_sided_forwards_warm_start(self):
        profile = random_instance(m=3, segments=10, rng=5)
        z = 0.1  # below the switch point -> forward side
        cold = greedy_double_sided(profile, z)
        warm = greedy_double_sided(
            profile, z, warm_start=cold.counts
        )
        assert warm.reused == int(round(cold.counts.sum()))

    @pytest.mark.parametrize("seed", range(6))
    def test_warm_always_feasible(self, seed):
        rng = np.random.default_rng(seed)
        profile = random_instance(m=4, segments=6, rng=seed)
        prev = greedy_pick(profile, float(rng.uniform(0.05, 1.0)))
        z = float(rng.uniform(0.05, 1.0))
        warm = greedy_pick(profile, z, warm_start=prev.counts)
        assert profile.feasible(warm.counts, z)


def _operator(**kwargs):
    op = GrubJoinOperator(
        EpsilonJoin(1.0),
        window_sizes=[4.0, 4.0, 4.0],
        basic_window_size=1.0,
        rng=0,
        **kwargs,
    )
    now = 0.0
    rng = np.random.default_rng(7)
    for step in range(300):
        now = 0.02 * (step + 1)
        tup = StreamTuple(
            value=float(rng.uniform(0, 3)),
            timestamp=now,
            stream=step % 3,
            seq=step,
        )
        op.process(tup, now)
    op._rates[:] = 50.0
    return op, now


class TestOperatorWarmStart:
    def test_second_tick_hits(self):
        op, now = _operator(warm_start=True)
        op._reconfigure_harvesting(now, 0.4)
        assert op.warmstart_misses == 1  # no seed yet: cold
        assert op.last_solver_result.reused == 0
        op._reconfigure_harvesting(now + 0.5, 0.4)
        assert op.warmstart_hits == 1
        assert op.last_solver_result.reused > 0

    def test_full_throttle_clears_seed(self):
        op, now = _operator(warm_start=True)
        op._reconfigure_harvesting(now, 0.4)
        op._reconfigure_harvesting(now + 0.5, 1.0)  # full config
        op._reconfigure_harvesting(now + 1.0, 0.4)
        assert op.warmstart_misses == 2

    def test_order_change_invalidates_seed(self):
        op, now = _operator(warm_start=True)
        op._reconfigure_harvesting(now, 0.4)
        op.orders = [list(reversed(o)) for o in op.orders]
        op._reconfigure_harvesting(now + 0.5, 0.4)
        assert op.warmstart_hits == 0
        assert op.warmstart_misses == 2

    def test_disabled_by_default(self):
        op, now = _operator()
        op._reconfigure_harvesting(now, 0.4)
        op._reconfigure_harvesting(now + 0.5, 0.4)
        assert op.warmstart_hits == 0
        assert op.warmstart_misses == 0
        assert op.last_solver_result.reused == 0


class TestScoreCache:
    def test_second_profile_hits(self):
        op, now = _operator()
        op.build_profile(now)
        misses = op.score_cache_misses
        assert misses == 3 * 2  # one per (direction, hop)
        op.build_profile(now)
        assert op.score_cache_hits == 6
        assert op.score_cache_misses == misses

    def test_cached_scores_match_fresh_computation(self):
        op, now = _operator()
        profile = op.build_profile(now)
        op.build_profile(now)  # cached round
        for i in range(3):
            for hop, l in enumerate(op.orders[i]):
                fresh = scores_from_histograms(
                    op.histograms, i, l, op.basic_window_size,
                    op.segments[l],
                )
                np.testing.assert_array_equal(
                    profile.masses[i][hop], fresh
                )

    def test_histogram_update_invalidates_involved_pairs(self):
        op, now = _operator()
        op.build_profile(now)
        op.histograms[1].add(0.5)
        op.build_profile(now)
        # every (i, l) pair touching histogram 1 recomputes; pairs over
        # streams {0, 2} only do not
        assert op.score_cache_misses > 6
        assert op.score_cache_hits >= 1

    def test_real_decay_invalidates_noop_decay_does_not(self):
        op, now = _operator()
        op.build_profile(now)
        assert op.histograms[1].total > 0
        before = op.histograms[1].version
        op.histograms[1].decay(0.9)
        assert op.histograms[1].version == before + 1
        empty = op.histograms[2]
        empty.counts[:] = 0.0
        v = empty.version
        empty.decay(0.9)
        assert empty.version == v


# ----------------------------------------------------------------------
# bit-identity against the reference implementations
#
# The cost model reads a per-hop table, the greedy loops over Python
# rows and Eq. 4 is one reduction; none of that may move a single float.
# The reference copies below are the straightforward versions those
# replaced, kept verbatim: every comparison is ``==`` /
# ``np.array_equal``, never approximate.
# ----------------------------------------------------------------------


class _ReferenceProfile:
    """A :class:`JoinProfile` evaluated the reference way: two numpy
    reductions and numpy-scalar indexing per hop, per call."""

    def __init__(self, inner):
        self._inner = inner
        self._sorted_masses = [
            [
                np.asarray(inner.masses[i][j], dtype=float)[
                    inner.ranking(i, j)
                ]
                for j in range(inner.m - 1)
            ]
            for i in range(inner.m)
        ]

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def hop_segments(self, i, j):
        return int(self.segments[self.orders[i][j]])

    def full_counts(self):
        counts = np.zeros((self.m, self.m - 1))
        for i in range(self.m):
            for j in range(self.m - 1):
                counts[i, j] = self.hop_segments(i, j)
        return counts

    def harvest_mass(self, i, j, count):
        n = self.hop_segments(i, j)
        count = min(max(count, 0.0), n)
        sorted_mass = self._sorted_masses[i][j]
        total = float(sorted_mass.sum())
        if total <= 0.0:
            return count / n
        whole = int(count)
        covered = float(sorted_mass[:whole].sum())
        frac = count - whole
        if frac > 0 and whole < n:
            covered += frac * float(sorted_mass[whole])
        return covered / total

    def direction_terms(self, i, counts_i):
        lam = float(self.rates[i])
        partials = 1.0
        comparisons = 0.0
        for j, l in enumerate(self.orders[i]):
            n = self.hop_segments(i, j)
            count = min(max(float(counts_i[j]), 0.0), n)
            w = float(self.window_counts[l])
            comparisons += partials * (count / n) * w
            partials *= self.selectivity[i, l] * w * self.harvest_mass(
                i, j, count
            )
            if partials <= 0.0:
                break
        output = lam * partials
        cost = lam * comparisons + self.output_cost * output
        return cost, output

    def evaluate(self, counts):
        counts = np.asarray(counts, dtype=float)
        cost = output = 0.0
        for i in range(self.m):
            c_i, o_i = self.direction_terms(i, counts[i])
            cost += c_i
            output += o_i
        return cost, output

    def full_cost(self):
        return self.evaluate(self.full_counts())[0]


def _reference_greedy_pick(
    profile, throttle, metric=Metric.BEST_DELTA_OUTPUT_PER_DELTA_COST,
    fractional_fallback=True, warm_start=None,
):
    if not 0 < throttle <= 1:
        raise ValueError("throttle must be in (0, 1]")
    m = profile.m
    hops = m - 1
    budget = throttle * profile.full_cost() * (1 + 1e-12)
    counts = np.zeros((m, hops))
    initialized = [False] * m
    frozen = np.zeros((m, hops), dtype=bool)
    init_frozen = [False] * m
    dir_cost = np.zeros(m)
    dir_out = np.zeros(m)
    cur_cost = cur_out = 0.0
    evaluations = 0
    steps = 0
    reused = 0
    cached = [{} for _ in range(m)]

    if warm_start is not None:
        seed = np.floor(np.asarray(warm_start, dtype=float))
        if seed.shape == (m, hops):
            seed = np.clip(seed, 0.0, None)
            for i in range(m):
                for j in range(hops):
                    seed[i, j] = min(
                        seed[i, j], float(profile.hop_segments(i, j))
                    )
                if seed[i].min() < 1.0:
                    seed[i, :] = 0.0
            if seed.max() > 0.0:
                seed_cost = seed_out = 0.0
                seed_terms = [(0.0, 0.0)] * m
                for i in range(m):
                    if seed[i].max() > 0.0:
                        terms = profile.direction_terms(i, seed[i])
                        evaluations += 1
                        seed_terms[i] = terms
                        seed_cost += terms[0]
                        seed_out += terms[1]
                if seed_cost <= budget:
                    counts = seed
                    for i in range(m):
                        if seed[i].max() > 0.0:
                            initialized[i] = True
                            dir_cost[i], dir_out[i] = seed_terms[i]
                    cur_cost, cur_out = seed_cost, seed_out
                    reused = int(round(seed.sum()))

    while True:
        best_score = -np.inf
        best = None
        best_terms = (0.0, 0.0)
        for i in range(m):
            if initialized[i]:
                for j in range(hops):
                    if frozen[i, j]:
                        continue
                    if counts[i, j] >= profile.hop_segments(i, j):
                        continue
                    terms = cached[i].get(j)
                    if terms is None:
                        cand = counts[i].copy()
                        cand[j] += 1
                        terms = profile.direction_terms(i, cand)
                        evaluations += 1
                        cached[i][j] = terms
                    c_i, o_i = terms
                    new_cost = cur_cost - dir_cost[i] + c_i
                    if new_cost > budget:
                        frozen[i, j] = True
                        continue
                    new_out = cur_out - dir_out[i] + o_i
                    score = _score(metric, new_out, new_cost, cur_out,
                                   cur_cost)
                    if score > best_score:
                        best_score, best = score, (i, j)
                        best_terms = (c_i, o_i)
            else:
                if init_frozen[i]:
                    continue
                terms = cached[i].get(None)
                if terms is None:
                    cand = np.ones(hops)
                    terms = profile.direction_terms(i, cand)
                    evaluations += 1
                    cached[i][None] = terms
                c_i, o_i = terms
                new_cost = cur_cost - dir_cost[i] + c_i
                if new_cost > budget:
                    init_frozen[i] = True
                    continue
                new_out = cur_out - dir_out[i] + o_i
                score = _score(metric, new_out, new_cost, cur_out, cur_cost)
                if score > best_score:
                    best_score, best = score, (i, None)
                    best_terms = (c_i, o_i)
        if best is None:
            break
        i, j = best
        if j is None:
            counts[i, :] = 1.0
            initialized[i] = True
        else:
            counts[i, j] += 1
        cur_cost += best_terms[0] - dir_cost[i]
        cur_out += best_terms[1] - dir_out[i]
        dir_cost[i], dir_out[i] = best_terms
        cached[i].clear()
        steps += 1

    method = f"greedy-{metric.value}"
    if reused:
        method += "+warm"
    if fractional_fallback and counts.max() <= 0.0 and budget > 0:
        fallback = _fractional_initialization(profile, budget)
        if fallback is not None:
            counts, cur_cost, cur_out = fallback
            method += "+fractional"

    return SolverResult(
        counts=counts, cost=cur_cost, output=cur_out,
        evaluations=evaluations, method=method, steps=steps, reused=reused,
    )


def _reference_scores_from_histograms(
    histograms, i, l, basic_window_size, segments
):
    if i == l:
        raise ValueError("a direction never probes its own window")
    b = basic_window_size
    k = np.arange(1, segments + 1, dtype=float)
    if i == 0:
        hist_l = histograms[l]
        return hist_l.mass_many(-b * k, -b * (k - 1))
    hist_i = histograms[i]
    if l == 0:
        return hist_i.mass_many(b * (k - 1), b * k)
    hist_l = histograms[l]
    weights = hist_l.probabilities()
    centers = hist_l.centers()
    mass = hist_i.mass_many(
        b * (k - 1)[None, :] + centers[:, None],
        b * k[None, :] + centers[:, None],
    )
    scores = np.zeros(segments)
    for v, w in enumerate(weights):
        if w <= 0:
            continue
        scores += w * mass[v]
    return scores


def _assert_same_result(got, want):
    assert np.array_equal(got.counts, want.counts)
    assert got.cost == want.cost
    assert got.output == want.output
    assert (got.evaluations, got.steps, got.reused, got.method) == (
        want.evaluations, want.steps, want.reused, want.method
    )


_INSTANCES = [(m, seed) for m in (3, 4, 5) for seed in range(4)]


class TestBitIdentity:
    @pytest.mark.parametrize("m,seed", _INSTANCES)
    def test_direction_terms_and_harvest_mass(self, m, seed):
        # n >= 8: numpy sums eight or more elements pairwise, so only an
        # instance this wide tells the prefix expression from a cumsum
        profile = random_instance(m=m, segments=12, rng=seed)
        ref = _ReferenceProfile(profile)
        rng = np.random.default_rng(seed)
        special = [-1.0, 0.0, 0.5, 1.0, 9.0, 11.5, 12.0, 13.0, 99.0]
        for i in range(m):
            for j in range(m - 1):
                for count in special + list(rng.uniform(-2, 14, 20)):
                    assert profile.harvest_mass(i, j, count) == (
                        ref.harvest_mass(i, j, count)
                    )
            for _ in range(40):
                counts_i = rng.choice(
                    special + list(rng.uniform(-2, 14, 4)), size=m - 1
                )
                assert profile.direction_terms(i, counts_i) == (
                    ref.direction_terms(i, counts_i)
                )
                assert profile.direction_terms(i, counts_i.tolist()) == (
                    ref.direction_terms(i, counts_i)
                )
        assert profile.full_cost() == ref.full_cost()

    def test_all_zero_mass_hop_degrades_to_uniform_identically(self):
        profile = random_instance(m=4, segments=6, rng=9)
        masses = [list(per) for per in profile.masses]
        masses[1][2] = np.zeros(6)
        profile = replace(profile, masses=masses)
        ref = _ReferenceProfile(profile)
        for count in (-1.0, 0.0, 2.5, 6.0, 7.0):
            assert profile.harvest_mass(1, 2, count) == (
                ref.harvest_mass(1, 2, count)
            )
            counts_i = np.array([3.0, 2.0, count])
            assert profile.direction_terms(1, counts_i) == (
                ref.direction_terms(1, counts_i)
            )
        for z in (0.05, 0.3):
            _assert_same_result(
                greedy_pick(profile, z), _reference_greedy_pick(ref, z)
            )

    @pytest.mark.parametrize("metric", list(Metric))
    @pytest.mark.parametrize("m,seed", _INSTANCES)
    def test_greedy_pick_cold_and_warm(self, metric, m, seed):
        profile = random_instance(m=m, segments=9, rng=seed)
        ref = _ReferenceProfile(profile)
        previous = None
        for z in (0.02, 0.15, 0.4, 0.8):
            got = greedy_pick(profile, z, metric)
            _assert_same_result(got, _reference_greedy_pick(ref, z, metric))
            if previous is not None:
                _assert_same_result(
                    greedy_pick(profile, z, metric, warm_start=previous),
                    _reference_greedy_pick(
                        ref, z, metric, warm_start=previous
                    ),
                )
            previous = got.counts

    def test_fractional_fallback(self):
        exercised = 0
        for seed in range(6):
            profile = random_instance(m=3, segments=10, rng=seed)
            ref = _ReferenceProfile(profile)
            for z in (1e-4, 1e-3):
                got = greedy_pick(profile, z)
                _assert_same_result(got, _reference_greedy_pick(ref, z))
                exercised += got.method.endswith("+fractional")
        assert exercised > 0

    @pytest.mark.parametrize("m,seed", _INSTANCES)
    def test_greedy_reverse(self, m, seed):
        profile = random_instance(m=m, segments=6, rng=seed)
        ref = _ReferenceProfile(profile)
        for z in (0.3, 0.7):
            _assert_same_result(
                greedy_reverse(profile, z), greedy_reverse(ref, z)
            )


def _random_histograms(rng, m, buckets, smoothing):
    histograms = [None]
    for _ in range(1, m):
        h = EquiWidthHistogram(-6.0, 6.0, buckets, smoothing=smoothing)
        h.add_many(rng.normal(rng.uniform(-3, 3), rng.uniform(0.2, 2.0),
                              size=int(rng.integers(0, 60))))
        if rng.random() < 0.5:
            h.decay(0.8)
        histograms.append(h)
    return histograms


class _NoWeight(EquiWidthHistogram):
    def probabilities(self):
        return np.zeros(self.buckets)


class TestScoresBitIdentity:
    @pytest.mark.parametrize("m", [3, 4, 5])
    @pytest.mark.parametrize("smoothing", [0.0, 0.25])
    @pytest.mark.parametrize("segments", [1, 2, 9, 25])
    def test_every_direction_and_hop(self, m, smoothing, segments):
        # one segment is the shape on which a pairwise sum over the
        # buckets would differ from the loop's order
        rng = np.random.default_rng(m * 100 + segments)
        for _ in range(6):
            histograms = _random_histograms(
                rng, m, int(rng.integers(1, 40)), smoothing
            )
            b = float(rng.uniform(0.1, 3.0))
            for i in range(m):
                for l in range(m):
                    if i == l:
                        continue
                    assert np.array_equal(
                        scores_from_histograms(histograms, i, l, b,
                                               segments),
                        _reference_scores_from_histograms(
                            histograms, i, l, b, segments
                        ),
                    )

    def test_eq4_with_no_positive_weight(self):
        rng = np.random.default_rng(5)
        histograms = _random_histograms(rng, 3, 12, 0.0)
        histograms[2] = _NoWeight(-6.0, 6.0, 12)
        for segments in (1, 8):
            got = scores_from_histograms(histograms, 1, 2, 0.5, segments)
            want = _reference_scores_from_histograms(
                histograms, 1, 2, 0.5, segments
            )
            assert np.array_equal(got, want)
            assert np.array_equal(got, np.zeros(segments))


class TestHistogramMemo:
    @pytest.mark.parametrize("update", [
        lambda h: h.add(1.3),
        lambda h: h.add_many([-2.0, 0.4, 0.4]),
        lambda h: h.decay(0.5),
    ], ids=["add", "add_many", "decay"])
    def test_updates_invalidate_the_tables(self, update):
        # smoothed, so that a decay moves the probabilities too
        h = EquiWidthHistogram(-5.0, 5.0, 10, smoothing=0.25)
        h.add_many([0.1, 0.2, 3.3, -4.0])
        probs = h.probabilities()
        assert h.probabilities() is probs  # memo hit
        mass = h.mass_many([-5.0, -1.0], [0.15, 4.0])
        update(h)
        # the same writes, with no tables built in between
        fresh = EquiWidthHistogram(-5.0, 5.0, 10, smoothing=0.25)
        fresh.add_many([0.1, 0.2, 3.3, -4.0])
        update(fresh)
        assert not np.array_equal(h.probabilities(), probs)
        assert np.array_equal(h.probabilities(), fresh.probabilities())
        got = h.mass_many([-5.0, -1.0], [0.15, 4.0])
        assert not np.array_equal(got, mass)
        assert np.array_equal(got, fresh.mass_many([-5.0, -1.0],
                                                   [0.15, 4.0]))
