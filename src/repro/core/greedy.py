"""Greedy heuristics for setting harvest fractions (Section 5.1, Fig. 3).

The forward greedy starts from all-zero harvest fractions and repeatedly
applies the best feasible single-segment increment, where "best" is one of
three evaluation metrics:

* **BO** (Best Output) — highest resulting ``O({z})``;
* **BOpC** (Best Output per Cost) — highest ``O/C``;
* **BDOpDC** (Best Delta Output per Delta Cost) — highest marginal
  ``(O_new - O_old) / (C_new - C_old)``, the paper's winner.

A join direction is *initialized* only when every hop has a non-zero
fraction (a direction with any zero hop produces no output), so an
uninitialized direction enters the candidate set as a single all-hops
increment.  An infeasible single increment *freezes* that ``z_{i,j}``
permanently.

Also implemented: the **greedy reverse** variant (start from the full join
and peel the least valuable segments until feasible) and the **double
sided** dispatcher that picks forward or reverse based on
``z <= 0.5^{(m-1)/2}`` — the tech-report extension the paper sketches at
the end of Section 6.1.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .cost_model import JoinProfile
from .solver_result import SolverResult

_EPS = 1e-15


class Metric(str, Enum):
    """Candidate evaluation metrics of Section 5.1.2."""

    BEST_OUTPUT = "bo"
    BEST_OUTPUT_PER_COST = "bopc"
    BEST_DELTA_OUTPUT_PER_DELTA_COST = "bdopdc"


def _score(
    metric: Metric, new_out: float, new_cost: float, cur_out: float,
    cur_cost: float,
) -> float:
    if metric is Metric.BEST_OUTPUT:
        return new_out
    if metric is Metric.BEST_OUTPUT_PER_COST:
        return new_out / max(new_cost, _EPS)
    return (new_out - cur_out) / max(new_cost - cur_cost, _EPS)


def _fractional_initialization(
    profile: JoinProfile, budget: float
) -> tuple[np.ndarray, float, float] | None:
    """Sub-segment fallback when even one logical window per hop is too
    expensive.

    The paper's harvest fractions are continuous (``z_{i,j} in (0, 1]``);
    its greedy merely steps in whole logical windows.  Under extreme
    overload (tiny throttle with concentrated time correlations) a whole
    first segment can already blow the budget, which would force the
    greedy to shut the join off entirely.  Instead, initialize the single
    most productive direction at the largest fractional segment level
    ``f in (0, 1)`` that fits the budget (cost is monotone in ``f``, so a
    bisection finds it).

    Returns ``(counts, cost, output)`` or None when nothing fits.
    """
    m = profile.m
    hops = m - 1
    best: tuple[np.ndarray, float, float] | None = None
    for i in range(m):
        cost_full, _ = profile.direction_terms(i, np.ones(hops))
        if cost_full <= budget:
            f = 1.0
        else:
            lo, hi = 0.0, 1.0
            for _ in range(40):
                mid = (lo + hi) / 2
                cost_mid, _ = profile.direction_terms(
                    i, np.full(hops, mid)
                )
                if cost_mid <= budget:
                    lo = mid
                else:
                    hi = mid
            f = lo
        if f <= 0.0:
            continue
        counts_i = np.full(hops, f)
        cost_i, out_i = profile.direction_terms(i, counts_i)
        if best is None or out_i > best[2]:
            counts = np.zeros((m, hops))
            counts[i] = counts_i
            best = (counts, cost_i, out_i)
    return best


def greedy_pick(
    profile: JoinProfile,
    throttle: float,
    metric: Metric = Metric.BEST_DELTA_OUTPUT_PER_DELTA_COST,
    fractional_fallback: bool = True,
    warm_start: np.ndarray | None = None,
) -> SolverResult:
    """The forward greedy of Fig. 3.

    Complexity ``O(n * m^4)`` for equal ``n``: at most ``n * m * (m-1)``
    applied steps, each scanning up to ``m * (m-1)`` candidates whose
    evaluation touches one direction (``O(m)`` hops).

    Candidate evaluations are memoized within the solve: the terms of
    increment candidate ``(i, j)`` depend only on direction ``i``'s own
    counts, so they stay valid until a step is applied *to direction i*
    (feasibility against the growing ``cur_cost`` is still rechecked each
    round, so the freezing behavior — and hence the chosen steps — are
    exactly those of the unmemoized greedy, at far fewer
    ``direction_terms`` calls).

    The loop runs on plain Python rows — counts, segment bounds, frozen
    flags and per-direction cost/output are lists — and ``counts`` is an
    ndarray again only in the result.  Every candidate still goes through
    ``profile.direction_terms``, so ``evaluations`` is an exact call
    count, and every float is the one the ndarray version computes.

    When no integral configuration fits the budget at all, falls back to
    :func:`_fractional_initialization` so the join degrades gracefully
    instead of shutting off.

    Args:
        warm_start: optional ``(m, m-1)`` counts matrix (typically the
            previous adaptation tick's solution) used as the starting
            configuration.  The seed is floored to whole segments, clipped
            to each hop's segment count, directions with any empty hop are
            zeroed, and the result is adopted only if it fits the budget —
            otherwise the solve is cold and ``result.reused == 0``.  A
            warm solve refines the seed forward and reports the number of
            seeded segment selections in ``result.reused``; its answer is
            feasible and at least as good as the seed, but being
            path-dependent it need not equal the cold-start answer.
    """
    if not 0 < throttle <= 1:
        raise ValueError("throttle must be in (0, 1]")
    m = profile.m
    hops = m - 1
    budget = throttle * profile.full_cost() * (1 + 1e-12)
    # one list per direction: indexing and copying a short list is far
    # cheaper than numpy's scalar round trips, and the floats are the same
    segments = [
        [profile.hop_segments(i, j) for j in range(hops)] for i in range(m)
    ]
    counts = [[0.0] * hops for _ in range(m)]
    initialized = [False] * m
    frozen = [[False] * hops for _ in range(m)]
    init_frozen = [False] * m
    dir_cost = [0.0] * m
    dir_out = [0.0] * m
    cur_cost = cur_out = 0.0
    evaluations = 0
    steps = 0
    reused = 0
    # per-direction memo of candidate terms: key = hop index (increment
    # candidates) or None (the all-hops initialization candidate)
    cached: list[dict[int | None, tuple[float, float]]] = [
        {} for _ in range(m)
    ]

    if warm_start is not None:
        seed = np.floor(np.asarray(warm_start, dtype=float))
        if seed.shape == (m, hops):
            # whole segments clipped to [0, n]; only directions with no
            # empty hop are seeded
            rows = [
                [min(max(c, 0.0), float(n)) for c, n in zip(row, seg_i)]
                for row, seg_i in zip(seed.tolist(), segments)
            ]
            active = [i for i, row in enumerate(rows) if min(row) >= 1.0]
            if active:
                seed_cost = seed_out = 0.0
                seed_terms = {}
                for i in active:
                    terms = profile.direction_terms(i, rows[i])
                    evaluations += 1
                    seed_terms[i] = terms
                    seed_cost += terms[0]
                    seed_out += terms[1]
                if seed_cost <= budget:
                    for i, terms in seed_terms.items():
                        counts[i] = rows[i]
                        initialized[i] = True
                        dir_cost[i], dir_out[i] = terms
                    cur_cost, cur_out = seed_cost, seed_out
                    reused = int(sum(sum(counts[i]) for i in active))

    while True:
        best_score = -np.inf
        best: tuple[int, int | None] | None = None
        best_terms: tuple[float, float] = (0.0, 0.0)
        for i in range(m):
            cached_i = cached[i]
            if initialized[i]:
                counts_i, frozen_i = counts[i], frozen[i]
                segments_i = segments[i]
                for j in range(hops):
                    if frozen_i[j] or counts_i[j] >= segments_i[j]:
                        continue
                    terms = cached_i.get(j)
                    if terms is None:
                        cand = counts_i.copy()
                        cand[j] += 1
                        terms = profile.direction_terms(i, cand)
                        evaluations += 1
                        cached_i[j] = terms
                    c_i, o_i = terms
                    new_cost = cur_cost - dir_cost[i] + c_i
                    if new_cost > budget:
                        frozen_i[j] = True
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
                terms = cached_i.get(None)
                if terms is None:
                    terms = profile.direction_terms(i, [1.0] * hops)
                    evaluations += 1
                    cached_i[None] = terms
                c_i, o_i = terms
                new_cost = cur_cost - dir_cost[i] + c_i
                if new_cost > budget:
                    # cur_cost only grows (each applied step raises its
                    # direction's cost), so this all-hops increment can
                    # never become feasible later: freeze the direction
                    # instead of re-evaluating it every round
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
            counts[i] = [1.0] * hops
            initialized[i] = True
        else:
            counts[i][j] += 1
        cur_cost += best_terms[0] - dir_cost[i]
        cur_out += best_terms[1] - dir_out[i]
        dir_cost[i], dir_out[i] = best_terms
        cached[i].clear()  # direction i's counts changed
        steps += 1

    counts = np.array(counts, dtype=float).reshape(m, hops)
    method = f"greedy-{metric.value}"
    if reused:
        method += "+warm"
    if fractional_fallback and counts.max() <= 0.0 and budget > 0:
        fallback = _fractional_initialization(profile, budget)
        if fallback is not None:
            counts, cur_cost, cur_out = fallback
            method += "+fractional"

    return SolverResult(
        counts=counts,
        cost=cur_cost,
        output=cur_out,
        evaluations=evaluations,
        method=method,
        steps=steps,
        reused=reused,
    )


def greedy_reverse(profile: JoinProfile, throttle: float) -> SolverResult:
    """Reverse greedy: start from the full join, peel segments until the
    budget constraint holds.

    Each step removes the candidate segment with the smallest output loss
    per unit of cost saved; decrementing a hop to zero deactivates its
    whole direction (a direction with a zero hop produces nothing, so its
    remaining scanning would be pure waste).
    """
    if not 0 < throttle <= 1:
        raise ValueError("throttle must be in (0, 1]")
    m = profile.m
    hops = m - 1
    budget = throttle * profile.full_cost() * (1 + 1e-12)
    counts = profile.full_counts()
    dir_terms = [profile.direction_terms(i, counts[i]) for i in range(m)]
    cur_cost = sum(c for c, _ in dir_terms)
    cur_out = sum(o for _, o in dir_terms)
    evaluations = 0
    steps = 0
    # per-direction memo of decrement candidates (see greedy_pick): a
    # candidate's terms depend only on its own direction's counts, so the
    # memo lives until a peel is applied to that direction
    cached: list[dict[int, tuple[np.ndarray, float, float]]] = [
        {} for _ in range(m)
    ]

    while cur_cost > budget:
        best_score = np.inf
        best: tuple[int, np.ndarray, float, float] | None = None
        for i in range(m):
            if counts[i].max() <= 0:
                continue
            for j in range(hops):
                if counts[i, j] < 1:
                    continue
                entry = cached[i].get(j)
                if entry is None:
                    cand = counts[i].copy()
                    cand[j] -= 1
                    if cand[j] <= 0:
                        cand[:] = 0.0  # deactivate the direction entirely
                    c_i, o_i = profile.direction_terms(i, cand)
                    evaluations += 1
                    cached[i][j] = (cand, c_i, o_i)
                else:
                    cand, c_i, o_i = entry
                saved = (cur_cost - (cur_cost - dir_terms[i][0] + c_i))
                lost = cur_out - (cur_out - dir_terms[i][1] + o_i)
                if saved <= 0:
                    continue
                score = lost / saved
                if score < best_score:
                    best_score = score
                    best = (i, cand, c_i, o_i)
        if best is None:
            # nothing saves cost; zero everything out (always feasible)
            counts[:] = 0.0
            cur_cost = cur_out = 0.0
            break
        i, cand, c_i, o_i = best
        cur_cost += c_i - dir_terms[i][0]
        cur_out += o_i - dir_terms[i][1]
        counts[i] = cand
        dir_terms[i] = (c_i, o_i)
        cached[i].clear()  # direction i's counts changed
        steps += 1

    return SolverResult(
        counts=counts,
        cost=cur_cost,
        output=cur_out,
        evaluations=evaluations,
        method="greedy-reverse",
        steps=steps,
    )


def greedy_double_sided(
    profile: JoinProfile,
    throttle: float,
    metric: Metric = Metric.BEST_DELTA_OUTPUT_PER_DELTA_COST,
    fractional_fallback: bool = True,
    warm_start: np.ndarray | None = None,
) -> SolverResult:
    """Forward greedy for small throttle fractions, reverse for large ones.

    The switch point ``z <= 0.5^{(m-1)/2}`` is the paper's: each side then
    runs close to its best case (few steps).  ``warm_start`` only applies
    on the forward side; the reverse greedy already starts from the full
    configuration.
    """
    switch = 0.5 ** ((profile.m - 1) / 2)
    if throttle <= switch:
        result = greedy_pick(
            profile, throttle, metric, fractional_fallback, warm_start
        )
    else:
        result = greedy_reverse(profile, throttle)
    return SolverResult(
        counts=result.counts,
        cost=result.cost,
        output=result.output,
        evaluations=result.evaluations,
        method=f"greedy-double-sided({result.method})",
        steps=result.steps,
        reused=result.reused,
    )
