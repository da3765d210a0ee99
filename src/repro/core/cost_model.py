"""Cost and output models ``C({z_ij})`` / ``O({z_ij})`` (Section 4.2.2).

The paper defers the exact formulations to a technical report that is not
publicly available; following its statement that they mirror the standard
MJoin pipeline models (Kang et al., Ayad & Naughton) *with time
correlations integrated*, we use the per-direction pipeline model below.

For direction ``i`` with join order ``R_i = (l_1, .., l_{m-1})``, window
tuple counts ``|W_l|`` and per-hop selectivities ``sigma[i][l]``, a probing
tuple from ``S_i`` processed with harvest counts ``c_{i,j}`` (number of
logical basic windows selected at hop ``j``, out of ``n_{l_j}``) costs and
yields::

    partials_0 = 1
    comparisons_j = partials_{j-1} * (c_{i,j} / n_{l_j}) * |W_{l_j}|
    partials_j    = partials_{j-1} * sigma[i][l_j] * |W_{l_j}| * q_{i,j}(c_{i,j})

``q_{i,j}(c)`` is the *harvested probability mass*: the fraction of the
time-correlation mass (the logical basic window scores ``p^k_{i,j}``)
covered by the ``c`` top-ranked windows.  Scanning cost scales with the
*fraction of tuples* scanned, while match carry-through scales with the
*fraction of matches* captured — that asymmetry is exactly why harvesting
beats uniform tuple dropping when the mass is concentrated.

``C`` and ``O`` aggregate over directions weighted by stream rates; with
all counts full, ``q = 1`` and the model reduces to the classical MJoin
pipeline model (a unit-tested invariant).

The greedy solvers evaluate a profile thousands of times per solve, so a
profile reads its numbers from one per-hop table of Python scalars built
at construction (:class:`_Hop`: ``n``, ``|W|``, ``sigma * |W|``, the total
mass and the sorted masses).  The covered prefix mass of ``whole`` windows
is memoised per hop the first time it is asked for, and always computed
with the same expression, ``sorted_mass[:whole].sum()``: numpy sums eight
or more elements pairwise, so a running ``cumsum`` table would round
differently and could flip a greedy tie.  Same expression, same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scores import rank_scores

#: type alias: counts[i][j] = number of selected logical windows (may be
#: fractional; the trailing fraction pro-rates the next-ranked window)
HarvestCounts = np.ndarray


class _Hop:
    """The scalars of one hop ``(i, j)`` that ``C`` and ``O`` read.

    Attributes:
        n: logical windows of the probed stream, ``n_{r_{i,j}}``.
        w: its window size ``|W_{r_{i,j}}|`` in tuples.
        sigma_w: ``sigma[i][r_{i,j}] * |W_{r_{i,j}}|``.
    """

    __slots__ = ("n", "w", "sigma_w", "_sorted", "_sorted_list", "_total",
                 "_covered")

    def __init__(
        self, n: int, w: float, sigma: float, sorted_mass: np.ndarray
    ) -> None:
        self.n = n
        self.w = w
        self.sigma_w = sigma * w
        self._sorted = sorted_mass
        self._sorted_list = sorted_mass.tolist()
        self._total = float(sorted_mass.sum())
        # covered[whole] = float(sorted_mass[:whole].sum()); both ends are
        # known without summing: [:0] is empty and [:n] is the whole array
        self._covered: list[float | None] = [None] * (n + 1)
        self._covered[0] = 0.0
        self._covered[n] = self._total

    def q(self, count: float) -> float:
        """``q_{i,j}(count)`` for a ``count`` already clamped to
        ``[0, n]`` (see :meth:`JoinProfile.harvest_mass`)."""
        if self._total <= 0.0:
            return count / self.n
        whole = int(count)
        covered = self._covered[whole]
        if covered is None:
            covered = float(self._sorted[:whole].sum())
            self._covered[whole] = covered
        frac = count - whole
        if frac > 0 and whole < self.n:
            covered += frac * self._sorted_list[whole]
        return covered / self._total


@dataclass
class JoinProfile:
    """Everything the optimal-window-harvesting problem needs to know.

    Attributes:
        rates: per-stream arrival rates ``lambda_i`` (tuples/sec).
        window_counts: per-stream window sizes ``|W_l|`` in tuples.
        segments: per-stream number of logical basic windows ``n_l``.
        selectivity: ``m x m`` per-hop selectivities ``sigma[i][l]``.
        orders: join orders ``R_i`` (stream indices, length ``m - 1``).
        masses: ``masses[i][j][k]`` = score ``p^{k+1}_{i,j}`` of logical
            basic window ``k+1`` of the ``j``-th window in ``R_i``.
        output_cost: work units charged per produced output tuple, added to
            the comparison cost so the budget accounts for result
            construction (0 reproduces the paper's pure-comparison model).
    """

    rates: np.ndarray
    window_counts: np.ndarray
    segments: np.ndarray
    selectivity: np.ndarray
    orders: list[list[int]]
    masses: list[list[np.ndarray]]
    output_cost: float = 0.0
    _rankings: list[list[np.ndarray]] = field(init=False, repr=False)
    _hops: list[list[_Hop]] = field(init=False, repr=False)
    _lams: list[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.rates = np.asarray(self.rates, dtype=float)
        self.window_counts = np.asarray(self.window_counts, dtype=float)
        self.segments = np.asarray(self.segments, dtype=int)
        self.selectivity = np.asarray(self.selectivity, dtype=float)
        m = self.m
        if not (
            len(self.window_counts) == m
            and len(self.segments) == m
            and self.selectivity.shape == (m, m)
            and len(self.orders) == m
            and len(self.masses) == m
        ):
            raise ValueError("inconsistent profile dimensions")
        segments = self.segments.tolist()
        for i, order in enumerate(self.orders):
            if sorted(order) != sorted(set(range(m)) - {i}):
                raise ValueError(f"order for direction {i} is invalid")
            if len(self.masses[i]) != m - 1:
                raise ValueError(f"masses for direction {i} incomplete")
            for j, l in enumerate(order):
                if len(self.masses[i][j]) != segments[l]:
                    raise ValueError(
                        f"masses[{i}][{j}] must have n_{l}="
                        f"{segments[l]} entries"
                    )
        window_counts = self.window_counts.tolist()
        selectivity = self.selectivity.tolist()
        self._rankings = []
        self._hops = []
        self._lams = self.rates.tolist()
        for i, order in enumerate(self.orders):
            ranks_i, hops_i = [], []
            for j, l in enumerate(order):
                mass = np.asarray(self.masses[i][j], dtype=float)
                if (mass < 0).any():
                    raise ValueError("scores must be non-negative")
                order_desc = rank_scores(mass)
                ranks_i.append(order_desc)
                hops_i.append(_Hop(
                    segments[l], window_counts[l], selectivity[i][l],
                    mass[order_desc],
                ))
            self._rankings.append(ranks_i)
            self._hops.append(hops_i)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @property
    def m(self) -> int:
        """Number of input streams."""
        return len(self.rates)

    def hop_segments(self, i: int, j: int) -> int:
        """``n_{r_{i,j}}``: logical windows in hop ``j`` of direction ``i``."""
        return self._hops[i][j].n

    def ranking(self, i: int, j: int) -> np.ndarray:
        """``s_{i,j}``: logical-window indices (0-based) by descending
        score — ``ranking(i, j)[v]`` is the rank-``v+1`` window."""
        return self._rankings[i][j]

    def full_counts(self) -> HarvestCounts:
        """Counts selecting every logical window everywhere."""
        counts = np.zeros((self.m, self.m - 1))
        for i in range(self.m):
            for j in range(self.m - 1):
                counts[i, j] = self.hop_segments(i, j)
        return counts

    # ------------------------------------------------------------------
    # harvested mass
    # ------------------------------------------------------------------

    def harvest_mass(self, i: int, j: int, count: float) -> float:
        """``q_{i,j}(count)``: fraction of the time-correlation mass covered
        by the ``count`` top-ranked logical windows of hop ``j``.

        Fractional counts pro-rate the next-ranked window.  When the score
        vector is all-zero (no information), mass degrades to the uniform
        ``count / n`` — harvesting then behaves like a random subset, the
        paper's no-time-correlation limiting case.
        """
        hop = self._hops[i][j]
        return hop.q(min(max(count, 0.0), hop.n))

    # ------------------------------------------------------------------
    # cost / output
    # ------------------------------------------------------------------

    def direction_terms(
        self, i: int, counts_i: np.ndarray
    ) -> tuple[float, float]:
        """Rate-weighted (cost, output) contribution of direction ``i``.

        ``counts_i`` holds the harvest counts for each hop of ``R_i``
        (any sequence of numbers: the greedy passes plain lists).
        """
        partials = 1.0
        comparisons = 0.0
        for hop, count in zip(self._hops[i], counts_i):
            n = hop.n
            count = min(max(float(count), 0.0), n)
            comparisons += partials * (count / n) * hop.w
            partials *= hop.sigma_w * hop.q(count)
            if partials <= 0.0:
                break
        lam = self._lams[i]
        output = lam * partials
        cost = lam * comparisons + self.output_cost * output
        return cost, output

    def evaluate(self, counts: HarvestCounts) -> tuple[float, float]:
        """``(C({z}), O({z}))`` for the given harvest counts."""
        counts = np.asarray(counts, dtype=float)
        if counts.shape != (self.m, self.m - 1):
            raise ValueError(
                f"counts must be shaped ({self.m}, {self.m - 1})"
            )
        cost = output = 0.0
        for i in range(self.m):
            c_i, o_i = self.direction_terms(i, counts[i])
            cost += c_i
            output += o_i
        return cost, output

    def cost(self, counts: HarvestCounts) -> float:
        """``C({z})`` alone."""
        return self.evaluate(counts)[0]

    def output(self, counts: HarvestCounts) -> float:
        """``O({z})`` alone."""
        return self.evaluate(counts)[1]

    def full_cost(self) -> float:
        """``C(1)``: cost of the full, un-harvested join (the sum
        :meth:`evaluate` forms for :meth:`full_counts`, in its order)."""
        cost = 0.0
        for i, hops in enumerate(self._hops):
            cost += self.direction_terms(i, [hop.n for hop in hops])[0]
        return cost

    def feasible(self, counts: HarvestCounts, throttle: float) -> bool:
        """The optimal-window-harvesting constraint
        ``z * C(1) >= C({z_ij})`` (with a tiny numerical allowance)."""
        return self.cost(counts) <= throttle * self.full_cost() * (1 + 1e-12)


def uniform_masses(
    segments: np.ndarray | list[int], orders: list[list[int]]
) -> list[list[np.ndarray]]:
    """Score masses for streams with no time correlation: every logical
    basic window equally likely to hold a match."""
    segments = np.asarray(segments, dtype=int)
    out: list[list[np.ndarray]] = []
    for order in orders:
        out.append(
            [np.full(segments[l], 1.0 / segments[l]) for l in order]
        )
    return out
