"""Shedding-decision explainer: *why* each basic window was kept or shed.

Every GrubJoin adaptation tick picks, per join direction ``i`` and hop
``j``, which logical basic windows to harvest.  The aggregates
(``SimulationResult``, harvest-fraction gauges) say *what* was picked;
this module records *why*: each window's score ``p^v_{i,j}``, its rank in
the ordering ``s^v_{i,j}`` (Section 4.2.1), and whether it survived the
Section 4 budget constraint ``C({z}) <= z * C(1)``.  When the testkit's
differential harness flags a divergence, the matching
:class:`AdaptationExplanation` pins it to a concrete solver decision.

The records are plain dataclasses built from a
:class:`~repro.core.cost_model.JoinProfile` snapshot plus the solver's
:class:`~repro.core.solver_result.SolverResult` — both are passed in, so
this module stays import-free of the simulator packages (no cycles:
``repro.engine`` itself imports ``repro.obs``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cost_model import JoinProfile
    from repro.core.harvesting import HarvestConfiguration
    from repro.core.solver_result import SolverResult

#: why a logical basic window was kept / shed
REASON_SELECTED = "selected"          # fully scanned: rank < floor(count)
REASON_FRACTIONAL = "fractional"      # strided scan of the marginal window
REASON_BUDGET = "budget"              # cut by the §4 feasibility constraint
REASON_NO_SHEDDING = "no-shedding"    # z >= 1: the full join runs


@dataclass(frozen=True, slots=True)
class WindowDecision:
    """One logical basic window's fate at one adaptation tick.

    Attributes:
        window: 0-based logical basic window index (0 = most recent).
        score: the window's score ``p^{window+1}_{i,j}``.
        rank: 0-based position in the direction/hop ranking (0 = best).
        kept: whether any of the window is scanned this interval.
        fraction: scanned fraction — 1.0 full, in (0, 1) for the strided
            marginal window, 0.0 when shed.
        reason: one of the ``REASON_*`` constants.
    """

    window: int
    score: float
    rank: int
    kept: bool
    fraction: float
    reason: str


@dataclass(frozen=True, slots=True)
class DirectionDecision:
    """All window decisions for one ``(direction, hop)`` pair.

    Attributes:
        direction: probing stream ``i``.
        hop: hop index ``j`` within direction ``i``'s join order.
        probed_stream: the stream ``l = r_{i,j}`` whose window is scanned.
        segments: number of logical basic windows ``n_l``.
        count: solver-selected window count (fractional part = strided).
        fraction: the harvest fraction ``z_{i,j} = count / segments``.
        windows: per-window decisions, in window-index order.
    """

    direction: int
    hop: int
    probed_stream: int
    segments: int
    count: float
    fraction: float
    windows: tuple[WindowDecision, ...]

    def fully_kept_windows(self) -> list[int]:
        """Window indices scanned in full, best rank first — the exact
        set :meth:`HarvestConfiguration.selected_windows` returns."""
        kept = [w for w in self.windows if w.reason in
                (REASON_SELECTED, REASON_NO_SHEDDING)]
        kept.sort(key=lambda w: w.rank)
        return [w.window for w in kept]


@dataclass(frozen=True, slots=True)
class AdaptationExplanation:
    """The full story of one adaptation tick's shedding decision.

    Attributes:
        time: virtual time of the tick.
        z: throttle fraction the solver was given.
        beta: the tick's measured consumption ratio (``popped/pushed``).
        budget: the §4 budget ``z * C(1)`` (0 when no solve ran).
        full_cost: modeled full-join cost ``C(1)``.
        modeled_cost: modeled cost ``C({z})`` of the chosen setting.
        modeled_output: modeled output ``O({z})`` of the chosen setting.
        solver_method: solver label, or ``"full"`` when ``z >= 1``.
        steps: solver steps applied (0 when no solve ran).
        evaluations: candidate settings the solver evaluated.
        directions: per-(direction, hop) decisions.
        worker: originating worker id when the record was shipped from a
            process-parallel shard (``None`` for single-process runs —
            omitted from the export, so existing recordings are
            unchanged).
    """

    time: float
    z: float
    beta: float
    budget: float
    full_cost: float
    modeled_cost: float
    modeled_output: float
    solver_method: str
    steps: int
    evaluations: int
    directions: tuple[DirectionDecision, ...] = field(default_factory=tuple)
    worker: int | None = None

    def decision(self, direction: int, hop: int) -> DirectionDecision:
        """The decision record for one ``(direction, hop)`` pair."""
        for d in self.directions:
            if d.direction == direction and d.hop == hop:
                return d
        raise KeyError(f"no decision for direction={direction} hop={hop}")

    def selected_windows(self, direction: int, hop: int) -> list[int]:
        """Fully scanned window indices — reconstructs the solver's
        selection for direct comparison against
        ``HarvestConfiguration.selected_windows``."""
        return self.decision(direction, hop).fully_kept_windows()

    def to_dict(self) -> dict:
        """Plain-data form for the JSONL exporter (stable key order is
        applied by the exporter's ``sort_keys``)."""
        provenance = {} if self.worker is None else {"worker": self.worker}
        return {
            **provenance,
            "time": self.time,
            "z": self.z,
            "beta": self.beta,
            "budget": self.budget,
            "full_cost": self.full_cost,
            "modeled_cost": self.modeled_cost,
            "modeled_output": self.modeled_output,
            "solver_method": self.solver_method,
            "steps": self.steps,
            "evaluations": self.evaluations,
            "directions": [
                {
                    "direction": d.direction,
                    "hop": d.hop,
                    "probed_stream": d.probed_stream,
                    "segments": d.segments,
                    "count": d.count,
                    "fraction": d.fraction,
                    "windows": [
                        {
                            "window": w.window,
                            "score": w.score,
                            "rank": w.rank,
                            "kept": w.kept,
                            "fraction": w.fraction,
                            "reason": w.reason,
                        }
                        for w in d.windows
                    ],
                }
                for d in self.directions
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AdaptationExplanation":
        """Inverse of :meth:`to_dict` (used by the run inspector)."""
        directions = tuple(
            DirectionDecision(
                direction=d["direction"],
                hop=d["hop"],
                probed_stream=d["probed_stream"],
                segments=d["segments"],
                count=d["count"],
                fraction=d["fraction"],
                windows=tuple(
                    WindowDecision(
                        window=w["window"],
                        score=w["score"],
                        rank=w["rank"],
                        kept=w["kept"],
                        fraction=w["fraction"],
                        reason=w["reason"],
                    )
                    for w in d["windows"]
                ),
            )
            for d in data.get("directions", ())
        )
        return cls(
            time=data["time"],
            z=data["z"],
            beta=data["beta"],
            budget=data["budget"],
            full_cost=data["full_cost"],
            modeled_cost=data["modeled_cost"],
            modeled_output=data["modeled_output"],
            solver_method=data["solver_method"],
            steps=data["steps"],
            evaluations=data["evaluations"],
            directions=directions,
            worker=data.get("worker"),
        )


def _direction_decisions(
    profile: "JoinProfile",
    counts,
    no_shedding: bool,
) -> tuple[DirectionDecision, ...]:
    """Window-level decisions for every (direction, hop) pair."""
    m = profile.m
    decisions: list[DirectionDecision] = []
    for i in range(m):
        order = profile.orders[i]
        for j in range(m - 1):
            scores = profile.masses[i][j]
            ranking = profile.ranking(i, j)
            segments = profile.hop_segments(i, j)
            count = float(counts[i][j])
            whole = int(count)
            frac = count - whole
            # rank position of each window index
            rank_of = {int(w): r for r, w in enumerate(ranking)}
            windows: list[WindowDecision] = []
            for v in range(segments):
                rank = rank_of[v]
                if no_shedding:
                    kept, fraction, reason = True, 1.0, REASON_NO_SHEDDING
                elif rank < whole:
                    kept, fraction, reason = True, 1.0, REASON_SELECTED
                elif rank == whole and frac > 0.0:
                    kept, fraction, reason = True, frac, REASON_FRACTIONAL
                else:
                    kept, fraction, reason = False, 0.0, REASON_BUDGET
                windows.append(WindowDecision(
                    window=v,
                    score=float(scores[v]),
                    rank=rank,
                    kept=kept,
                    fraction=fraction,
                    reason=reason,
                ))
            decisions.append(DirectionDecision(
                direction=i,
                hop=j,
                probed_stream=int(order[j]),
                segments=segments,
                count=count,
                fraction=count / segments if segments else 0.0,
                windows=tuple(windows),
            ))
    return tuple(decisions)


def explain_adaptation(
    now: float,
    profile: "JoinProfile",
    z: float,
    beta: float,
    solver: "SolverResult | None" = None,
    counts: Sequence[Sequence[float]] | None = None,
) -> AdaptationExplanation:
    """Build the explanation record for one adaptation tick.

    Args:
        now: virtual time of the tick.
        profile: the :class:`JoinProfile` snapshot the solver saw (its
            ``masses``/``ranking`` carry the scores ``p^v_{i,j}``).
        z: throttle fraction in effect.
        beta: the tick's measured consumption ratio.
        solver: the solver's result; ``None`` means no solve ran
            (``z >= 1``, the full join).
        counts: harvest counts actually installed; defaults to the
            solver's counts, or the full configuration when no solve ran.
    """
    full_cost = float(profile.full_cost())
    if solver is None:
        chosen = (
            counts if counts is not None else profile.full_counts()
        )
        return AdaptationExplanation(
            time=float(now),
            z=float(z),
            beta=float(beta),
            budget=full_cost,
            full_cost=full_cost,
            modeled_cost=full_cost,
            modeled_output=float(profile.output(profile.full_counts())),
            solver_method="full",
            steps=0,
            evaluations=0,
            directions=_direction_decisions(profile, chosen,
                                            no_shedding=True),
        )
    chosen = counts if counts is not None else solver.counts
    return AdaptationExplanation(
        time=float(now),
        z=float(z),
        beta=float(beta),
        budget=float(z) * full_cost,
        full_cost=full_cost,
        modeled_cost=float(solver.cost),
        modeled_output=float(solver.output),
        solver_method=solver.method,
        steps=int(solver.steps),
        evaluations=int(solver.evaluations),
        directions=_direction_decisions(profile, chosen, no_shedding=False),
    )
