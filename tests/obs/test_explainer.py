"""The explainer must reconstruct the solver's decisions exactly."""

import pytest

from repro.core import FixedThrottle, GrubJoinOperator
from repro.engine import CpuModel, Simulation, SimulationConfig
from repro.joins import EpsilonJoin
from repro.obs import (
    REASON_BUDGET,
    REASON_FRACTIONAL,
    REASON_NO_SHEDDING,
    REASON_SELECTED,
    AdaptationExplanation,
    Obs,
)
from repro.testkit.workloads import drift_sources


def run_pinned(z, duration=8.0, solver="greedy"):
    """A GrubJoin run pinned at an exact throttle fraction, instrumented."""
    op = GrubJoinOperator(
        EpsilonJoin(1.0), [8.0] * 3, 1.0, rng=3, solver=solver
    )
    op.throttle = FixedThrottle(z)
    obs = Obs()
    cfg = SimulationConfig(duration=duration, warmup=0.0,
                           adaptation_interval=2.0)
    sources = drift_sources(m=3, rate=30.0, seed=5,
                            lags=[0.0, 1.0, 2.0])
    Simulation(sources, op, CpuModel(5e4), cfg, obs=obs).run()
    return op, obs


class TestPinnedZReconstruction:
    @pytest.mark.parametrize("z", [0.25, 0.5, 0.8])
    def test_selected_windows_match_harvest_configuration(self, z):
        op, obs = run_pinned(z)
        explanation = obs.decisions[-1]
        assert explanation is not None
        assert explanation.z == z
        # the last explanation and op.harvest describe the same tick:
        # the explainer must reproduce the exact basic-window selection
        m = op.num_streams
        for i in range(m):
            for j in range(m - 1):
                expected = [int(w) for w in op.harvest.selected_windows(i, j)]
                assert explanation.selected_windows(i, j) == expected
                decision = explanation.decision(i, j)
                assert decision.count == pytest.approx(
                    float(op.harvest.counts[i, j])
                )
                frac = op.harvest.fractional_window(i, j)
                fractional = [w for w in decision.windows
                              if w.reason == REASON_FRACTIONAL]
                if frac is None:
                    assert fractional == []
                else:
                    window, fraction = frac
                    assert [w.window for w in fractional] == [window]
                    assert fractional[0].fraction == pytest.approx(fraction)

    def test_solver_metadata_recorded(self):
        op, obs = run_pinned(0.5)
        explanation = obs.decisions[-1]
        result = op.last_solver_result
        assert explanation.solver_method == result.method
        assert explanation.steps == result.steps
        assert explanation.evaluations == result.evaluations
        assert explanation.modeled_cost == pytest.approx(result.cost)
        assert explanation.modeled_output == pytest.approx(result.output)
        # §4 budget: the chosen setting must fit under z * C(1)
        assert explanation.budget == pytest.approx(
            0.5 * explanation.full_cost
        )
        assert explanation.modeled_cost <= explanation.budget * (1 + 1e-9)

    def test_one_explanation_per_adaptation_tick(self):
        # ticks at t = 2, 4, 6, 8 over an 8 s run
        op, obs = run_pinned(0.5)
        assert len(obs.decisions) == op.adaptations == 4

    def test_budget_reason_windows_are_shed(self):
        _, obs = run_pinned(0.25)
        explanation = obs.decisions[-1]
        reasons = {w.reason
                   for d in explanation.directions for w in d.windows}
        # at z=0.25 some windows must be cut by the budget
        assert REASON_BUDGET in reasons
        for d in explanation.directions:
            for w in d.windows:
                if w.reason == REASON_BUDGET:
                    assert not w.kept and w.fraction == 0.0
                elif w.reason == REASON_SELECTED:
                    assert w.kept and w.fraction == 1.0

    def test_no_shedding_at_full_throttle(self):
        op, obs = run_pinned(1.0)
        explanation = obs.decisions[-1]
        assert explanation.solver_method == "full"
        assert explanation.steps == 0
        reasons = {w.reason
                   for d in explanation.directions for w in d.windows}
        assert reasons == {REASON_NO_SHEDDING}
        # every window is kept; the full configuration lists them in
        # natural order while the explainer ranks by score, so compare
        # as sets
        m = op.num_streams
        for i in range(m):
            for j in range(m - 1):
                assert (sorted(explanation.selected_windows(i, j))
                        == sorted(int(w)
                                  for w in op.harvest.selected_windows(i, j)))

    def test_rank_orders_follow_scores(self):
        _, obs = run_pinned(0.5)
        explanation = obs.decisions[-1]
        for d in explanation.directions:
            ranked = sorted(d.windows, key=lambda w: w.rank)
            scores = [w.score for w in ranked]
            assert scores == sorted(scores, reverse=True)
            # kept windows always outrank shed ones
            kept_ranks = [w.rank for w in d.windows if w.kept]
            shed_ranks = [w.rank for w in d.windows if not w.kept]
            if kept_ranks and shed_ranks:
                assert max(kept_ranks) < min(shed_ranks)


class TestRoundTrip:
    def test_to_dict_from_dict(self):
        _, obs = run_pinned(0.5)
        explanation = obs.decisions[-1]
        rebuilt = AdaptationExplanation.from_dict(explanation.to_dict())
        assert rebuilt == explanation
