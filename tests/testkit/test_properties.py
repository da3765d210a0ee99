"""The testkit's three contracts as hypothesis properties.

* ``full_join_matches_oracle`` — the unconstrained MJoin's output equals
  the brute-force oracle's;
* ``shedding_is_subset`` — a feedback-throttled GrubJoin under measured
  overload loses results but never invents one (the paper's promise);
* ``variants_match_oracle`` — over any join mode and window policy, the
  nested-loop MJoin and the IndexedMJoin both equal the extended oracle.

Each draws the *parameters* of a seeded workload (a :class:`Case`), not
the workload, so hypothesis shrinks along them: fewer streams, a shorter
window, seed 0.  Every property is derandomized: a failure replays by
running the test again, and the falsifying ``Case(...)`` it prints can be
pinned with ``@example(case=Case(...))``.
"""

from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.joins.variants import JoinMode
from repro.testkit import (
    Workload,
    calibrated_shed_capacity,
    compare,
    drift_workload,
    grubjoin_ids,
    indexed_ids,
    key_workload,
    mjoin_ids,
    oracle_ids,
)

DURATION = 8.0
PROPERTY = settings(max_examples=20, derandomize=True, deadline=None)


@dataclass(frozen=True)
class Case:
    """One point of the workload space; :meth:`workload` freezes it."""

    kind: str                # "keys" (EquiJoin) or "drift" (EpsilonJoin)
    m: int
    window: float
    basic: float
    rate: float
    seed: int
    n_keys: int = 20         # keys only
    epsilon: float = 1.0     # drift only
    deviation: float = 1.0   # drift only
    lag_step: float = 0.0    # drift only: stream i lags i * lag_step
    poisson: bool = False
    mode: JoinMode = JoinMode.INNER
    policy: str | None = None

    def workload(self) -> Workload:
        shared = dict(m=self.m, rate=self.rate, duration=DURATION,
                      window=self.window, basic=self.basic,
                      poisson=self.poisson)
        if self.kind == "keys":
            workload = key_workload(self.seed, n_keys=self.n_keys, **shared)
        else:
            workload = drift_workload(
                self.seed, epsilon=self.epsilon, deviation=self.deviation,
                lags=[self.lag_step * i for i in range(self.m)], **shared,
            )
        workload.mode, workload.window_policy = self.mode, self.policy
        return workload


seeds = st.integers(0, (1 << 30) - 1)
kinds = st.sampled_from(("keys", "drift"))


@st.composite
def cases(draw) -> Case:
    """The inner sliding-window space: m in {3, 4}, keys or drift values,
    varied windows, rates, key counts, tolerances, skew (deviation) and
    correlation lags."""
    kind, m = draw(kinds), draw(st.sampled_from((3, 4)))
    shared = dict(
        m=m,
        window=draw(st.sampled_from((3.0, 4.0, 6.0))),
        basic=draw(st.sampled_from((0.5, 1.0))),
        rate=draw(st.sampled_from((8.0, 12.0))) if m == 3 else 6.0,
        seed=draw(seeds),
    )
    if kind == "keys":
        return Case(kind, n_keys=draw(st.sampled_from((20, 40))), **shared)
    return Case(
        kind,
        epsilon=draw(st.sampled_from((1.0, 1.5, 2.0))),
        deviation=draw(st.sampled_from((0.5, 1.0, 2.0))),
        lag_step=draw(st.sampled_from((0.0, 0.05, 0.1))),
        **shared,
    )


#: the variant space: any join mode over any window policy.  Poisson
#: arrivals keep session gaps irregular enough that the session policy
#: closes sessions; short low-rate traces keep the oracle cheap
variant_cases = st.builds(
    Case, kind=kinds, m=st.just(3), window=st.just(4.0),
    basic=st.just(0.5), rate=st.just(2.0), seed=seeds, n_keys=st.just(8),
    epsilon=st.just(2.0), lag_step=st.just(0.1), poisson=st.just(True),
    mode=st.sampled_from(JoinMode),
    policy=st.sampled_from(("sliding", "tumbling", "session:1.5")),
)

#: cases each property runs clean and each planted defect shows on
PLAIN = Case("keys", m=3, window=4.0, basic=1.0, rate=8.0, seed=1)
VARIANT = Case("keys", m=3, window=4.0, basic=0.5, rate=2.0, seed=1,
               n_keys=8, lag_step=0.1, poisson=True, mode=JoinMode.OUTER,
               policy="session:1.5")


def holds(reference, observed, workload, mode: str, label: str) -> None:
    report = compare(reference, observed, workload, mode=mode, label=label)
    assert report.ok, "\n" + report.render()


@PROPERTY
@example(case=PLAIN)
@given(case=cases())
def test_full_join_matches_oracle(case):
    workload = case.workload()
    holds(oracle_ids(workload), mjoin_ids(workload), workload, "equal",
          "mjoin")


@PROPERTY
@example(case=PLAIN)
@given(case=cases())
def test_shedding_is_subset(case):
    workload = case.workload()
    capacity = calibrated_shed_capacity(workload, fraction=0.3)
    holds(oracle_ids(workload), grubjoin_ids(workload, capacity=capacity),
          workload, "subset", "grubjoin-shed")


@PROPERTY
@example(case=VARIANT)
@given(case=variant_cases)
def test_variants_match_oracle(case):
    workload = case.workload()
    reference = oracle_ids(workload)
    holds(reference, mjoin_ids(workload), workload, "equal", "mjoin")
    holds(reference, indexed_ids(workload), workload, "equal", "indexed")


class TestNonVacuity:
    """Each property fails on a planted defect: one engine's identity set
    is corrupted, and the property's body runs once on a case it passes
    clean (its ``@example``)."""

    @staticmethod
    def plant(monkeypatch, name: str, defect) -> None:
        real = globals()[name]
        monkeypatch.setitem(globals(), name,
                            lambda *args, **kw: defect(real(*args, **kw)))

    @staticmethod
    def drop_one(ids: set) -> set:
        assert ids
        return set(sorted(ids)[1:])

    def test_full_join_catches_a_dropped_result(self, monkeypatch):
        self.plant(monkeypatch, "mjoin_ids", self.drop_one)
        with pytest.raises(AssertionError, match=r"\[mjoin\].*missing=1 "):
            test_full_join_matches_oracle.hypothesis.inner_test(case=PLAIN)

    def test_shedding_catches_an_invented_result(self, monkeypatch):
        invented = tuple((stream, -1) for stream in range(PLAIN.m))
        assert invented not in oracle_ids(PLAIN.workload()).id_set
        self.plant(monkeypatch, "grubjoin_ids", lambda ids: ids | {invented})
        with pytest.raises(AssertionError,
                           match=r"\[grubjoin-shed\].*extra=1"):
            test_shedding_is_subset.hypothesis.inner_test(case=PLAIN)

    def test_variants_catch_a_dropped_indexed_result(self, monkeypatch):
        self.plant(monkeypatch, "indexed_ids", self.drop_one)
        with pytest.raises(AssertionError, match=r"\[indexed\].*missing=1 "):
            test_variants_match_oracle.hypothesis.inner_test(case=VARIANT)
