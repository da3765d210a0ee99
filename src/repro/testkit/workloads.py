"""Seeded workload builders shared by tests, benchmarks and the testkit.

Before the testkit existed, every test module hand-rolled the same two
constructors — de-phased constant-rate streams over the paper's linear
drift process, and uniform-key streams for partitioned equi-joins.  This
module is the single home for both, plus the frozen-trace bundles the
differential harness consumes.

Everything here is deterministic given its ``seed``: stream ``i`` uses
``seed + i``, arrivals are de-phased by ``phase_step`` so merge order is
unambiguous, and freezing happens once per workload so every system under
comparison replays byte-identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase
from typing import Callable, Sequence

from repro.joins.predicates import (
    BandJoin,
    EpsilonJoin,
    EquiJoin,
    JoinPredicate,
)
from repro.joins.variants import JoinMode
from repro.streams import (
    ConstantRate,
    DiscreteUniformProcess,
    LinearDriftProcess,
    PoissonArrivals,
    StreamSource,
    TraceSource,
    ZipfKeyProcess,
)
from repro.streams.windows import WindowPolicy, resolve_policy


def drift_sources(
    m: int = 3,
    rate: float = 30.0,
    seed: int = 0,
    lags: Sequence[float] | None = None,
    deviation: float | Sequence[float] = 1.0,
    domain: float = 1000.0,
    period: float = 50.0,
    phase_step: float = 1e-3,
    poisson: bool = False,
) -> list[StreamSource]:
    """The repo's canonical synthetic workload: the paper's linear-drift
    value process on de-phased constant-rate (or Poisson) arrivals.

    Args:
        m: number of streams.
        rate: per-stream arrival rate (tuples/sec).
        seed: base RNG seed; stream ``i`` draws from ``seed + i``.
        lags: per-stream time lags ``tau_i``; default ``2 * i`` (the
            nonaligned shape most tests use).
        deviation: Gaussian deviation ``kappa`` — one value for all
            streams or one per stream.
        domain: value domain ``D``.
        period: wrap-around period ``eta``.
        phase_step: arrival phase offset per stream (de-phasing).
        poisson: draw Poisson arrivals instead of constant-rate.
    """
    if lags is None:
        lags = [2.0 * i for i in range(m)]
    if len(lags) != m:
        raise ValueError("need one lag per stream")
    devs = (
        list(deviation)
        if isinstance(deviation, (list, tuple))
        else [float(deviation)] * m
    )
    if len(devs) != m:
        raise ValueError("need one deviation per stream")
    sources = []
    for i in range(m):
        if poisson:
            arrivals = PoissonArrivals(rate, rng=seed + 1000 + i)
        else:
            arrivals = ConstantRate(rate, phase=i * phase_step)
        sources.append(
            StreamSource(
                i,
                arrivals,
                LinearDriftProcess(
                    domain=domain,
                    period=period,
                    lag=lags[i],
                    deviation=devs[i],
                    rng=seed + i,
                ),
            )
        )
    return sources


def key_sources(
    m: int = 3,
    rate: float = 20.0,
    n_keys: int = 40,
    seed: int = 0,
    phase_step: float = 1e-3,
    poisson: bool = False,
) -> list[StreamSource]:
    """Uniform integer-valued key streams — the natural equi-join
    workload for partitioned (sharded) plans: equal keys always
    co-partition.  The keys are whole-number floats
    (:class:`~repro.streams.DiscreteUniformProcess` returns floats).

    Streams are de-phased by ``phase_step`` so no two tuples ever share a
    timestamp and no cross-stream age lands exactly on a window boundary
    (where float rounding would make oracle and engine disagree about a
    result that is neither clearly in nor clearly out).  ``poisson``
    draws Poisson arrivals instead — the bursty inter-arrival gaps that
    session-window scenarios need in order to actually close sessions.
    """
    return [
        StreamSource(
            i,
            (
                PoissonArrivals(rate, rng=seed + 1000 + i)
                if poisson
                else ConstantRate(rate, phase=i * phase_step)
            ),
            DiscreteUniformProcess(n_keys, rng=seed + i),
        )
        for i in range(m)
    ]


def freeze(sources: Sequence, duration: float) -> list[TraceSource]:
    """Freeze live sources into replayable traces (one generation pass)."""
    return [s.to_testkit_trace(duration) for s in sources]


@dataclass
class Workload:
    """A frozen, self-describing differential-testing workload.

    Attributes:
        name: stable label (keys the JSON verdict).
        traces: one recorded trace per stream.
        predicate: the join condition.
        window: join window ``w`` (same for all streams).
        basic: basic window ``b``.
        duration: trace length in virtual seconds.
        seed: the seed everything was generated from.
        mode: join emission semantics (default: the paper's inner join).
        window_policy: membership policy spec (``None`` = sliding); use
            :attr:`policy` for the resolved instance.
    """

    name: str
    traces: list[TraceSource]
    predicate: JoinPredicate
    window: float
    basic: float
    duration: float
    seed: int
    tags: dict = field(default_factory=dict)
    mode: JoinMode = JoinMode.INNER
    window_policy: "WindowPolicy | str | None" = None

    @property
    def m(self) -> int:
        return len(self.traces)

    @property
    def policy(self) -> WindowPolicy:
        """The resolved :class:`WindowPolicy` instance."""
        return resolve_policy(self.window_policy)

    @property
    def plain(self) -> bool:
        """True for the paper's home turf: inner mode, sliding windows.

        Gates the differential rows that are only defined there
        (sharded/procs plans, GrubJoin shedding)."""
        return self.mode is JoinMode.INNER and self.policy.is_sliding

    @property
    def window_sizes(self) -> list[float]:
        return [self.window] * self.m

    def tuple_count(self) -> int:
        """Total tuples across all traces (sizing/diagnostics)."""
        return sum(len(t.tuples) for t in self.traces)

    def lookup(self) -> dict[tuple[int, int], object]:
        """``(stream, seq) -> StreamTuple`` map for mismatch reports."""
        return {
            (t.stream, t.seq): t
            for trace in self.traces
            for t in trace.tuples
        }


def drift_workload(
    seed: int,
    m: int = 3,
    rate: float = 10.0,
    duration: float = 10.0,
    window: float = 4.0,
    basic: float = 1.0,
    epsilon: float = 1.5,
    deviation: float | Sequence[float] = 1.0,
    lags: Sequence[float] | None = None,
    poisson: bool = False,
) -> Workload:
    """A frozen epsilon-join workload over the drift process."""
    sources = drift_sources(
        m=m, rate=rate, seed=seed, lags=lags, deviation=deviation,
        poisson=poisson,
    )
    return Workload(
        name=f"drift-m{m}-r{rate:g}-s{seed}",
        traces=freeze(sources, duration),
        predicate=EpsilonJoin(epsilon),
        window=window,
        basic=basic,
        duration=duration,
        seed=seed,
        tags={"kind": "drift", "epsilon": epsilon},
    )


def band_workload(
    seed: int,
    m: int = 3,
    rate: float = 10.0,
    duration: float = 10.0,
    window: float = 4.0,
    basic: float = 1.0,
    low: float = 0.5,
    high: float = 2.5,
) -> Workload:
    """A frozen band-join workload over the drift process.

    ``low > 0`` makes the probe context a union of bands rather than one
    interval, so this is the matrix's workload on the reference
    nested-loop pipeline (no columnar kernel, no indexes)."""
    return Workload(
        name=f"band-m{m}-r{rate:g}-s{seed}",
        traces=freeze(drift_sources(m=m, rate=rate, seed=seed), duration),
        predicate=BandJoin(low, high),
        window=window,
        basic=basic,
        duration=duration,
        seed=seed,
        tags={"kind": "band", "low": low, "high": high},
    )


def key_workload(
    seed: int,
    m: int = 3,
    rate: float = 12.0,
    duration: float = 10.0,
    window: float = 4.0,
    basic: float = 1.0,
    n_keys: int = 30,
    poisson: bool = False,
) -> Workload:
    """A frozen equi-join workload over uniform integer keys."""
    sources = key_sources(
        m=m, rate=rate, n_keys=n_keys, seed=seed, poisson=poisson
    )
    return Workload(
        name=f"keys-m{m}-r{rate:g}-s{seed}",
        traces=freeze(sources, duration),
        predicate=EquiJoin(),
        window=window,
        basic=basic,
        duration=duration,
        seed=seed,
        tags={"kind": "keys", "n_keys": n_keys},
    )


def zipf_sources(
    m: int = 3,
    rate: float = 12.0,
    n_keys: int = 50,
    alpha: float = 1.1,
    seed: int = 0,
    phase_step: float = 1e-3,
) -> list[StreamSource]:
    """Zipf-skewed integer-key streams: a few hot keys dominate while a
    long tail stays rare — the distribution the adaptive partition
    index (``repro.core.windex``) is built for, and the adversarial
    case for uniform hash routing.  De-phased like :func:`key_sources`.
    """
    return [
        StreamSource(
            i,
            ConstantRate(rate, phase=i * phase_step),
            ZipfKeyProcess(n_keys, alpha=alpha, rng=seed + i),
        )
        for i in range(m)
    ]


def zipf_key_workload(
    seed: int,
    m: int = 3,
    rate: float = 12.0,
    duration: float = 10.0,
    window: float = 4.0,
    basic: float = 1.0,
    n_keys: int = 50,
    alpha: float = 1.1,
) -> Workload:
    """A frozen equi-join workload over zipf-skewed integer keys."""
    sources = zipf_sources(
        m=m, rate=rate, n_keys=n_keys, alpha=alpha, seed=seed
    )
    return Workload(
        name=f"zipf-m{m}-r{rate:g}-s{seed}",
        traces=freeze(sources, duration),
        predicate=EquiJoin(),
        window=window,
        basic=basic,
        duration=duration,
        seed=seed,
        tags={"kind": "keys", "n_keys": n_keys, "alpha": alpha,
              "skewed": True},
    )


def _mixed_cast(value, kind: int):
    """Re-type an integer-valued ``float`` key per stream: kind 0 keeps
    it, kind 1 casts it to ``float`` (a no-op on these keys), kind 2
    turns 0 and 1 into bools."""
    if kind == 1:
        return float(value)
    if kind == 2 and value in (0, 1):
        return bool(value)
    return value


def mixed_key_workload(
    seed: int,
    m: int = 3,
    rate: float = 12.0,
    duration: float = 10.0,
    window: float = 4.0,
    basic: float = 1.0,
    n_keys: int = 12,
) -> Workload:
    """An equi-join workload with mixed numeric key representations.

    Streams carry the *same* logical keys in different types.  The keys
    of :func:`key_sources` are whole-number floats, so streams 0 and 1
    both carry floats (stream 1's cast to ``float`` changes
    nothing), and stream 2 maps the keys 0.0 / 1.0 onto bools and keeps
    the rest as floats (``m > 3`` cycles the pattern).  Python equality
    makes ``1.0 == True``, so the oracle joins across representations —
    and hash routing must co-partition them the same way, which is
    exactly what a raw-repr key hash gets wrong (the ``stable_key_hash``
    regression this workload exists to catch: ``repr(1.0)`` and
    ``repr(True)`` differ).  No stream carries ints, so the
    ``repr(1)`` vs ``repr(1.0)`` case is not exercised here.

    A small ``n_keys`` keeps the bool-eligible keys 0 and 1 frequent.
    """
    sources = key_sources(m=m, rate=rate, n_keys=n_keys, seed=seed)
    traces = [
        TraceSource(
            trace.stream,
            [
                replace(t, value=_mixed_cast(t.value, trace.stream % 3))
                for t in trace.tuples
            ],
        )
        for trace in freeze(sources, duration)
    ]
    return Workload(
        name=f"mixedkeys-m{m}-r{rate:g}-s{seed}",
        traces=traces,
        predicate=EquiJoin(),
        window=window,
        basic=basic,
        duration=duration,
        seed=seed,
        tags={"kind": "keys", "n_keys": n_keys, "mixed": True},
    )


# ----------------------------------------------------------------------
# declarative scenario library: the mode x window x predicate grid
# ----------------------------------------------------------------------

def scenario_names() -> list[str]:
    """All scenario names, sorted."""
    return sorted(_SCENARIOS)


def scenario_workload(name: str) -> Workload:
    """Build one scenario's frozen workload by name."""
    try:
        builder = _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {scenario_names()}"
        ) from None
    workload = builder()
    workload.name = name
    return workload


def build_scenarios(patterns: Sequence[str] = ("*",)) -> list[Workload]:
    """Build every scenario matching any of the fnmatch ``patterns``
    (sorted by name).  Raises if a pattern matches nothing — a silently
    empty selection would make a green CI run vacuous.
    """
    selected: list[str] = []
    for pattern in patterns:
        hits = [n for n in scenario_names() if fnmatchcase(n, pattern)]
        if not hits:
            raise ValueError(
                f"scenario pattern {pattern!r} matches nothing; "
                f"known: {scenario_names()}"
            )
        selected.extend(h for h in hits if h not in selected)
    return [scenario_workload(name) for name in sorted(selected)]


def _grid_scenario(name: str, seed: int) -> Callable[[], Workload]:
    """One cell of the mode x window x predicate grid, named
    ``sc-<mode>-<window>-<kind>``.

    Sliding/tumbling cells run the standard constant-rate builders;
    session cells switch to low-rate Poisson arrivals (constant-rate
    gaps never exceed the session gap, so sessions would never close)
    with a gap chosen as an integral multiple of ``b`` below the
    effective horizon (plan rule P132's sound region).
    """
    _, mode, policy, kind = name.split("-")
    policy_spec = "session:1.5" if policy == "session" else policy

    def build() -> Workload:
        if policy == "session":
            if kind == "drift":
                workload = drift_workload(
                    seed, rate=1.5, duration=12.0, basic=0.5,
                    epsilon=2.0, lags=[0.1 * i for i in range(3)],
                    poisson=True,
                )
            else:
                workload = key_workload(
                    seed, rate=1.5, duration=12.0, basic=0.5,
                    n_keys=8, poisson=True,
                )
        elif kind == "drift":
            workload = drift_workload(seed)
        else:
            workload = key_workload(seed)
        workload.mode = JoinMode(mode)
        workload.window_policy = policy_spec
        workload.tags = {
            **workload.tags, "mode": mode, "window": policy,
        }
        return workload

    return build


#: scenario name -> zero-argument frozen-workload builder: every mode x
#: window cell once, the predicate kind alternating so both drift
#: (interval) and keys (equi) appear in every mode row and every window
#: column; seeds 41.. in this order
_SCENARIOS: dict[str, Callable[[], Workload]] = {
    name: _grid_scenario(name, seed)
    for seed, name in enumerate((
        "sc-inner-sliding-drift", "sc-inner-tumbling-keys",
        "sc-inner-session-drift", "sc-semi-sliding-keys",
        "sc-semi-tumbling-drift", "sc-semi-session-keys",
        "sc-anti-sliding-drift", "sc-anti-tumbling-keys",
        "sc-anti-session-drift", "sc-outer-sliding-keys",
        "sc-outer-tumbling-drift", "sc-outer-session-keys",
    ), start=41)
}


def default_workloads(seeds: Sequence[int] = (1, 2, 3)) -> list[Workload]:
    """The differential matrix's standard workload set: for each seed, a
    3-way drift epsilon-join, a 3-way sharded-friendly equi-join, a
    3-way zipf-skewed equi-join (hot keys stress the partition
    indexes), a 4-way drift join at lower rate (4-way blowup is
    combinatorial), and a 3-way band join (the one non-interval
    predicate, keeping the reference pipeline under the oracle)."""
    workloads: list[Workload] = []
    for seed in seeds:
        workloads.append(drift_workload(seed))
        workloads.append(key_workload(seed))
        workloads.append(zipf_key_workload(seed))
        # 4-way needs near-aligned lags: the drift slope is domain/period
        # = 20 units/s, so the default 2 s lag steps would push streams
        # ~40 units apart and the clique join would be vacuously empty
        workloads.append(
            drift_workload(
                seed, m=4, rate=6.0, epsilon=2.0,
                lags=[0.1 * i for i in range(4)],
            )
        )
        workloads.append(band_workload(seed))
    return workloads
